//! Rewrite-soundness: structural verification of binary-rewriter output.
//!
//! Given the original SSP-compiled program and the rewriter's output, the
//! check proves per function that every scanned SSP site was replaced and
//! nothing else changed:
//!
//! * prologue/epilogue site counts in the original are balanced,
//! * no stray accesses to the glibc TLS canary (`%fs:0x28`) survive — every
//!   load and compare must target the shadow pair,
//! * one shadow-canary load per original prologue and one
//!   `__pssp_check_canary32` per original epilogue,
//! * the encoded size is unchanged (the rewriter's replacements are
//!   size-preserving by construction), and
//! * uninstrumented functions are byte-identical to the original.
//!
//! On top of the structural pass, every instrumented function is re-proven
//! with the dataflow pass under the 32-bit P-SSP policy, so a rewrite that
//! is structurally plausible but drops a check on some path still fails.

use polycanary_core::scheme::SchemeKind;
use polycanary_rewriter::scan_function;
use polycanary_vm::inst::Inst;
use polycanary_vm::program::Program;
use polycanary_vm::tls::{TLS_CANARY_OFFSET, TLS_SHADOW_C0_OFFSET};

use crate::dataflow::Dataflow;
use crate::finding::{CheckKind, Finding};
use crate::policy::ProtectionPolicy;

fn soundness(function: &str, index: Option<usize>, message: String) -> Finding {
    Finding {
        kind: CheckKind::RewriteSoundness,
        function: function.to_string(),
        scheme: SchemeKind::PsspBin32.to_string(),
        index,
        message,
    }
}

/// Counts instructions of `insts` matching `pred`.
fn count(insts: &[Inst], pred: impl Fn(&Inst) -> bool) -> usize {
    insts.iter().filter(|inst| pred(inst)).count()
}

/// Verifies rewriter output against the original program it was derived
/// from.  Returns every violated invariant; a sound rewrite yields none.
pub fn verify_rewritten(original: &Program, rewritten: &Program) -> Vec<Finding> {
    let mut findings = Vec::new();
    // Every rewritten body must still store and check a canary at -8 on
    // every path.
    let policy = ProtectionPolicy::new(SchemeKind::PsspBin32, true, &[]);
    let mut dataflow = Dataflow::default();

    if original.len() != rewritten.len() {
        findings.push(soundness(
            "<program>",
            None,
            format!("function count changed: {} before, {} after", original.len(), rewritten.len()),
        ));
        return findings;
    }

    for (id, orig) in original.iter() {
        let name = orig.name();
        let Ok(rewritten_func) = rewritten.function(id) else {
            findings.push(soundness(name, None, "function missing from rewritten program".into()));
            continue;
        };
        let insts = orig.insts();
        let out = rewritten_func.insts();
        let sites = scan_function(insts);

        if !sites.is_instrumented() {
            // The rewriter must leave uninstrumented functions untouched.
            if out != insts {
                findings.push(soundness(
                    name,
                    None,
                    "uninstrumented function was modified by the rewriter".into(),
                ));
            }
            continue;
        }

        if !sites.is_balanced() {
            findings.push(soundness(
                name,
                None,
                format!(
                    "unbalanced SSP sites in original: {} prologue(s), {} epilogue(s)",
                    sites.prologues.len(),
                    sites.epilogues.len()
                ),
            ));
        }

        // No stray accesses to the glibc TLS canary may survive the rewrite.
        let stray = out.iter().position(|inst| {
            matches!(inst, Inst::MovTlsToReg { offset, .. } if *offset == TLS_CANARY_OFFSET)
                || matches!(inst, Inst::XorTlsReg { offset, .. } if *offset == TLS_CANARY_OFFSET)
        });
        if let Some(index) = stray {
            findings.push(soundness(
                name,
                Some(index),
                "stray TLS canary access survived the rewrite".into(),
            ));
        }

        // Site accounting: one shadow load per prologue, one 32-bit check
        // call per epilogue.
        let shadow_loads = count(
            out,
            |inst| matches!(inst, Inst::MovTlsToReg { offset, .. } if *offset == TLS_SHADOW_C0_OFFSET),
        );
        if shadow_loads != sites.prologues.len() {
            findings.push(soundness(
                name,
                None,
                format!(
                    "expected {} shadow-canary load(s), found {shadow_loads}",
                    sites.prologues.len()
                ),
            ));
        }
        let checks = count(out, |inst| matches!(inst, Inst::CallCheckCanary32));
        if checks != sites.epilogues.len() {
            findings.push(soundness(
                name,
                None,
                format!("expected {} canary check call(s), found {checks}", sites.epilogues.len()),
            ));
        }

        // The rewriter's replacements are size-preserving by construction.
        if rewritten_func.encoded_size() != orig.encoded_size() {
            findings.push(soundness(
                name,
                None,
                format!(
                    "encoded size changed: {} bytes before, {} after",
                    orig.encoded_size(),
                    rewritten_func.encoded_size()
                ),
            ));
        }

        // Semantic re-proof under the 32-bit P-SSP policy.
        dataflow.analyze(name, out, &policy, &mut findings);
    }

    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use polycanary_compiler::{Compiler, FunctionBuilder, ModuleBuilder};
    use polycanary_rewriter::Rewriter;

    fn ssp_program() -> Program {
        let module = ModuleBuilder::new()
            .function(
                FunctionBuilder::new("handle_request")
                    .buffer("buf", 64)
                    .safe_copy("buf")
                    .compute(50)
                    .returns(0)
                    .build(),
            )
            .function(
                FunctionBuilder::new("main").scalar("x").call("handle_request").returns(0).build(),
            )
            .entry("main")
            .build()
            .expect("module is well-formed");
        Compiler::new(SchemeKind::Ssp).compile(&module).expect("compiles").program
    }

    #[test]
    fn faithful_rewrite_is_sound() {
        let original = ssp_program();
        let mut rewritten = original.clone();
        Rewriter::new().rewrite(&mut rewritten).expect("rewrite succeeds");
        let findings = verify_rewritten(&original, &rewritten);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn reverted_function_body_is_caught() {
        let original = ssp_program();
        let mut rewritten = original.clone();
        Rewriter::new().rewrite(&mut rewritten).expect("rewrite succeeds");

        // Sneak the original (still SSP) body back in — a stale rewrite.
        let (id, func) =
            original.iter().find(|(_, f)| f.name() == "handle_request").expect("function exists");
        rewritten.replace_function_body(id, func.insts().to_vec()).expect("id is valid");
        let findings = verify_rewritten(&original, &rewritten);
        assert!(
            findings.iter().any(|f| f.kind == CheckKind::RewriteSoundness
                && f.message.contains("stray TLS canary access")),
            "{findings:?}"
        );
    }

    #[test]
    fn modified_uninstrumented_function_is_caught() {
        let original = ssp_program();
        let mut rewritten = original.clone();
        Rewriter::new().rewrite(&mut rewritten).expect("rewrite succeeds");

        // `main` has no buffer, so it is uninstrumented; any edit to it is a
        // rewriter overreach.
        let (id, func) =
            original.iter().find(|(_, f)| f.name() == "main").expect("function exists");
        let mut body = func.insts().to_vec();
        body.insert(0, Inst::Nop);
        rewritten.replace_function_body(id, body).expect("id is valid");
        let findings = verify_rewritten(&original, &rewritten);
        assert!(
            findings.iter().any(|f| f.function == "main"
                && f.message.contains("uninstrumented function was modified")),
            "{findings:?}"
        );
    }
}
