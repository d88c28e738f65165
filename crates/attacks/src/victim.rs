//! Victim definition: the vulnerable binary and its frame geometry.
//!
//! The byte-by-byte attack of §II-B targets applications where "a parent
//! process keeps forking out child processes to ... serve new requests sent
//! by external entities", and where a crashed worker is simply replaced by a
//! fresh fork.  This module defines *what* such a victim is — the MiniC
//! module with the unbounded `strcpy`-style overflow (plus an over-read
//! disclosure bug for the exposure experiments), the deployment vehicle and
//! the attacker-visible frame geometry.  The long-lived server that *runs*
//! the victim and serves attacker connections lives in [`crate::server`];
//! its [`ForkingServer`] is re-exported here for convenience.

use std::sync::Arc;

use polycanary_compiler::ir::{FunctionBuilder, ModuleBuilder, ModuleDef};
use polycanary_core::scheme::SchemeKind;
use polycanary_crypto::{Prng, SplitMix64};
use polycanary_rewriter::{Build, LinkMode};

pub use crate::server::{Connection, ForkingServer};

/// The return address the attacker tries to divert control flow to.
pub const HIJACK_TARGET: u64 = 0x0BAD_C0DE_0000_1000;

/// Geometry of the vulnerable frame, as the attacker (who has the binary,
/// per the adversary model of §III-A) would derive it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameGeometry {
    /// Bytes from the start of the vulnerable buffer up to the first canary
    /// byte (filler the attacker must write before reaching the canary).
    pub filler_len: usize,
    /// Total size in bytes of the canary region between the buffer and the
    /// saved frame pointer.
    pub canary_region_len: usize,
}

impl FrameGeometry {
    /// Total overwrite length needed to reach and replace the return address:
    /// filler + canaries + saved `%rbp` + return address.
    pub fn full_overwrite_len(&self) -> usize {
        self.filler_len + self.canary_region_len + 8 + 8
    }
}

/// How the victim binary was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Deployment {
    /// Compiled with the scheme's compiler plugin.
    #[default]
    Compiler,
    /// Compiled with classic SSP and then upgraded by the binary rewriter
    /// (only meaningful together with [`SchemeKind::PsspBin32`]).
    BinaryRewriter,
}

impl Deployment {
    /// The deployment pipeline that builds a `scheme` victim under this
    /// vehicle: the scheme's compiler plugin, or the binary rewriter in
    /// dynamic-link mode (which always ships [`SchemeKind::PsspBin32`]).
    pub fn build(&self, scheme: SchemeKind) -> Build {
        match self {
            Deployment::Compiler => Build::Compiler(scheme),
            Deployment::BinaryRewriter => Build::BinaryRewriter(LinkMode::Dynamic),
        }
    }

    /// Display label used in reports and serialized records.
    pub fn label(&self) -> &'static str {
        match self {
            Deployment::Compiler => "compiler",
            Deployment::BinaryRewriter => "binary-rewriter",
        }
    }
}

/// Configuration of a [`ForkingServer`] victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VictimConfig {
    /// The protection scheme of the victim binary.
    pub scheme: SchemeKind,
    /// Size of the vulnerable stack buffer in bytes.
    pub buffer_size: u32,
    /// Deployment vehicle.
    pub deployment: Deployment,
    /// Seed for all randomness (loader canary, shared library, rdrand).
    pub seed: u64,
    /// Victim-program generator id: `0` is the canonical hand-written
    /// server of §II-B; any other value selects a PRNG-derived variant
    /// with the same vulnerable endpoints (see [`victim_module`]).
    pub program: u64,
}

impl VictimConfig {
    /// A victim protected by `scheme` with the default 64-byte buffer.
    pub fn new(scheme: SchemeKind, seed: u64) -> Self {
        VictimConfig { scheme, buffer_size: 64, deployment: Deployment::Compiler, seed, program: 0 }
    }

    /// Selects the binary-rewriter deployment.
    #[must_use]
    pub fn with_deployment(mut self, deployment: Deployment) -> Self {
        self.deployment = deployment;
        self
    }

    /// Overrides the vulnerable buffer size.
    #[must_use]
    pub fn with_buffer_size(mut self, size: u32) -> Self {
        self.buffer_size = size;
        self
    }

    /// Selects a generated victim-program variant (`0` = canonical).
    #[must_use]
    pub fn with_program(mut self, program: u64) -> Self {
        self.program = program;
        self
    }
}

/// The MiniC source of the victim server.
///
/// `program == 0` yields the canonical hand-written module of §II-B,
/// byte-for-byte identical to what every experiment before the scenario
/// grammar attacked.  A non-zero `program` seeds a SplitMix64 PRNG that
/// surrounds the same vulnerable endpoints with extra *safe* helper
/// functions (protected buffers, bounded fills, pure compute — never a
/// `vulnerable_copy` or a `leak`), so the attacker-relevant geometry and
/// verdicts are unchanged while the static shape of the binary varies.
/// Every generated variant must pass the verifier's five invariant
/// checks at any opt level; `tests/scenario_grammar.rs` pins that.
pub fn victim_module(buffer_size: u32, program: u64) -> ModuleDef {
    let mut builder = ModuleBuilder::new().function(
        FunctionBuilder::new("handle_request")
            .buffer("request_buf", buffer_size)
            .vulnerable_copy("request_buf")
            .compute(150)
            .returns(0)
            .build(),
    );
    builder = builder.function(
        // A helper with a memory-disclosure over-read, used by the
        // exposure-resilience experiments: it copies the request into its
        // own buffer (bounded) and then echoes too many stack words back —
        // enough extra words to cover the largest canary region (P-SSP-OWF
        // uses three words).
        FunctionBuilder::new("leak_status")
            .buffer("status_buf", buffer_size)
            .safe_copy("status_buf")
            .leak("status_buf", buffer_size / 8 + 3)
            .returns(0)
            .build(),
    );

    let mut main = FunctionBuilder::new("main").scalar("s");
    if program != 0 {
        let mut rng = SplitMix64::new(program);
        let helpers = 1 + (rng.next_u64() % 3) as usize;
        for index in 0..helpers {
            let name: Arc<str> = format!("gen_helper_{index}").into();
            let mut helper = FunctionBuilder::new(Arc::clone(&name));
            // Safe constructs only: a protected buffer (exercising the
            // scheme's prologue/epilogue), an optional bounded fill, and
            // some pure compute.  Nothing reads attacker input or echoes
            // stack memory, so request/response traffic is untouched.
            if rng.next_u64().is_multiple_of(2) {
                let size = 8 * (1 + (rng.next_u64() % 8) as u32);
                helper = helper.buffer("gen_buf", size);
                if rng.next_u64().is_multiple_of(2) {
                    helper = helper.zero_fill("gen_buf");
                }
            } else {
                helper = helper.scalar("gen_s");
            }
            helper = helper.compute(10 + rng.next_u64() % 40);
            builder = builder.function(helper.returns(rng.next_u64()).build());
            main = main.call(name);
        }
    }
    builder
        .function(main.call("handle_request").returns(0).build())
        .entry("main")
        .build()
        .expect("victim module is statically well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_overwrite_reaches_past_the_return_address() {
        let geom = FrameGeometry { filler_len: 64, canary_region_len: 16 };
        assert_eq!(geom.full_overwrite_len(), 64 + 16 + 8 + 8);
    }

    #[test]
    fn victim_config_builder_sets_every_field() {
        let config = VictimConfig::new(SchemeKind::Pssp, 9)
            .with_deployment(Deployment::BinaryRewriter)
            .with_buffer_size(128)
            .with_program(0xC0FFEE);
        assert_eq!(config.scheme, SchemeKind::Pssp);
        assert_eq!(config.seed, 9);
        assert_eq!(config.deployment, Deployment::BinaryRewriter);
        assert_eq!(config.buffer_size, 128);
        assert_eq!(config.program, 0xC0FFEE);
        assert_eq!(Deployment::Compiler.label(), "compiler");
        assert_eq!(Deployment::BinaryRewriter.label(), "binary-rewriter");
    }

    #[test]
    fn program_zero_is_the_canonical_three_function_module() {
        let module = victim_module(64, 0);
        let names: Vec<&str> = module.functions.iter().map(|f| &*f.name).collect();
        assert_eq!(names, ["handle_request", "leak_status", "main"]);
    }

    #[test]
    fn generated_programs_are_deterministic_and_keep_the_endpoints() {
        let a = victim_module(64, 0xDEAD_BEEF);
        let b = victim_module(64, 0xDEAD_BEEF);
        assert_eq!(a, b, "same program id must generate the same module");
        let names: Vec<&str> = a.functions.iter().map(|f| &*f.name).collect();
        assert!(names.contains(&"handle_request"));
        assert!(names.contains(&"leak_status"));
        assert!(names.contains(&"main"));
        assert!(
            names.iter().any(|n| n.starts_with("gen_helper_")),
            "non-zero program ids add generated helpers"
        );
        assert_ne!(a, victim_module(64, 0xFEED_FACE), "distinct ids vary the module");
    }
}
