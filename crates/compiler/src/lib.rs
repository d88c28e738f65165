//! MiniC compiler for the polycanary workspace.
//!
//! The paper deploys P-SSP through an LLVM plugin registered as a
//! `FunctionPass` (§V-B).  This crate reproduces that deployment for the
//! simulated substrate:
//!
//! * [`ir`] — the MiniC intermediate representation: functions with typed
//!   locals (scalars, buffers, critical buffers) and bodies made of
//!   computation, calls and possibly-overflowing buffer writes.
//! * [`pass`] — the optimizing pass pipeline mirroring the plugin
//!   structure: analysis, IR transforms and instruction transforms selected
//!   by [`pass::OptLevel`].
//! * [`frame`] — stack-frame layout with SSP-style buffer reordering and the
//!   per-critical-variable guard slots of P-SSP-LV.
//! * [`codegen`] — lowering to VM instructions with the scheme-provided
//!   prologue/epilogue, plus the code-expansion accounting of Table II.
//!
//! [`Compiler::compile`] runs in two halves.  The front half,
//! [`Compiler::prepare`], depends only on the module and the optimization
//! level — validation, the name → function-id table, analysis and the IR
//! transforms, plus the finished lowering of every unprotected function,
//! whose code no scheme changes — and yields a [`Frontend`].  The back
//! half, [`Compiler::lower`], lays out and lowers the protected functions
//! under one scheme, shares the rest, and finalizes, so a module built
//! under many schemes is prepared once.
//! Function names are interned once per module, as the `Arc<str>`s of the
//! [`ir`]; the name table and every lowered program share them.
//!
//! # Quick example
//!
//! ```
//! use polycanary_compiler::ir::{FunctionBuilder, ModuleBuilder};
//! use polycanary_compiler::codegen::Compiler;
//! use polycanary_core::scheme::SchemeKind;
//!
//! let module = ModuleBuilder::new()
//!     .function(
//!         FunctionBuilder::new("handle_request")
//!             .buffer("buf", 64)
//!             .vulnerable_copy("buf")
//!             .returns(0)
//!             .build(),
//!     )
//!     .build()?;
//!
//! let compiled = Compiler::new(SchemeKind::Pssp).compile(&module)?;
//! let mut machine = compiled.into_machine(42);
//! let mut process = machine.spawn();
//! process.set_input(vec![0u8; 16]);               // benign request
//! assert!(machine.run(&mut process)?.exit.is_normal());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod codegen;
pub mod error;
pub mod frame;
pub mod ir;
pub mod pass;

pub use codegen::{code_expansion, CodeExpansion, CompiledModule, Compiler, Frontend};
pub use error::CompileError;
pub use frame::{layout_frame, FrameLayout};
pub use ir::{
    FunctionBuilder, FunctionDef, FunctionIds, Local, LocalKind, ModuleBuilder, ModuleDef, Stmt,
};
pub use pass::{FunctionAnalysis, FunctionPass, LoweredBody, OptLevel, PassCtx, PassManager};

#[cfg(test)]
mod tests {
    use super::*;
    use polycanary_core::scheme::SchemeKind;

    #[test]
    fn facade_compiles_a_module_end_to_end() {
        let module = ModuleBuilder::new()
            .function(FunctionBuilder::new("f").buffer("b", 16).safe_copy("b").returns(3).build())
            .build()
            .unwrap();
        let compiled = Compiler::new(SchemeKind::Ssp).compile(&module).unwrap();
        assert!(compiled.code_size() > 0);
    }
}
