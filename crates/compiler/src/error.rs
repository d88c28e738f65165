//! Compiler error type.

use std::fmt;

use crate::pass::OptLevel;

/// Errors reported while compiling a MiniC module.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CompileError {
    /// A statement referenced a local variable index that does not exist.
    UnknownLocal {
        /// Function containing the reference.
        function: String,
        /// The out-of-range index.
        index: usize,
    },
    /// A call statement referenced a function that is not part of the module.
    UnknownCallee {
        /// Function containing the call.
        function: String,
        /// Name of the missing callee.
        callee: String,
    },
    /// The module's entry function does not exist.
    MissingEntry {
        /// The entry name that failed to resolve.
        entry: String,
    },
    /// Two functions share the same name.
    DuplicateFunction {
        /// The duplicated name.
        name: String,
    },
    /// A statement that writes to a local targeted a scalar, which has no
    /// buffer semantics.
    NotABuffer {
        /// Function containing the statement.
        function: String,
        /// Name of the local.
        local: String,
    },
    /// The frame grew beyond what a 32-bit displacement can address.
    FrameTooLarge {
        /// Function whose frame overflowed.
        function: String,
        /// Computed frame size in bytes.
        size: u64,
    },
    /// A per-function scheme override names a function the module does not
    /// define.
    UnknownOverride {
        /// The override's function name.
        function: String,
    },
    /// A compiler was asked to lower a front half prepared at another
    /// optimization level.
    OptLevelMismatch {
        /// The level the front half was prepared at.
        prepared: OptLevel,
        /// The level of the compiler asked to lower it.
        compiler: OptLevel,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnknownLocal { function, index } => {
                write!(f, "function `{function}` references unknown local #{index}")
            }
            CompileError::UnknownCallee { function, callee } => {
                write!(f, "function `{function}` calls unknown function `{callee}`")
            }
            CompileError::MissingEntry { entry } => {
                write!(f, "entry function `{entry}` is not defined")
            }
            CompileError::DuplicateFunction { name } => {
                write!(f, "function `{name}` is defined more than once")
            }
            CompileError::NotABuffer { function, local } => {
                write!(f, "local `{local}` in `{function}` is not a buffer")
            }
            CompileError::FrameTooLarge { function, size } => {
                write!(f, "frame of `{function}` is too large ({size} bytes)")
            }
            CompileError::UnknownOverride { function } => {
                write!(f, "scheme override names unknown function `{function}`")
            }
            CompileError::OptLevelMismatch { prepared, compiler } => {
                write!(f, "front half prepared at {prepared} cannot be lowered at {compiler}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = CompileError::UnknownCallee { function: "main".into(), callee: "gone".into() };
        let msg = err.to_string();
        assert!(msg.contains("main") && msg.contains("gone"));
    }

    #[test]
    fn implements_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<CompileError>();
    }
}
