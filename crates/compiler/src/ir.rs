//! The MiniC intermediate representation.
//!
//! The paper's compiler plugin is an LLVM `FunctionPass` that inspects each
//! function's local variables and inserts the scheme's prologue/epilogue when
//! a stack buffer is present (§V-B).  MiniC captures exactly the information
//! that decision needs: functions with typed locals (scalars vs buffers, with
//! buffers optionally marked *critical* for P-SSP-LV) and bodies made of the
//! operations that matter for the evaluation — computation, calls, and the
//! library-style buffer writes that can overflow.
//!
//! Every name in the IR — of a function, a local or a callee — is an
//! `Arc<str>`, made once when the module is built.  The compiler's name
//! table and every program lowered from a module share those `Arc`s, so a
//! build copies no name.

use std::collections::hash_map::Entry;
use std::sync::Arc;

use polycanary_vm::inst::FuncId;
pub use polycanary_vm::program::FunctionIds;

use crate::error::CompileError;

/// Kind of a local variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalKind {
    /// A scalar (pointer-sized) local.
    Scalar,
    /// A byte buffer of the given size.
    Buffer {
        /// Size of the buffer in bytes.
        size: u32,
    },
    /// A byte buffer marked as a *critical variable* in the sense of
    /// §IV-B: under P-SSP-LV it receives its own guard canary.
    CriticalBuffer {
        /// Size of the buffer in bytes.
        size: u32,
    },
}

impl LocalKind {
    /// Size of the local in bytes (scalars are one machine word).
    pub fn size(&self) -> u32 {
        match self {
            LocalKind::Scalar => 8,
            LocalKind::Buffer { size } | LocalKind::CriticalBuffer { size } => *size,
        }
    }

    /// Whether the local is a buffer (of either kind).
    pub fn is_buffer(&self) -> bool {
        matches!(self, LocalKind::Buffer { .. } | LocalKind::CriticalBuffer { .. })
    }

    /// Whether the local is a critical buffer.
    pub fn is_critical(&self) -> bool {
        matches!(self, LocalKind::CriticalBuffer { .. })
    }
}

/// A local variable declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Local {
    /// Variable name (for diagnostics).
    pub name: Arc<str>,
    /// Variable kind and size.
    pub kind: LocalKind,
}

/// Source of the bytes written into a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteSource {
    /// The process input, copied without any bound — the `strcpy`/`gets`
    /// model, i.e. the vulnerability every attack exploits.
    InputUnbounded,
    /// The process input, truncated to the destination buffer's size — the
    /// `strncpy`/`read(fd, buf, sizeof buf)` model.
    InputBounded,
}

/// One statement of a MiniC function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// Straight-line computation consuming the given number of cycles.
    Compute {
        /// Simulated cycles of work.
        cycles: u64,
    },
    /// Zero-fill a local buffer — the `memset(buf, 0, sizeof buf)` /
    /// `char buf[N] = {0};` model.  Subject to dead-store elimination at
    /// `O2` when the zeroed bytes are provably unobservable.
    InitBuffer {
        /// Index of the buffer local to zero.
        local: usize,
    },
    /// Copy the process input into a local buffer.
    WriteBuffer {
        /// Index of the destination local.
        local: usize,
        /// Where the bytes come from and whether the copy is bounded.
        source: WriteSource,
    },
    /// Call another function of the module by name.
    Call {
        /// Name of the callee.
        callee: Arc<str>,
    },
    /// Set the function's return value (placed in `%rax`).
    SetReturn {
        /// The value to return.
        value: u64,
    },
    /// Write `words` consecutive stack words starting at the given local to
    /// the output channel — an over-read / memory-disclosure bug used by the
    /// exposure-resilience experiments (§IV-C).
    LeakFrame {
        /// Index of the local where the leak starts.
        local: usize,
        /// Number of 8-byte words disclosed.
        words: u32,
    },
}

/// A MiniC function definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionDef {
    /// Function name.
    pub name: Arc<str>,
    /// Local variable declarations.
    pub locals: Vec<Local>,
    /// Function body.
    pub body: Vec<Stmt>,
}

impl FunctionDef {
    /// Whether `-fstack-protector` style policy would protect this function:
    /// it contains at least one local buffer (§V-B).
    pub fn needs_protection(&self) -> bool {
        self.locals.iter().any(|l| l.kind.is_buffer())
    }

    /// Indices of critical buffers, in declaration order.
    pub fn critical_locals(&self) -> Vec<usize> {
        self.locals
            .iter()
            .enumerate()
            .filter(|(_, l)| l.kind.is_critical())
            .map(|(i, _)| i)
            .collect()
    }

    /// Validates intra-function references.
    ///
    /// # Errors
    ///
    /// Returns the first [`CompileError`] found (unknown local, write to a
    /// scalar, ...).
    pub fn validate(&self) -> Result<(), CompileError> {
        for stmt in &self.body {
            match stmt {
                Stmt::WriteBuffer { local, .. } | Stmt::InitBuffer { local } => {
                    let decl =
                        self.locals.get(*local).ok_or_else(|| CompileError::UnknownLocal {
                            function: self.name.to_string(),
                            index: *local,
                        })?;
                    if !decl.kind.is_buffer() {
                        return Err(CompileError::NotABuffer {
                            function: self.name.to_string(),
                            local: decl.name.to_string(),
                        });
                    }
                }
                Stmt::LeakFrame { local, .. } => {
                    if self.locals.get(*local).is_none() {
                        return Err(CompileError::UnknownLocal {
                            function: self.name.to_string(),
                            index: *local,
                        });
                    }
                }
                Stmt::Compute { .. } | Stmt::Call { .. } | Stmt::SetReturn { .. } => {}
            }
        }
        Ok(())
    }
}

/// A MiniC module: a set of functions plus an entry point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleDef {
    /// The functions of the module.
    pub functions: Vec<FunctionDef>,
    /// Name of the entry function.
    pub entry: String,
}

impl ModuleDef {
    /// Validates the whole module (names, references, entry point).
    ///
    /// # Errors
    ///
    /// Returns the first error found.
    pub fn validate(&self) -> Result<(), CompileError> {
        self.resolve().map(drop)
    }

    /// Validates the module in linear time and resolves its names: the
    /// name → [`FuncId`] table (ids follow declaration order) and the id of
    /// the entry function.  The table's keys are the functions' own name
    /// `Arc`s, so building it copies no name.
    ///
    /// Errors come in declaration order, as a function-by-function check
    /// reports them: for each function in turn a duplicate of a later
    /// function, then its local references, then its callees; the missing
    /// entry last.
    pub(crate) fn resolve(&self) -> Result<(FunctionIds, FuncId), CompileError> {
        let mut ids =
            FunctionIds::with_capacity_and_hasher(self.functions.len(), Default::default());
        // The first function whose name some later function repeats.
        let mut duplicate: Option<usize> = None;
        for (i, f) in self.functions.iter().enumerate() {
            match ids.entry(Arc::clone(&f.name)) {
                Entry::Occupied(first) => {
                    let first = first.get().0;
                    duplicate = Some(duplicate.map_or(first, |d| d.min(first)));
                }
                Entry::Vacant(slot) => {
                    slot.insert(FuncId(i));
                }
            }
        }
        for (i, f) in self.functions.iter().enumerate() {
            if duplicate == Some(i) {
                return Err(CompileError::DuplicateFunction { name: f.name.to_string() });
            }
            f.validate()?;
            for stmt in &f.body {
                if let Stmt::Call { callee } = stmt {
                    if !ids.contains_key(callee) {
                        return Err(CompileError::UnknownCallee {
                            function: f.name.to_string(),
                            callee: callee.to_string(),
                        });
                    }
                }
            }
        }
        let entry = ids
            .get(self.entry.as_str())
            .copied()
            .ok_or_else(|| CompileError::MissingEntry { entry: self.entry.clone() })?;
        Ok((ids, entry))
    }

    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&FunctionDef> {
        self.functions.iter().find(|f| *f.name == *name)
    }
}

/// Builder for a [`FunctionDef`].
///
/// ```
/// use polycanary_compiler::ir::FunctionBuilder;
///
/// let handler = FunctionBuilder::new("handle_request")
///     .buffer("buf", 64)
///     .scalar("status")
///     .vulnerable_copy("buf")
///     .compute(500)
///     .returns(0)
///     .build();
/// assert!(handler.needs_protection());
/// ```
#[derive(Debug, Clone)]
pub struct FunctionBuilder {
    def: FunctionDef,
}

impl FunctionBuilder {
    /// Starts a function with the given name.
    pub fn new(name: impl Into<Arc<str>>) -> Self {
        FunctionBuilder {
            def: FunctionDef { name: name.into(), locals: Vec::new(), body: Vec::new() },
        }
    }

    fn local_index(&self, name: &str) -> usize {
        self.def
            .locals
            .iter()
            .position(|l| *l.name == *name)
            .unwrap_or_else(|| panic!("local `{name}` was not declared before use"))
    }

    /// Declares a scalar local.
    #[must_use]
    pub fn scalar(mut self, name: impl Into<Arc<str>>) -> Self {
        self.def.locals.push(Local { name: name.into(), kind: LocalKind::Scalar });
        self
    }

    /// Declares a byte buffer local.
    #[must_use]
    pub fn buffer(mut self, name: impl Into<Arc<str>>, size: u32) -> Self {
        self.def.locals.push(Local { name: name.into(), kind: LocalKind::Buffer { size } });
        self
    }

    /// Declares a critical byte buffer local (P-SSP-LV protected).
    #[must_use]
    pub fn critical_buffer(mut self, name: impl Into<Arc<str>>, size: u32) -> Self {
        self.def.locals.push(Local { name: name.into(), kind: LocalKind::CriticalBuffer { size } });
        self
    }

    /// Adds an unbounded (vulnerable) copy of the process input into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf` was not declared.
    #[must_use]
    pub fn vulnerable_copy(mut self, buf: &str) -> Self {
        let local = self.local_index(buf);
        self.def.body.push(Stmt::WriteBuffer { local, source: WriteSource::InputUnbounded });
        self
    }

    /// Adds a bounded (safe) copy of the process input into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf` was not declared.
    #[must_use]
    pub fn safe_copy(mut self, buf: &str) -> Self {
        let local = self.local_index(buf);
        self.def.body.push(Stmt::WriteBuffer { local, source: WriteSource::InputBounded });
        self
    }

    /// Zero-fills the buffer `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf` was not declared.
    #[must_use]
    pub fn zero_fill(mut self, buf: &str) -> Self {
        let local = self.local_index(buf);
        self.def.body.push(Stmt::InitBuffer { local });
        self
    }

    /// Adds a memory-disclosure over-read of `words` words starting at `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf` was not declared.
    #[must_use]
    pub fn leak(mut self, buf: &str, words: u32) -> Self {
        let local = self.local_index(buf);
        self.def.body.push(Stmt::LeakFrame { local, words });
        self
    }

    /// Adds straight-line computation.
    #[must_use]
    pub fn compute(mut self, cycles: u64) -> Self {
        self.def.body.push(Stmt::Compute { cycles });
        self
    }

    /// Adds a call to another function.
    #[must_use]
    pub fn call(mut self, callee: impl Into<Arc<str>>) -> Self {
        self.def.body.push(Stmt::Call { callee: callee.into() });
        self
    }

    /// Sets the return value.
    #[must_use]
    pub fn returns(mut self, value: u64) -> Self {
        self.def.body.push(Stmt::SetReturn { value });
        self
    }

    /// Finishes the function.
    pub fn build(self) -> FunctionDef {
        self.def
    }
}

/// Builder for a [`ModuleDef`].
#[derive(Debug, Clone, Default)]
pub struct ModuleBuilder {
    functions: Vec<FunctionDef>,
    entry: Option<String>,
}

impl ModuleBuilder {
    /// Starts an empty module.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a function.
    #[must_use]
    pub fn function(mut self, def: FunctionDef) -> Self {
        self.functions.push(def);
        self
    }

    /// Sets the entry function (defaults to the first function added).
    #[must_use]
    pub fn entry(mut self, name: impl Into<String>) -> Self {
        self.entry = Some(name.into());
        self
    }

    /// Finishes and validates the module.
    ///
    /// # Errors
    ///
    /// Returns the first validation error.
    pub fn build(self) -> Result<ModuleDef, CompileError> {
        let entry = self
            .entry
            .or_else(|| self.functions.first().map(|f| f.name.to_string()))
            .unwrap_or_default();
        let module = ModuleDef { functions: self.functions, entry };
        module.validate()?;
        Ok(module)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn victim() -> FunctionDef {
        FunctionBuilder::new("victim").buffer("buf", 32).vulnerable_copy("buf").returns(0).build()
    }

    #[test]
    fn protection_policy_requires_a_buffer() {
        let no_buffer = FunctionBuilder::new("leaf").scalar("x").compute(10).build();
        assert!(!no_buffer.needs_protection());
        assert!(victim().needs_protection());
    }

    #[test]
    fn critical_locals_are_listed_in_order() {
        let f = FunctionBuilder::new("f")
            .buffer("a", 16)
            .critical_buffer("b", 16)
            .scalar("c")
            .critical_buffer("d", 8)
            .build();
        assert_eq!(f.critical_locals(), vec![1, 3]);
    }

    #[test]
    fn module_validation_catches_unknown_callee() {
        let module = ModuleBuilder::new()
            .function(FunctionBuilder::new("main").call("missing").build())
            .build();
        assert!(matches!(module, Err(CompileError::UnknownCallee { .. })));
    }

    #[test]
    fn module_validation_catches_duplicate_functions() {
        let module = ModuleBuilder::new().function(victim()).function(victim()).build();
        assert!(matches!(module, Err(CompileError::DuplicateFunction { .. })));
    }

    #[test]
    fn module_validation_catches_missing_entry() {
        let module = ModuleBuilder::new().function(victim()).entry("nope").build();
        assert!(matches!(module, Err(CompileError::MissingEntry { .. })));
    }

    /// The function-by-function check `resolve` must agree with: every
    /// pair of names compared, every callee looked up by a scan.
    fn quadratic_validate(module: &ModuleDef) -> Result<(), CompileError> {
        for (i, f) in module.functions.iter().enumerate() {
            if module.functions.iter().skip(i + 1).any(|g| g.name == f.name) {
                return Err(CompileError::DuplicateFunction { name: f.name.to_string() });
            }
            f.validate()?;
            for stmt in &f.body {
                if let Stmt::Call { callee } = stmt {
                    if !module.functions.iter().any(|g| &g.name == callee) {
                        return Err(CompileError::UnknownCallee {
                            function: f.name.to_string(),
                            callee: callee.to_string(),
                        });
                    }
                }
            }
        }
        if !module.functions.iter().any(|f| *f.name == *module.entry) {
            return Err(CompileError::MissingEntry { entry: module.entry.clone() });
        }
        Ok(())
    }

    fn raw(name: &str, locals: &[LocalKind], body: Vec<Stmt>) -> FunctionDef {
        let locals = locals
            .iter()
            .enumerate()
            .map(|(i, &kind)| Local { name: format!("l{i}").into(), kind })
            .collect();
        FunctionDef { name: name.into(), locals, body }
    }

    #[test]
    fn module_validation_reports_the_first_of_several_defects() {
        let call = |callee: &str| Stmt::Call { callee: callee.into() };
        let scalar = [LocalKind::Scalar];
        // `a` has an unknown local *and* an unknown callee, `b` writes a
        // scalar, `c` is defined twice and the entry does not exist.
        let mut module = ModuleDef {
            functions: vec![
                raw("a", &scalar, vec![call("ghost"), Stmt::LeakFrame { local: 9, words: 1 }]),
                raw("b", &scalar, vec![Stmt::InitBuffer { local: 0 }]),
                raw("c", &[], vec![]),
                raw("d", &scalar, vec![Stmt::InitBuffer { local: 0 }]),
                raw("c", &[], vec![]),
            ],
            entry: "nowhere".into(),
        };
        let expected = [
            CompileError::UnknownLocal { function: "a".into(), index: 9 },
            CompileError::UnknownCallee { function: "a".into(), callee: "ghost".into() },
            CompileError::NotABuffer { function: "b".into(), local: "l0".into() },
            CompileError::DuplicateFunction { name: "c".into() },
            CompileError::NotABuffer { function: "d".into(), local: "l0".into() },
            CompileError::MissingEntry { entry: "nowhere".into() },
        ];
        // Repair the reported defect each round; the next one surfaces.
        for (round, want) in expected.iter().enumerate() {
            assert_eq!(module.validate().as_ref(), Err(want), "round {round}");
            assert_eq!(quadratic_validate(&module).as_ref(), Err(want), "round {round}");
            match round {
                0 | 1 => drop(module.functions[0].body.pop()),
                2 => drop(module.functions[1].body.pop()),
                3 => drop(module.functions.pop()),
                4 => drop(module.functions[3].body.pop()),
                _ => module.entry = "a".into(),
            }
        }
        assert_eq!(module.validate(), Ok(()));
        let (ids, entry) = module.resolve().unwrap();
        assert_eq!(entry, FuncId(0));
        assert_eq!(ids.len(), 4);
        assert_eq!(ids["d"], FuncId(3));
    }

    #[test]
    fn linear_validation_agrees_with_the_pairwise_check_on_random_modules() {
        use polycanary_crypto::{Prng, SplitMix64};
        const NAMES: [&str; 5] = ["a", "b", "c", "d", "ghost"];
        let kinds = [LocalKind::Scalar, LocalKind::Buffer { size: 16 }];
        let (mut seen, mut clean) = (std::collections::BTreeSet::new(), 0);
        for seed in 0..2_000u64 {
            let mut rng = SplitMix64::new(seed);
            let mut pick = |n: usize| (rng.next_u64() % n as u64) as usize;
            let functions = (0..1 + pick(5))
                .map(|_| {
                    let name = NAMES[pick(4)];
                    let locals: Vec<LocalKind> = (0..pick(3)).map(|_| kinds[pick(2)]).collect();
                    let body = (0..pick(4))
                        .map(|_| match pick(8) {
                            0 => Stmt::InitBuffer { local: pick(3) },
                            1 => Stmt::WriteBuffer {
                                local: pick(3),
                                source: WriteSource::InputBounded,
                            },
                            2 => Stmt::LeakFrame { local: pick(3), words: 1 },
                            3 | 4 => Stmt::Call { callee: NAMES[pick(5)].into() },
                            _ => Stmt::Compute { cycles: 1 },
                        })
                        .collect();
                    raw(name, &locals, body)
                })
                .collect();
            let module = ModuleDef { functions, entry: NAMES[pick(5)].into() };
            let want = quadratic_validate(&module);
            match &want {
                Ok(()) => clean += 1,
                Err(err) => {
                    seen.insert(format!("{err:?}").split(' ').next().map(String::from));
                }
            }
            assert_eq!(module.validate(), want, "seed {seed}: {module:?}");
            assert_eq!(module.resolve().map(drop), want, "seed {seed}");
        }
        // Every defect kind, and clean modules too, came up.
        assert_eq!(seen.len(), 5, "{seen:?}");
        assert!(clean > 0);
    }

    #[test]
    fn function_validation_rejects_write_to_scalar() {
        let f = FunctionDef {
            name: "f".into(),
            locals: vec![Local { name: "x".into(), kind: LocalKind::Scalar }],
            body: vec![Stmt::WriteBuffer { local: 0, source: WriteSource::InputUnbounded }],
        };
        assert!(matches!(f.validate(), Err(CompileError::NotABuffer { .. })));
    }

    #[test]
    fn function_validation_rejects_zero_fill_of_scalar() {
        let f = FunctionDef {
            name: "f".into(),
            locals: vec![Local { name: "x".into(), kind: LocalKind::Scalar }],
            body: vec![Stmt::InitBuffer { local: 0 }],
        };
        assert!(matches!(f.validate(), Err(CompileError::NotABuffer { .. })));
    }

    #[test]
    fn function_validation_rejects_unknown_local() {
        let f = FunctionDef {
            name: "f".into(),
            locals: vec![],
            body: vec![Stmt::LeakFrame { local: 3, words: 1 }],
        };
        assert!(matches!(f.validate(), Err(CompileError::UnknownLocal { .. })));
    }

    #[test]
    fn default_entry_is_first_function() {
        let module = ModuleBuilder::new()
            .function(victim())
            .function(FunctionBuilder::new("other").build())
            .build()
            .unwrap();
        assert_eq!(module.entry, "victim");
        assert!(module.function("other").is_some());
        assert!(module.function("missing").is_none());
    }

    #[test]
    #[should_panic(expected = "was not declared")]
    fn builder_panics_on_undeclared_local() {
        let _ = FunctionBuilder::new("f").vulnerable_copy("nope");
    }

    #[test]
    fn local_kind_sizes() {
        assert_eq!(LocalKind::Scalar.size(), 8);
        assert_eq!(LocalKind::Buffer { size: 64 }.size(), 64);
        assert!(LocalKind::CriticalBuffer { size: 8 }.is_critical());
        assert!(!LocalKind::Buffer { size: 8 }.is_critical());
    }
}
