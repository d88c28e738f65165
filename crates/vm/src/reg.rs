//! General-purpose registers of the simulated machine.

use std::fmt;

/// The sixteen general-purpose 64-bit registers of x86-64.
///
/// The simulated instruction set only needs the registers that appear in the
/// paper's prologue/epilogue listings (`rax`, `rbp`, `rsp`, `rdx`, `rdi`,
/// `rcx`, `r12`, `r13`), but the full set is modelled so workload bodies and
/// future extensions are not artificially constrained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Reg {
    Rax,
    Rbx,
    Rcx,
    Rdx,
    Rsi,
    Rdi,
    Rbp,
    Rsp,
    R8,
    R9,
    R10,
    R11,
    R12,
    R13,
    R14,
    R15,
}

impl Reg {
    /// All registers, in encoding order.
    pub const ALL: [Reg; 16] = [
        Reg::Rax,
        Reg::Rbx,
        Reg::Rcx,
        Reg::Rdx,
        Reg::Rsi,
        Reg::Rdi,
        Reg::Rbp,
        Reg::Rsp,
        Reg::R8,
        Reg::R9,
        Reg::R10,
        Reg::R11,
        Reg::R12,
        Reg::R13,
        Reg::R14,
        Reg::R15,
    ];

    /// Index of the register in the register file.
    ///
    /// The discriminant *is* the encoding-order index; the
    /// `all_indexes_are_unique_and_dense` test pins the correspondence so
    /// reordering [`Reg::ALL`] without reordering the enum cannot slip by.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether the register needs a REX prefix byte in its encoding
    /// (`r8`–`r15`), which makes `push`/`pop` one byte longer.
    pub fn is_extended(self) -> bool {
        matches!(
            self,
            Reg::R8 | Reg::R9 | Reg::R10 | Reg::R11 | Reg::R12 | Reg::R13 | Reg::R14 | Reg::R15
        )
    }

    /// Whether the register is callee-saved under the System V AMD64 ABI.
    ///
    /// The P-SSP-OWF extension parks its AES key in `r12`/`r13` precisely
    /// because they are callee-saved (§V-E3 of the paper).
    pub fn is_callee_saved(self) -> bool {
        matches!(self, Reg::Rbx | Reg::Rbp | Reg::R12 | Reg::R13 | Reg::R14 | Reg::R15)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Reg::Rax => "rax",
            Reg::Rbx => "rbx",
            Reg::Rcx => "rcx",
            Reg::Rdx => "rdx",
            Reg::Rsi => "rsi",
            Reg::Rdi => "rdi",
            Reg::Rbp => "rbp",
            Reg::Rsp => "rsp",
            Reg::R8 => "r8",
            Reg::R9 => "r9",
            Reg::R10 => "r10",
            Reg::R11 => "r11",
            Reg::R12 => "r12",
            Reg::R13 => "r13",
            Reg::R14 => "r14",
            Reg::R15 => "r15",
        };
        f.write_str(name)
    }
}

/// A set of registers: bit [`Reg::index`] stands for the register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegSet(pub u16);

impl RegSet {
    /// No register.
    pub const EMPTY: RegSet = RegSet(0);
    /// Every register (what a call may read and clobber).
    pub const ALL: RegSet = RegSet(u16::MAX);

    /// The set holding `reg` alone.
    pub const fn of(reg: Reg) -> RegSet {
        RegSet(1 << reg as u16)
    }

    /// The registers in either set.
    pub const fn union(self, other: RegSet) -> RegSet {
        RegSet(self.0 | other.0)
    }

    /// Whether `reg` is in the set.
    pub fn contains(self, reg: Reg) -> bool {
        self.0 & RegSet::of(reg).0 != 0
    }

    /// Removes `reg` from the set.
    pub fn remove(&mut self, reg: Reg) {
        self.0 &= !RegSet::of(reg).0;
    }
}

/// The register file of one executing CPU context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterFile {
    values: [u64; 16],
}

impl RegisterFile {
    /// Creates a register file with all registers zeroed.
    pub fn new() -> Self {
        RegisterFile { values: [0; 16] }
    }

    /// Reads a register.
    #[inline]
    pub fn read(&self, reg: Reg) -> u64 {
        self.values[reg.index()]
    }

    /// Writes a register.
    #[inline]
    pub fn write(&mut self, reg: Reg, value: u64) {
        self.values[reg.index()] = value;
    }

    /// Reads the low 32 bits of a register.
    pub fn read32(&self, reg: Reg) -> u32 {
        self.values[reg.index()] as u32
    }

    /// Writes the low 32 bits of a register, zero-extending as x86-64 does.
    pub fn write32(&mut self, reg: Reg, value: u32) {
        self.values[reg.index()] = value as u64;
    }
}

impl Default for RegisterFile {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut rf = RegisterFile::new();
        for (i, reg) in Reg::ALL.iter().enumerate() {
            rf.write(*reg, i as u64 * 1000 + 7);
        }
        for (i, reg) in Reg::ALL.iter().enumerate() {
            assert_eq!(rf.read(*reg), i as u64 * 1000 + 7);
        }
    }

    #[test]
    fn write32_zero_extends() {
        let mut rf = RegisterFile::new();
        rf.write(Reg::Rax, u64::MAX);
        rf.write32(Reg::Rax, 0x1234_5678);
        assert_eq!(rf.read(Reg::Rax), 0x1234_5678);
        assert_eq!(rf.read32(Reg::Rax), 0x1234_5678);
    }

    #[test]
    fn extended_registers_flagged() {
        assert!(Reg::R12.is_extended());
        assert!(!Reg::Rax.is_extended());
    }

    #[test]
    fn owf_key_registers_are_callee_saved() {
        assert!(Reg::R12.is_callee_saved());
        assert!(Reg::R13.is_callee_saved());
        assert!(!Reg::Rdi.is_callee_saved());
    }

    #[test]
    fn display_matches_att_names() {
        assert_eq!(Reg::Rbp.to_string(), "rbp");
        assert_eq!(Reg::R13.to_string(), "r13");
    }

    #[test]
    fn all_indexes_are_unique_and_dense() {
        let mut seen = [false; 16];
        for reg in Reg::ALL {
            assert!(!seen[reg.index()]);
            seen[reg.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
