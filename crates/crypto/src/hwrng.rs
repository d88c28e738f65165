//! Model of the hardware random number generator (`rdrand`).
//!
//! P-SSP-NT and P-SSP-LV draw a fresh canary in every function prologue with
//! the `rdrand` instruction (Code 7 of the paper).  The important properties
//! for the reproduction are:
//!
//! 1. each invocation yields a value that is independent of previously
//!    exposed canaries (so the byte-by-byte attacker gains nothing), and
//! 2. the instruction is *expensive* relative to a memory copy — the paper
//!    measures roughly 340 extra cycles per prologue (Table V).
//!
//! [`HardwareRng`] captures both: it wraps a deterministic PRNG stream (so
//! experiments stay reproducible) and reports a per-call cycle cost that the
//! VM charges to the executing process.  The real instruction can also
//! transiently fail (carry flag cleared); the model exposes this through an
//! optional failure injection hook used by robustness tests.

use crate::cost::RDRAND_CYCLES;
use crate::error::CryptoError;
use crate::prng::{Prng, Xoshiro256StarStar};

/// Simulated `rdrand` device.
///
/// ```
/// use polycanary_crypto::hwrng::HardwareRng;
///
/// let mut hw = HardwareRng::new(42);
/// let (value, cycles) = hw.rdrand().expect("entropy available");
/// assert_eq!(cycles, polycanary_crypto::cost::RDRAND_CYCLES);
/// let (value2, _) = hw.rdrand().expect("entropy available");
/// assert_ne!(value, value2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HardwareRng {
    stream: Xoshiro256StarStar,
    /// When non-zero, every `fail_every`-th call reports
    /// [`CryptoError::EntropyUnavailable`], modelling transient `rdrand`
    /// underflow.  Zero disables failure injection.
    fail_every: u64,
    calls: u64,
}

impl HardwareRng {
    /// Creates a hardware RNG model seeded deterministically.
    pub fn new(seed: u64) -> Self {
        HardwareRng {
            stream: Xoshiro256StarStar::new(seed ^ 0x5DEE_CE66_D5A1_D5A1),
            fail_every: 0,
            calls: 0,
        }
    }

    /// Enables transient-failure injection: every `n`-th call fails.
    ///
    /// Passing `0` disables injection.  Real `rdrand` callers must retry on
    /// failure; the VM's `Rdrand` instruction implements that retry loop and
    /// this hook lets tests exercise it.
    pub fn with_failure_every(mut self, n: u64) -> Self {
        self.fail_every = n;
        self
    }

    /// Executes one `rdrand`: returns the random word and the cycle cost.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::EntropyUnavailable`] when failure injection is
    /// enabled and this call was selected to fail.
    pub fn rdrand(&mut self) -> Result<(u64, u64), CryptoError> {
        self.calls += 1;
        if self.fail_every != 0 && self.calls.is_multiple_of(self.fail_every) {
            return Err(CryptoError::EntropyUnavailable);
        }
        Ok((self.stream.next_u64(), RDRAND_CYCLES))
    }

    /// Executes `rdrand` retrying on transient failure, as real prologues do.
    ///
    /// Returns the random word and the *total* cycle cost of all attempts.
    pub fn rdrand_retrying(&mut self) -> (u64, u64) {
        let mut total = 0u64;
        loop {
            match self.rdrand() {
                Ok((value, cycles)) => return (value, total + cycles),
                Err(_) => total += RDRAND_CYCLES,
            }
        }
    }

    /// Number of `rdrand` invocations performed so far (including failures).
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Creates an independent per-process stream, used when a process is
    /// forked so parent and child draw unrelated canaries.
    pub fn split(&mut self) -> Self {
        HardwareRng { stream: self.stream.split(), fail_every: self.fail_every, calls: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rdrand_reports_documented_cost() {
        let mut hw = HardwareRng::new(7);
        let (_, cycles) = hw.rdrand().unwrap();
        assert_eq!(cycles, RDRAND_CYCLES);
    }

    #[test]
    fn values_are_fresh_each_call() {
        let mut hw = HardwareRng::new(7);
        let a = hw.rdrand().unwrap().0;
        let b = hw.rdrand().unwrap().0;
        let c = hw.rdrand().unwrap().0;
        assert!(a != b && b != c && a != c);
    }

    #[test]
    fn failure_injection_fails_on_schedule() {
        let mut hw = HardwareRng::new(7).with_failure_every(3);
        assert!(hw.rdrand().is_ok());
        assert!(hw.rdrand().is_ok());
        assert_eq!(hw.rdrand().unwrap_err(), CryptoError::EntropyUnavailable);
        assert!(hw.rdrand().is_ok());
    }

    #[test]
    fn retrying_absorbs_failures_and_charges_cycles() {
        let mut hw = HardwareRng::new(7).with_failure_every(2);
        // First call succeeds (1 attempt), second call hits a failure then
        // succeeds (2 attempts).
        let (_, c1) = hw.rdrand_retrying();
        assert_eq!(c1, RDRAND_CYCLES);
        let (_, c2) = hw.rdrand_retrying();
        assert_eq!(c2, 2 * RDRAND_CYCLES);
    }

    #[test]
    fn split_streams_do_not_collide() {
        let mut parent = HardwareRng::new(11);
        let mut child = parent.split();
        for _ in 0..64 {
            assert_ne!(parent.rdrand().unwrap().0, child.rdrand().unwrap().0);
        }
    }

    #[test]
    fn call_counter_tracks_invocations() {
        let mut hw = HardwareRng::new(1);
        for _ in 0..5 {
            let _ = hw.rdrand();
        }
        assert_eq!(hw.calls(), 5);
    }

    #[test]
    fn deterministic_across_identical_seeds() {
        let mut a = HardwareRng::new(99);
        let mut b = HardwareRng::new(99);
        for _ in 0..16 {
            assert_eq!(a.rdrand().unwrap().0, b.rdrand().unwrap().0);
        }
    }
}
