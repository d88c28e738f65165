//! The attacker's view of the victim: an overflow oracle.
//!
//! §II-B: "the byte-by-byte attack essentially treats the parent process as
//! an 'oracle' which tells the attacker whether its guess is correct or
//! not."  The attacker sends a payload, observes whether the worker crashed
//! (connection reset) or kept serving (response received), and nothing more.

/// Observable outcome of one overflow attempt, as visible to a remote
/// attacker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// The worker answered normally — the guessed bytes did not disturb the
    /// canary check.
    Survived,
    /// The worker was killed by the stack protector (`__stack_chk_fail`).
    Detected,
    /// The worker crashed for another reason (e.g. a wild pointer) — from
    /// the network the attacker cannot distinguish this from `Detected`,
    /// but the experiments record it separately.
    Crashed,
    /// Control flow reached the attacker's chosen address: the exploit
    /// succeeded without being detected.
    Hijacked,
}

impl RequestOutcome {
    /// Whether the worker stayed alive (what the remote attacker observes as
    /// "my guess was accepted").
    pub fn survived(self) -> bool {
        matches!(self, RequestOutcome::Survived)
    }

    /// Whether the attempt ended in a successful hijack.
    pub fn hijacked(self) -> bool {
        matches!(self, RequestOutcome::Hijacked)
    }

    /// The variant's name, as `Debug` prints it: the `final_outcome` an
    /// exported run records.
    pub fn label(self) -> &'static str {
        match self {
            RequestOutcome::Survived => "Survived",
            RequestOutcome::Detected => "Detected",
            RequestOutcome::Crashed => "Crashed",
            RequestOutcome::Hijacked => "Hijacked",
        }
    }
}

/// An oracle the attack strategies drive.  [`crate::victim::ForkingServer`]
/// is the canonical implementation; tests provide synthetic oracles.
pub trait OverflowOracle {
    /// Submits one payload and reports the worker's fate.
    fn attempt(&mut self, payload: &[u8]) -> RequestOutcome;

    /// Total number of attempts made so far.
    fn trials(&self) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_classification_helpers() {
        assert!(RequestOutcome::Survived.survived());
        assert!(!RequestOutcome::Detected.survived());
        assert!(RequestOutcome::Hijacked.hijacked());
        assert!(!RequestOutcome::Crashed.hijacked());
    }
}
