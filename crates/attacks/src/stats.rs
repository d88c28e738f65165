//! Attack results.

use polycanary_core::scheme::SchemeKind;

use crate::oracle::RequestOutcome;

/// Result of one attack campaign against one victim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackResult {
    /// Strategy name ("byte-by-byte", "exhaustive", "canary-reuse").
    pub strategy: &'static str,
    /// Scheme protecting the victim.
    pub scheme: SchemeKind,
    /// Whether the attacker achieved an undetected control-flow hijack.
    pub success: bool,
    /// Total oracle queries (requests sent) during the campaign.
    pub trials: u64,
    /// The canary bytes the attacker believed to have recovered, if the
    /// strategy produces them.
    pub recovered_canary: Option<Vec<u8>>,
    /// Outcome of the final exploit attempt, if one was made.
    pub final_outcome: Option<RequestOutcome>,
}

impl AttackResult {
    /// A failed campaign that ran out of budget.
    pub fn exhausted(strategy: &'static str, scheme: SchemeKind, trials: u64) -> Self {
        AttackResult {
            strategy,
            scheme,
            success: false,
            trials,
            recovered_canary: None,
            final_outcome: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhausted_constructor_marks_failure() {
        let r = AttackResult::exhausted("exhaustive", SchemeKind::Pssp, 500);
        assert!(!r.success);
        assert_eq!(r.trials, 500);
        assert!(r.recovered_canary.is_none());
    }
}
