//! Security analysis helpers: attacker effort estimates (§III-C) and the
//! statistical machinery behind the Theorem-1 experiments.

use crate::scheme::{Granularity, SchemeProperties};

/// Expected number of oracle queries for the *byte-by-byte* attack against a
/// scheme whose canary survives across worker forks.
///
/// For a `bytes`-byte canary the attacker guesses one byte at a time, needing
/// on average 2⁷ = 128 trials per byte, i.e. `bytes * 128` total — the
/// paper's "8 · 2⁷ = 1024 trials" figure for 64-bit SSP (§II-B).
pub fn expected_byte_by_byte_trials(bytes: u32) -> u64 {
    u64::from(bytes) * 128
}

/// Expected number of oracle queries for a whole-word brute-force guess of a
/// canary with `entropy_bits` of entropy (2^(n-1) on average).
///
/// Saturates at `u64::MAX` for entropies of 64 bits or more.
pub fn expected_exhaustive_trials(entropy_bits: u32) -> u64 {
    if entropy_bits == 0 {
        1
    } else if entropy_bits >= 64 {
        u64::MAX
    } else {
        1u64 << (entropy_bits - 1)
    }
}

/// Expected attack effort against a scheme, derived from its properties.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackEffort {
    /// Expected oracle queries for the byte-by-byte strategy.
    pub byte_by_byte_trials: u64,
    /// Expected oracle queries for exhaustive guessing.
    pub exhaustive_trials: u64,
    /// Whether the byte-by-byte strategy accumulates information at all.
    pub byte_by_byte_accumulates: bool,
}

/// Computes the expected attack effort for a scheme.
///
/// The byte-by-byte strategy only accumulates when the same stack canary is
/// reused across attempts — i.e. when the scheme neither re-randomizes per
/// fork nor per call.  When it does re-randomize, every attempt faces a fresh
/// canary and the attacker is reduced to exhaustive guessing of the full
/// word.
pub fn attack_effort(props: &SchemeProperties) -> AttackEffort {
    let accumulates =
        props.granularity == Granularity::Never && props.stack_canary_entropy_bits > 0;
    let bytes = props.stack_canary_entropy_bits / 8;
    AttackEffort {
        byte_by_byte_trials: if props.stack_canary_entropy_bits == 0 {
            0
        } else if accumulates {
            expected_byte_by_byte_trials(bytes)
        } else {
            // No accumulation: the best "byte-by-byte" can do is what
            // exhaustive search does.
            expected_exhaustive_trials(props.stack_canary_entropy_bits)
        },
        exhaustive_trials: expected_exhaustive_trials(props.stack_canary_entropy_bits),
        byte_by_byte_accumulates: accumulates,
    }
}

/// The critical value of [`theorem1_independence_test`]: the 99.9th
/// percentile of χ² with 64 degrees of freedom, one per bit tested.  A
/// uniform `C1` exceeds it with probability 0.001.
const THEOREM1_CRITICAL_VALUE: f64 = 104.716;

/// Result of the empirical Theorem-1 independence test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndependenceTest {
    /// Number of observed `C1` samples.
    pub samples: usize,
    /// Chi-square statistic of the per-bit one-frequencies against the
    /// uniform expectation.
    pub chi_square: f64,
    /// Degrees of freedom (number of bits tested).
    pub degrees_of_freedom: usize,
    /// Whether the statistic is below the 99.9 % critical value, i.e. the
    /// observations are consistent with `C1` being uniform and therefore
    /// carrying no information about `C`.
    pub consistent_with_uniform: bool,
}

impl IndependenceTest {
    /// The self-describing record form of this result, for JSON/CSV export.
    pub fn record(&self) -> crate::record::Record {
        crate::record::Record::new()
            .field("samples", self.samples)
            .field("chi_square", self.chi_square)
            .field("degrees_of_freedom", self.degrees_of_freedom)
            .field("consistent_with_uniform", self.consistent_with_uniform)
    }
}

/// Tests whether a set of observed `C1` values (as leaked to the byte-by-byte
/// attacker across forks) is consistent with the uniform distribution, which
/// is the empirical counterpart of Theorem 1: `Pr(C) = Pr(C | C1¹ … C1ⁿ)`.
pub fn theorem1_independence_test(observed_c1: &[u64]) -> IndependenceTest {
    let n = observed_c1.len();
    let bits = 64usize;
    let mut ones = vec![0u64; bits];
    for value in observed_c1 {
        for (bit, count) in ones.iter_mut().enumerate() {
            *count += (value >> bit) & 1;
        }
    }
    let expected = n as f64 / 2.0;
    let chi_square: f64 = if n == 0 {
        0.0
    } else {
        ones.iter()
            .map(|&c| {
                let d = c as f64 - expected;
                // Each bit is a Bernoulli(1/2); chi-square with both cells.
                2.0 * d * d / expected
            })
            .sum()
    };
    IndependenceTest {
        samples: n,
        chi_square,
        degrees_of_freedom: bits,
        consistent_with_uniform: n == 0 || chi_square < THEOREM1_CRITICAL_VALUE,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::SchemeKind;
    use polycanary_crypto::{Prng, SplitMix64};

    /// Upper tail `Pr(X > x)` of χ² with an even number `df` of degrees of
    /// freedom, in closed form: `e^(−x/2) Σ_{i<df/2} (x/2)^i / i!`.
    fn chi_square_even_df_tail(x: f64, df: u32) -> f64 {
        let half = x / 2.0;
        let (mut term, mut sum) = (1.0, 0.0);
        for i in 0..df / 2 {
            sum += term;
            term *= half / f64::from(i + 1);
        }
        (-half).exp() * sum
    }

    #[test]
    fn theorem1_critical_value_is_the_999th_percentile_of_chi_square_64() {
        let tail = chi_square_even_df_tail(THEOREM1_CRITICAL_VALUE, 64);
        assert!((tail - 0.001).abs() < 1e-5, "Pr(χ²(64) > critical) = {tail}");
    }

    #[test]
    fn theorem1_statistic_follows_chi_square_64_over_many_seeds() {
        // Under Theorem 1 every seed's statistic is a χ²(64) draw, so the
        // share above its 90th percentile is Binomial(SEEDS, 0.10) / SEEDS:
        // within 3.29 σ of 0.10 with probability 0.999.
        const SEEDS: u64 = 2_000;
        const SAMPLES: usize = 256;
        let p90 = 78.8596;
        assert!((chi_square_even_df_tail(p90, 64) - 0.10).abs() < 1e-5);
        let mut above = 0u64;
        for seed in 0..SEEDS {
            let mut rng = SplitMix64::new(0x7E01_0000 + seed);
            let c = rng.next_u64();
            let observed: Vec<u64> =
                (0..SAMPLES).map(|_| crate::rerandomize::re_randomize(c, &mut rng).c1).collect();
            above += u64::from(theorem1_independence_test(&observed).chi_square > p90);
        }
        let share = above as f64 / SEEDS as f64;
        let sigma = (0.10 * 0.90 / SEEDS as f64).sqrt();
        assert!(
            (share - 0.10).abs() <= 3.29 * sigma,
            "share above the 90th percentile {share:.4}, expected 0.10 ± {:.4}",
            3.29 * sigma
        );
    }

    #[test]
    fn byte_by_byte_expectation_matches_paper() {
        // §II-B: "the attacker needs to make 8 * 2^7 = 1024 trials".
        assert_eq!(expected_byte_by_byte_trials(8), 1024);
        assert_eq!(expected_byte_by_byte_trials(4), 512);
    }

    #[test]
    fn exhaustive_expectation_scales_with_entropy() {
        assert_eq!(expected_exhaustive_trials(0), 1);
        assert_eq!(expected_exhaustive_trials(8), 128);
        assert_eq!(expected_exhaustive_trials(32), 1 << 31);
        assert_eq!(expected_exhaustive_trials(64), u64::MAX);
        assert_eq!(expected_exhaustive_trials(128), u64::MAX);
    }

    #[test]
    fn ssp_accumulates_but_pssp_does_not() {
        let ssp = attack_effort(&SchemeKind::Ssp.scheme().properties());
        assert!(ssp.byte_by_byte_accumulates);
        assert_eq!(ssp.byte_by_byte_trials, 1024);

        let pssp = attack_effort(&SchemeKind::Pssp.scheme().properties());
        assert!(!pssp.byte_by_byte_accumulates);
        assert_eq!(pssp.byte_by_byte_trials, u64::MAX);
    }

    #[test]
    fn bin32_variant_is_weaker_but_still_beats_byte_by_byte_on_ssp() {
        // §V-C caveat: the 32-bit canary still forces ≥ 2^31 expected trials,
        // far above the 1024 the byte-by-byte attack needs against SSP.
        let bin32 = attack_effort(&SchemeKind::PsspBin32.scheme().properties());
        assert!(!bin32.byte_by_byte_accumulates);
        assert!(bin32.byte_by_byte_trials > 1024 * 64);
        assert_eq!(bin32.exhaustive_trials, 1 << 31);
    }

    #[test]
    fn native_has_no_canary_to_guess() {
        let native = attack_effort(&SchemeKind::Native.scheme().properties());
        assert_eq!(native.byte_by_byte_trials, 0);
        assert_eq!(native.exhaustive_trials, 1);
    }

    #[test]
    fn theorem1_test_accepts_genuine_rerandomized_output() {
        let mut rng = SplitMix64::new(99);
        let c = 0x1234_5678_9ABC_DEF0u64;
        let observed: Vec<u64> =
            (0..2000).map(|_| crate::rerandomize::re_randomize(c, &mut rng).c1).collect();
        let result = theorem1_independence_test(&observed);
        assert!(result.consistent_with_uniform, "chi2 = {}", result.chi_square);
        assert_eq!(result.samples, 2000);
    }

    #[test]
    fn theorem1_test_rejects_constant_canary_reuse() {
        // SSP's behaviour: every observation is the same canary value; that
        // is maximally informative and the test must flag it.
        let observed = vec![0xDEAD_BEEF_DEAD_BEEFu64; 2000];
        let result = theorem1_independence_test(&observed);
        assert!(!result.consistent_with_uniform);
    }

    #[test]
    fn theorem1_test_handles_empty_input() {
        let result = theorem1_independence_test(&[]);
        assert!(result.consistent_with_uniform);
        assert_eq!(result.samples, 0);
    }

    #[test]
    fn table1_rows_match_paper() {
        // Table I's qualitative columns: (BROP prevention, correctness).
        let columns = |kind: SchemeKind| {
            let props = kind.scheme().properties();
            (props.prevents_byte_by_byte, props.correct_across_fork)
        };
        // SSP: BROP No, correctness Yes.
        assert_eq!(columns(SchemeKind::Ssp), (false, true));
        // RAF SSP: BROP Yes, correctness No.
        assert_eq!(columns(SchemeKind::RafSsp), (true, false));
        // DynaGuard, DCR, P-SSP: both Yes.
        for kind in [SchemeKind::DynaGuard, SchemeKind::Dcr, SchemeKind::Pssp] {
            assert_eq!(columns(kind), (true, true), "{kind:?}");
        }
    }
}
