//! Deterministic pseudo random number generators.
//!
//! Every source of randomness in the polycanary workspace flows through the
//! [`Prng`] trait so that experiments are reproducible from a single seed.
//! Two generators are provided:
//!
//! * [`SplitMix64`] — a tiny, fast generator mainly used for seeding and for
//!   modelling cheap randomness (e.g. the kernel picking the initial TLS
//!   canary at program load).
//! * [`Xoshiro256StarStar`] — a higher-quality generator used for workload
//!   generation and attacker strategies.
//!
//! Neither generator is cryptographically secure; the *security* of the
//! schemes under test never depends on the quality of these generators
//! because the adversary in the paper's model cannot read memory.  Where the
//! paper relies on hardware entropy (`rdrand`) the VM routes requests through
//! [`crate::hwrng::HardwareRng`], which wraps one of these generators while
//! accounting for the instruction's latency.

/// A deterministic, seedable source of 64-bit random values.
///
/// The trait is object-safe so schemes can hold a `Box<dyn Prng>`.
pub trait Prng: Send {
    /// Returns the next 64-bit value.
    fn next_u64(&mut self) -> u64;

    /// Returns the next value in `[0, bound)`.
    ///
    /// Uses rejection sampling to avoid modulo bias; `bound` must be
    /// non-zero.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Returns a random byte.
    fn next_byte(&mut self) -> u8 {
        (self.next_u64() & 0xff) as u8
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    /// Returns `true` with probability `numerator / denominator`.
    ///
    /// # Panics
    ///
    /// Panics if `denominator` is zero.
    fn next_bool_ratio(&mut self, numerator: u64, denominator: u64) -> bool {
        assert!(denominator > 0, "denominator must be non-zero");
        self.next_below(denominator) < numerator
    }
}

/// The SplitMix64 generator (Steele, Lea & Flood 2014).
///
/// Mainly used for seeding other generators and for one-off random words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.  Any seed, including zero, is valid.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
}

impl Prng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The xoshiro256** generator (Blackman & Vigna 2018).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates a generator by expanding `seed` through SplitMix64, following
    /// the authors' recommendation.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in s.iter_mut() {
            *slot = sm.next_u64();
        }
        // An all-zero state is the single invalid state; the SplitMix64
        // expansion of any seed cannot produce it, but guard regardless.
        if s.iter().all(|&x| x == 0) {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256StarStar { s }
    }

    /// Jump function equivalent to 2^128 calls of `next_u64`, useful for
    /// splitting one seed into independent per-process streams.
    ///
    /// The jump is linear over GF(2): the jumped state is the XOR of the
    /// jumped images of the state's set bits.  A compile-time table holds those
    /// images pre-combined per nibble, so a jump is 64 table lookups instead
    /// of the reference algorithm's 256 dependent generator steps.
    pub fn jump(&mut self) {
        let mut acc = [0u64; 4];
        for (nibble, images) in JUMP_TABLE.iter().enumerate() {
            let bits = (self.s[nibble / 16] >> ((nibble % 16) * 4)) & 0xF;
            let image = &images[bits as usize];
            acc[0] ^= image[0];
            acc[1] ^= image[1];
            acc[2] ^= image[2];
            acc[3] ^= image[3];
        }
        self.s = acc;
    }

    /// The authors' reference jump: 256 generator steps, accumulating the
    /// state at every set bit of the jump polynomial.  The oracle the
    /// table-driven [`Xoshiro256StarStar::jump`] is tested against.
    #[cfg(test)]
    fn jump_reference(&mut self) {
        let mut s0 = 0u64;
        let mut s1 = 0u64;
        let mut s2 = 0u64;
        let mut s3 = 0u64;
        for jump_word in JUMP_POLY {
            for bit in 0..64 {
                if (jump_word & (1u64 << bit)) != 0 {
                    s0 ^= self.s[0];
                    s1 ^= self.s[1];
                    s2 ^= self.s[2];
                    s3 ^= self.s[3];
                }
                let _ = self.next_u64();
            }
        }
        self.s = [s0, s1, s2, s3];
    }

    /// Creates an independent stream for a child process: the child keeps the
    /// current state while the parent jumps ahead by 2^128 steps, so repeated
    /// splits from the same parent all yield pairwise-distinct streams.
    pub fn split(&mut self) -> Self {
        let child = self.clone();
        self.jump();
        child
    }
}

impl Prng for Xoshiro256StarStar {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        advance(&mut self.s);
        result
    }
}

/// The xoshiro256 state transition (one `next_u64` without the output).
#[inline]
const fn advance(s: &mut [u64; 4]) {
    let t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3].rotate_left(45);
}

/// The authors' jump polynomial for 2^128 steps of xoshiro256.
const JUMP_POLY: [u64; 4] =
    [0x180E_C6D3_3CFD_0ABA, 0xD5A6_1266_F0C9_392C, 0xA958_2618_E03F_C9AA, 0x39AB_DC45_29B1_661C];

/// The jumped image of state `s`, by the reference algorithm (for building
/// [`JUMP_TABLE`] at compile time).
const fn jumped(mut s: [u64; 4]) -> [u64; 4] {
    let mut acc = [0u64; 4];
    let mut word = 0;
    while word < 4 {
        let mut bit = 0;
        while bit < 64 {
            if JUMP_POLY[word] & (1u64 << bit) != 0 {
                acc[0] ^= s[0];
                acc[1] ^= s[1];
                acc[2] ^= s[2];
                acc[3] ^= s[3];
            }
            advance(&mut s);
            bit += 1;
        }
        word += 1;
    }
    acc
}

/// `JUMP_TABLE[n][v]`: the jumped image of the state whose only set bits
/// are the value `v` in nibble `n` (state bits `4n..4n+4`, word `n / 16`).
/// 64 nibbles x 16 values x 4 words = 32 KiB, built at compile time from the
/// 256 single-bit images by XOR.
static JUMP_TABLE: [[[u64; 4]; 16]; 64] = {
    let mut table = [[[0u64; 4]; 16]; 64];
    let mut nibble = 0;
    while nibble < 64 {
        let mut singles = [[0u64; 4]; 4];
        let mut k = 0;
        while k < 4 {
            let bit = nibble * 4 + k;
            let mut basis = [0u64; 4];
            basis[bit / 64] = 1u64 << (bit % 64);
            singles[k] = jumped(basis);
            k += 1;
        }
        let mut value = 1usize;
        while value < 16 {
            let single = singles[value.trailing_zeros() as usize];
            let rest = table[nibble][value & (value - 1)];
            table[nibble][value] = [
                rest[0] ^ single[0],
                rest[1] ^ single[1],
                rest[2] ^ single[2],
                rest[3] ^ single[3],
            ];
            value += 1;
        }
        nibble += 1;
    }
    table
};

impl Prng for Box<dyn Prng> {
    fn next_u64(&mut self) -> u64 {
        self.as_mut().next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference output for seed 0 from the public-domain reference code.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(rng.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Xoshiro256StarStar::new(1234);
        let mut b = Xoshiro256StarStar::new(1234);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xoshiro256StarStar::new(1);
        let mut b = Xoshiro256StarStar::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams for different seeds should be unrelated");
    }

    #[test]
    fn split_streams_are_independent() {
        let mut parent = Xoshiro256StarStar::new(77);
        let mut child = parent.split();
        let overlap = (0..128).filter(|_| parent.next_u64() == child.next_u64()).count();
        assert_eq!(overlap, 0);
    }

    #[test]
    fn table_jump_matches_the_reference_loop() {
        let mut meta = SplitMix64::new(0x0001_0B5E);
        for i in 0..10_000 {
            let s = [meta.next_u64(), meta.next_u64(), meta.next_u64(), meta.next_u64()];
            let mut table = Xoshiro256StarStar { s };
            let mut reference = table.clone();
            table.jump();
            reference.jump_reference();
            assert_eq!(table, reference, "state #{i}: {s:x?}");
        }
        // Single-bit states exercise every table row in isolation.
        for bit in 0..256 {
            let mut s = [0u64; 4];
            s[bit / 64] = 1 << (bit % 64);
            let mut table = Xoshiro256StarStar { s };
            let mut reference = table.clone();
            table.jump();
            reference.jump_reference();
            assert_eq!(table, reference, "bit {bit}");
        }
    }

    #[test]
    fn repeated_splits_give_pairwise_distinct_streams() {
        let mut parent = Xoshiro256StarStar::new(0x5B117);
        let mut heads: Vec<[u64; 4]> = (0..64)
            .map(|_| {
                let mut child = parent.split();
                [child.next_u64(), child.next_u64(), child.next_u64(), child.next_u64()]
            })
            .collect();
        heads.push([parent.next_u64(), parent.next_u64(), parent.next_u64(), parent.next_u64()]);
        let n = heads.len();
        heads.sort_unstable();
        heads.dedup();
        assert_eq!(heads.len(), n, "every split stream (and the parent) starts differently");
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = SplitMix64::new(99);
        for bound in [1u64, 2, 3, 7, 255, 256, 1000, 1 << 33] {
            for _ in 0..200 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    #[should_panic(expected = "bound must be non-zero")]
    fn next_below_zero_panics() {
        let mut rng = SplitMix64::new(1);
        let _ = rng.next_below(0);
    }

    #[test]
    fn fill_bytes_fills_every_byte_eventually() {
        let mut rng = SplitMix64::new(5);
        let mut buf = [0u8; 37];
        rng.fill_bytes(&mut buf);
        // With 37 random bytes the chance of all being zero is negligible.
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn boxed_prng_is_usable() {
        let mut rng: Box<dyn Prng> = Box::new(SplitMix64::new(3));
        let a = rng.next_u64();
        let b = rng.next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn byte_distribution_roughly_uniform() {
        let mut rng = Xoshiro256StarStar::new(2024);
        let mut counts = [0u32; 256];
        let n = 256 * 200;
        for _ in 0..n {
            counts[rng.next_byte() as usize] += 1;
        }
        let expected = (n / 256) as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        // 255 degrees of freedom; 99.9th percentile is ~330.
        assert!(chi2 < 360.0, "chi-square too large: {chi2}");
    }

    // Pseudo-random property checks (crates.io is unavailable, so these are
    // driven by SplitMix64 itself instead of proptest).

    #[test]
    fn next_below_always_in_range() {
        let mut meta = SplitMix64::new(0xFEED);
        for _ in 0..512 {
            let seed = meta.next_u64();
            let bound = meta.next_u64().max(1);
            let mut rng = SplitMix64::new(seed);
            assert!(rng.next_below(bound) < bound, "seed {seed} bound {bound}");
        }
    }

    #[test]
    fn ratio_bool_is_total() {
        let mut meta = SplitMix64::new(0xF00D);
        for _ in 0..512 {
            let seed = meta.next_u64();
            let num = meta.next_u64() % 100;
            let den = 1 + meta.next_u64() % 99;
            let mut rng = SplitMix64::new(seed);
            let _ = rng.next_bool_ratio(num.min(den), den);
        }
    }
}
