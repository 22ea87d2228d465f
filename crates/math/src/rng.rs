//! Deterministic pseudo-random number generation.
//!
//! The DStress reproduction is a *simulation*: every experiment must be
//! reproducible from a seed so that the benchmark harness regenerates the
//! same series on every run.  This module provides a tiny, dependency-free
//! generator family:
//!
//! * [`SplitMix64`] — the classic 64-bit mixer, used for seeding and for
//!   low-volume randomness.
//! * [`Xoshiro256`] — xoshiro256** for high-volume simulation randomness.
//!
//! Both implement the object-safe [`DetRng`] trait, which is what the rest
//! of the workspace takes as an argument (so that components never care
//! which concrete generator is in use).

/// An object-safe deterministic random number generator.
pub trait DetRng {
    /// Returns the next 64 pseudo-random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns a uniformly distributed value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Rejection sampling on the top of the range to avoid modulo bias.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        // Use the top 53 bits for a uniformly distributed mantissa.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a random boolean.
    fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Fills a byte slice with pseudo-random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

/// The SplitMix64 finalizer (Steele, Lea, Flood 2014): a bijective 64-bit
/// mixer with full avalanche — every input bit flips each output bit with
/// probability ≈ ½.
///
/// This is the mixing step of [`SplitMix64`], exposed on its own for
/// keyed seed derivation (domain-separated sub-seeds, per-gate masks)
/// where a pure function of the inputs is needed instead of a stream.
pub fn splitmix64_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The SplitMix64 generator (Steele, Lea, Flood 2014).
///
/// Small state, excellent for seeding other generators and for components
/// that need only a handful of random values.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
}

impl DetRng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64_finalize(self.state)
    }
}

/// The xoshiro256** generator (Blackman & Vigna 2018).
///
/// Fast, high-quality, 256 bits of state; used for the bulk randomness in
/// the network and MPC simulations.
#[derive(Clone, Debug)]
pub struct Xoshiro256 {
    state: [u64; 4],
}

impl Xoshiro256 {
    /// Creates a generator, expanding the seed with SplitMix64 as
    /// recommended by the xoshiro authors.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Xoshiro256 {
            state: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// The generator's current position as its raw 256-bit state.
    ///
    /// Together with [`Xoshiro256::from_state`] this is the snapshot/
    /// restore pair the engine's round-boundary checkpoints use: a
    /// resumed run continues the *same* random stream from the exact
    /// draw the checkpoint was taken at.
    pub fn state(&self) -> [u64; 4] {
        self.state
    }

    /// Restores a generator from a state captured by
    /// [`Xoshiro256::state`].
    pub fn from_state(state: [u64; 4]) -> Self {
        Xoshiro256 { state }
    }
}

impl DetRng for Xoshiro256 {
    fn next_u64(&mut self) -> u64 {
        let result = self.state[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the published algorithm.
        let mut rng = SplitMix64::new(0);
        let first = rng.next_u64();
        // The first output for seed 0 of SplitMix64 is well known.
        assert_eq!(first, 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn xoshiro_is_deterministic() {
        let mut a = Xoshiro256::new(7);
        let mut b = Xoshiro256::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn state_snapshot_resumes_the_exact_stream() {
        let mut rng = Xoshiro256::new(0xC0FFEE);
        for _ in 0..37 {
            rng.next_u64();
        }
        let snapshot = rng.state();
        let expected: Vec<u64> = (0..64).map(|_| rng.next_u64()).collect();
        let mut restored = Xoshiro256::from_state(snapshot);
        let resumed: Vec<u64> = (0..64).map(|_| restored.next_u64()).collect();
        assert_eq!(expected, resumed);
    }

    #[test]
    fn next_below_is_in_range_and_covers() {
        let mut rng = Xoshiro256::new(11);
        let mut seen = [false; 7];
        for _ in 0..500 {
            let v = rng.next_below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        let mut rng = SplitMix64::new(1);
        rng.next_below(0);
    }

    #[test]
    fn next_f64_is_unit_interval() {
        let mut rng = Xoshiro256::new(3);
        let mut sum = 0.0;
        for _ in 0..1000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        // Mean should be near 0.5.
        let mean = sum / 1000.0;
        assert!((mean - 0.5).abs() < 0.05, "mean was {mean}");
    }

    #[test]
    fn fill_bytes_fills_odd_lengths() {
        let mut rng = SplitMix64::new(5);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn next_bool_is_balanced() {
        let mut rng = Xoshiro256::new(17);
        let trues = (0..2000).filter(|_| rng.next_bool()).count();
        assert!((800..1200).contains(&trues), "trues = {trues}");
    }
}
