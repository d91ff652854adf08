//! The generator's seeded RNG: a splitmix64 stream, dependency-free and
//! byte-stable across platforms so a `(seed, config)` pair always
//! synthesizes the exact same candidate sequence.
//!
//! All draws happen on the single-threaded generation path, which is what
//! makes whole generation runs reproducible at any `DFT_THREADS`.

/// A splitmix64 generator (Steele, Lea & Flood's `SplitMix64`), the same
/// scrambler `tdf_sim::FaultRng` seeds from. Unlike a raw xorshift it has
/// no weak all-zero state, so any seed — including 0 — is fine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenRng {
    state: u64,
}

impl GenRng {
    /// Seeds the stream; every seed (including 0) yields a full-period
    /// sequence.
    pub fn new(seed: u64) -> GenRng {
        GenRng { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform draw in `[lo, hi]` (degenerates to `lo` when `hi <= lo`).
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            lo
        } else {
            lo + (hi - lo) * self.next_f64()
        }
    }

    /// Uniform index draw in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index() needs a non-empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = GenRng::new(42);
        let mut b = GenRng::new(42);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut c = GenRng::new(43);
        assert_ne!(xs, (0..64).map(|_| c.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn zero_seed_is_healthy() {
        let mut r = GenRng::new(0);
        let draws: Vec<u64> = (0..16).map(|_| r.next_u64()).collect();
        assert!(draws.iter().any(|&x| x != 0));
        // splitmix64's known first output for seed 0.
        assert_eq!(draws[0], 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn ranges_are_bounded() {
        let mut r = GenRng::new(7);
        for _ in 0..1000 {
            let v = r.range_f64(-2.0, 3.0);
            assert!((-2.0..=3.0).contains(&v));
            assert!(r.index(5) < 5);
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
        assert_eq!(r.range_f64(1.0, 1.0), 1.0);
        assert_eq!(r.range_f64(2.0, -2.0), 2.0, "inverted range degenerates");
    }

    #[test]
    fn chance_extremes() {
        let mut r = GenRng::new(9);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }
}
