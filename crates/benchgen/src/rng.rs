//! Deterministic pseudo-random number generation (SplitMix64): the
//! benchmark suite must be reproducible bit-for-bit across runs and
//! platforms, so a tiny self-contained generator beats an external
//! dependency.

/// SplitMix64 generator.
///
/// # Examples
///
/// ```
/// use eco_benchgen::SplitMix64;
///
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator with the given seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        eco_aig::splitmix64(&mut self.state)
    }

    /// Uniform value in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "bound must be positive");
        (self.next_u64() % bound as u64) as usize
    }

    /// Uniform boolean.
    pub fn flip(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// `true` with probability `percent / 100`.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.next_u64() % 100 < percent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = SplitMix64::new(1);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn flip_is_roughly_balanced() {
        let mut r = SplitMix64::new(3);
        let heads = (0..10_000).filter(|_| r.flip()).count();
        assert!((4_000..6_000).contains(&heads), "heads = {heads}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(9);
        assert!((0..100).all(|_| !r.chance(0)));
        assert!((0..100).all(|_| r.chance(100)));
    }
}
