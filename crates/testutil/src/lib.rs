//! Deterministic pseudo-random helpers for randomized tests and
//! hand-rolled benches.
//!
//! The registry is unavailable in hermetic build environments, so the
//! workspace carries its own tiny splitmix64-based generator instead of
//! depending on an external property-testing framework. Tests written
//! against it are fully deterministic: a failure reproduces from the
//! printed case seed alone.

pub mod prom;

use std::io::Write;
use std::sync::{Arc, Mutex, PoisonError};

/// A splitmix64 generator. Cheap, decent-quality, and `Copy`-free so
/// accidental state sharing is impossible.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish value in `[0, n)`. `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform-ish value in `[lo, hi)`. `hi` must exceed `lo`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }

    /// Uniform-ish index into a collection of length `len`.
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// Runs `f` once per case with a fresh, case-seeded generator. The case
/// number doubles as the reproduction seed; put it in assertion
/// messages.
pub fn cases(n: u64, mut f: impl FnMut(u64, &mut Rng)) {
    for case in 0..n {
        // Decorrelate consecutive case streams.
        let mut rng = Rng::new(case.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD6E8_FEB8_6659_FD93);
        f(case, &mut rng);
    }
}

/// An `io::Write` sink whose clones share one buffer, so a test can
/// read back what a writer it handed away has written.
#[derive(Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// Everything written so far, as UTF-8.
    pub fn text(&self) -> String {
        let bytes = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        String::from_utf8(bytes.clone()).expect("UTF-8 output")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_stays_in_range_and_varies() {
        let mut rng = Rng::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn cases_pass_distinct_streams() {
        let mut firsts = Vec::new();
        cases(8, |_, rng| firsts.push(rng.next_u64()));
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(firsts.len(), 8);
    }
}
