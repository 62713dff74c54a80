//! Bit-parallel simulation of AIGs: 64 input patterns per word, plus
//! exhaustive truth-table simulation for small input counts.

use crate::aig::{Aig, AigNode};
use crate::lit::AigLit;
use std::fmt;

/// Largest input count [`Aig::simulate_all_inputs`] accepts: `2^20`
/// rows (one million) is the point past which exhaustive tables stop
/// being a reasonable in-memory object.
pub const MAX_EXHAUSTIVE_INPUTS: usize = 20;

/// Error returned by [`Aig::simulate_all_inputs`] when the AIG has more
/// than [`MAX_EXHAUSTIVE_INPUTS`] inputs.
///
/// Callers that hit this are expected to fall back to sampled
/// simulation via [`Aig::simulate`] instead of aborting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TooManyInputsError {
    /// Number of inputs of the offending AIG.
    pub num_inputs: usize,
}

impl fmt::Display for TooManyInputsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "exhaustive simulation limited to {MAX_EXHAUSTIVE_INPUTS} inputs, got {}",
            self.num_inputs
        )
    }
}

impl std::error::Error for TooManyInputsError {}

/// Canonical 64-row pattern of input variable `i < 6`: row `r` has bit
/// `(r >> i) & 1`.
pub(crate) fn var_word(i: usize) -> u64 {
    const MASKS: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    MASKS[i]
}

impl Aig {
    /// Simulates 64 parallel patterns: `input_words[i]` carries the 64
    /// values of input `i`. Returns one word per node.
    ///
    /// # Panics
    ///
    /// Panics if `input_words.len() != self.num_inputs()`.
    pub fn simulate(&self, input_words: &[u64]) -> Vec<u64> {
        assert_eq!(
            input_words.len(),
            self.num_inputs(),
            "one word per input required"
        );
        let mut words = Vec::with_capacity(self.num_nodes());
        for id in self.iter_nodes() {
            let w = match self.node(id) {
                AigNode::Const0 => 0,
                AigNode::Input { index } => input_words[index as usize],
                AigNode::And { f0, f1 } => {
                    let a =
                        words[f0.node().index()] ^ if f0.is_complement() { u64::MAX } else { 0 };
                    let b =
                        words[f1.node().index()] ^ if f1.is_complement() { u64::MAX } else { 0 };
                    a & b
                }
            };
            words.push(w);
        }
        words
    }

    /// Simulates 64 parallel patterns and returns one word per output.
    pub fn simulate_outputs(&self, input_words: &[u64]) -> Vec<u64> {
        let words = self.simulate(input_words);
        self.outputs()
            .iter()
            .map(|o| words[o.node().index()] ^ if o.is_complement() { u64::MAX } else { 0 })
            .collect()
    }

    /// Evaluates a single input assignment; returns one bool per output.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.num_inputs()`.
    pub fn eval(&self, inputs: &[bool]) -> Vec<bool> {
        let words: Vec<u64> = inputs.iter().map(|&b| if b { 1 } else { 0 }).collect();
        self.simulate_outputs(&words)
            .iter()
            .map(|w| w & 1 == 1)
            .collect()
    }

    /// Evaluates one input assignment and returns the value of an
    /// arbitrary internal literal.
    pub fn eval_lit(&self, inputs: &[bool], lit: AigLit) -> bool {
        let words: Vec<u64> = inputs.iter().map(|&b| if b { 1 } else { 0 }).collect();
        let sim = self.simulate(&words);
        (sim[lit.node().index()] & 1 == 1) ^ lit.is_complement()
    }

    /// Exhaustively simulates all `2^n` input patterns and returns, for
    /// each output, its truth table packed LSB-first into `u64` words
    /// (row `r` = input assignment with input `i` at bit `(r >> i) & 1`).
    ///
    /// # Errors
    ///
    /// Returns [`TooManyInputsError`] if the AIG has more than
    /// [`MAX_EXHAUSTIVE_INPUTS`] inputs (over a million rows); callers
    /// should fall back to sampled [`Aig::simulate`] in that case.
    pub fn simulate_all_inputs(&self) -> Result<Vec<Vec<u64>>, TooManyInputsError> {
        let n = self.num_inputs();
        if n > MAX_EXHAUSTIVE_INPUTS {
            return Err(TooManyInputsError { num_inputs: n });
        }
        let num_words = 1usize.max((1usize << n) >> 6);
        let mut result: Vec<Vec<u64>> = vec![Vec::with_capacity(num_words); self.num_outputs()];
        let mut inputs = vec![0u64; n];
        for w in 0..num_words {
            for (i, word) in inputs.iter_mut().enumerate() {
                *word = if i < 6 {
                    var_word(i)
                } else if w >> (i - 6) & 1 == 1 {
                    u64::MAX
                } else {
                    0
                };
            }
            let outs = self.simulate_outputs(&inputs);
            for (o, &val) in outs.iter().enumerate() {
                result[o].push(val);
            }
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_words_enumerate_rows() {
        for i in 0..6 {
            let w = var_word(i);
            for row in 0..64u64 {
                assert_eq!(w >> row & 1, row >> i & 1, "var {i} row {row}");
            }
        }
    }

    #[test]
    fn eval_matches_simulate() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let c = g.add_input();
        let ab = g.and(a, b);
        let o = g.or(ab, !c);
        g.add_output(o);
        for row in 0..8u32 {
            let bits = [row & 1 == 1, row >> 1 & 1 == 1, row >> 2 & 1 == 1];
            let expect = (bits[0] && bits[1]) || !bits[2];
            assert_eq!(g.eval(&bits), vec![expect]);
        }
    }

    #[test]
    fn exhaustive_simulation_many_inputs() {
        // 8-input AND: exactly one 1 in the truth table.
        let mut g = Aig::new();
        let ins: Vec<_> = (0..8).map(|_| g.add_input()).collect();
        let all = g.and_many(&ins);
        g.add_output(all);
        let tt = g.simulate_all_inputs().expect("8 inputs fits");
        assert_eq!(tt[0].len(), 4);
        let ones: u32 = tt[0].iter().map(|w| w.count_ones()).sum();
        assert_eq!(ones, 1);
        assert_eq!(tt[0][3] >> 63, 1);
    }

    #[test]
    fn eval_lit_reads_internal_signals() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let x = g.and(a, b);
        assert!(g.eval_lit(&[true, true], x));
        assert!(!g.eval_lit(&[true, false], x));
        assert!(g.eval_lit(&[true, false], !x));
    }

    #[test]
    fn zero_input_aig_simulates() {
        let mut g = Aig::new();
        g.add_output(AigLit::TRUE);
        g.add_output(AigLit::FALSE);
        let tt = g.simulate_all_inputs().expect("zero inputs fits");
        assert_eq!(tt[0][0], u64::MAX);
        assert_eq!(tt[1][0], 0);
    }

    #[test]
    fn too_many_inputs_is_an_error_not_a_panic() {
        let mut g = Aig::new();
        let ins: Vec<_> = (0..MAX_EXHAUSTIVE_INPUTS + 1)
            .map(|_| g.add_input())
            .collect();
        let all = g.and_many(&ins);
        g.add_output(all);
        let err = g.simulate_all_inputs().expect_err("21 inputs rejected");
        assert_eq!(err.num_inputs, MAX_EXHAUSTIVE_INPUTS + 1);
        assert!(err.to_string().contains("21"));
        // The documented fallback still works: sampled simulation.
        let words = g.simulate(&[u64::MAX; MAX_EXHAUSTIVE_INPUTS + 1]);
        assert_eq!(words[all.node().index()], u64::MAX);
    }
}
