//! The benchmark's own output check, independent of the engine's
//! `verified` flag: a patched netlist is re-parsed and simulated against
//! its specification, with ports matched by name.

use eco_aig::Aig;
use eco_benchgen::SplitMix64;
use eco_netlist::parse_verilog;
use std::collections::HashMap;

/// Exhaustive simulation up to this many inputs, random beyond.
const EXHAUSTIVE_INPUTS: usize = 16;

/// Random 64-pattern words simulated per check beyond
/// [`EXHAUSTIVE_INPUTS`].
const RANDOM_WORDS: usize = 64;

/// A netlist reduced to what simulation needs.
pub struct Model {
    aig: Aig,
    inputs: Vec<String>,
    outputs: Vec<String>,
}

impl Model {
    /// Parses structural Verilog into a simulatable model.
    pub fn from_verilog(text: &str) -> Result<Model, String> {
        let parsed = parse_verilog(text).map_err(|e| format!("parse: {e}"))?;
        let netlist = &parsed.netlist;
        let aig = netlist.to_aig().map_err(|e| format!("to_aig: {e}"))?.aig;
        let names = |ids: &[eco_netlist::NetId]| -> Vec<String> {
            ids.iter()
                .map(|&id| netlist.net_name(id).to_string())
                .collect()
        };
        Ok(Model {
            inputs: names(netlist.inputs()),
            outputs: names(netlist.outputs()),
            aig,
        })
    }

    /// Checks that `patched` computes this (specification) model's
    /// outputs on every simulated pattern.
    pub fn check(&self, patched: &Model) -> Result<(), String> {
        let position = |names: &[String], wanted: &[String]| -> Result<Vec<usize>, String> {
            if names.len() != wanted.len() {
                return Err(format!(
                    "{} ports where {} expected",
                    names.len(),
                    wanted.len()
                ));
            }
            let index: HashMap<&str, usize> = names
                .iter()
                .enumerate()
                .map(|(i, n)| (n.as_str(), i))
                .collect();
            wanted
                .iter()
                .map(|n| {
                    index
                        .get(n.as_str())
                        .copied()
                        .ok_or(format!("port {n} missing"))
                })
                .collect()
        };
        // Patched input j takes the pattern of specification input
        // `input_from[j]`; specification output k is patched output
        // `output_at[k]`.
        let input_from = position(&self.inputs, &patched.inputs)?;
        let output_at = position(&patched.outputs, &self.outputs)?;
        for block in patterns(self.inputs.len()) {
            let want = self.aig.simulate_outputs(&block);
            let permuted: Vec<u64> = input_from.iter().map(|&i| block[i]).collect();
            let got = patched.aig.simulate_outputs(&permuted);
            for (k, &at) in output_at.iter().enumerate() {
                if want[k] != got[at] {
                    return Err(format!(
                        "output {} differs from the specification",
                        self.outputs[k]
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Input pattern blocks (one 64-pattern word per input): every
/// assignment for up to [`EXHAUSTIVE_INPUTS`] inputs, random otherwise.
fn patterns(num_inputs: usize) -> Vec<Vec<u64>> {
    const VAR_WORDS: [u64; 6] = [
        0xAAAA_AAAA_AAAA_AAAA,
        0xCCCC_CCCC_CCCC_CCCC,
        0xF0F0_F0F0_F0F0_F0F0,
        0xFF00_FF00_FF00_FF00,
        0xFFFF_0000_FFFF_0000,
        0xFFFF_FFFF_0000_0000,
    ];
    if num_inputs <= EXHAUSTIVE_INPUTS {
        let blocks = 1usize.max((1usize << num_inputs) >> 6);
        (0..blocks)
            .map(|w| {
                (0..num_inputs)
                    .map(|i| match i {
                        0..=5 => VAR_WORDS[i],
                        _ if w >> (i - 6) & 1 == 1 => u64::MAX,
                        _ => 0,
                    })
                    .collect()
            })
            .collect()
    } else {
        let mut rng = SplitMix64::new(0xC4EC_4ED5 ^ num_inputs as u64);
        (0..RANDOM_WORDS)
            .map(|_| (0..num_inputs).map(|_| rng.next_u64()).collect())
            .collect()
    }
}
