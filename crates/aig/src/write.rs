//! Interchange formats: ASCII AIGER (`aag`) reading/writing and
//! Graphviz DOT export for debugging.

use crate::aig::Aig;
use crate::lit::AigLit;
use std::error::Error;
use std::fmt;

/// Error from [`Aig::from_aag`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseAagError {
    /// Line (1-based) where parsing failed; 0 for the header.
    pub line: usize,
    /// Explanation of the failure.
    pub message: String,
}

impl fmt::Display for ParseAagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "aag parse error at line {}: {}", self.line, self.message)
    }
}

impl Error for ParseAagError {}

fn err(line: usize, message: impl Into<String>) -> ParseAagError {
    ParseAagError {
        line,
        message: message.into(),
    }
}

impl Aig {
    /// Serializes to the ASCII AIGER (`aag`) format.
    ///
    /// Nodes are renumbered densely; latches are never emitted
    /// (combinational only).
    pub fn to_aag(&self) -> String {
        // AIGER variable index per node: inputs first, then ANDs.
        let mut var_of = vec![0usize; self.num_nodes()];
        let mut next = 1;
        for &i in self.inputs() {
            var_of[i.index()] = next;
            next += 1;
        }
        for id in self.iter_ands() {
            var_of[id.index()] = next;
            next += 1;
        }
        let lit_code =
            |l: AigLit| -> usize { 2 * var_of[l.node().index()] + l.is_complement() as usize };
        let mut out = String::new();
        out.push_str(&format!(
            "aag {} {} 0 {} {}\n",
            next - 1,
            self.num_inputs(),
            self.num_outputs(),
            self.num_ands()
        ));
        for &i in self.inputs() {
            out.push_str(&format!("{}\n", 2 * var_of[i.index()]));
        }
        for &o in self.outputs() {
            out.push_str(&format!("{}\n", lit_code(o)));
        }
        for id in self.iter_ands() {
            let (f0, f1) = self.fanins(id).expect("and node");
            // AIGER requires lhs > rhs0 >= rhs1.
            let (a, b) = {
                let (x, y) = (lit_code(f0), lit_code(f1));
                if x >= y {
                    (x, y)
                } else {
                    (y, x)
                }
            };
            out.push_str(&format!("{} {} {}\n", 2 * var_of[id.index()], a, b));
        }
        out
    }

    /// Parses an ASCII AIGER (`aag`) file. Latches are rejected.
    ///
    /// # Errors
    ///
    /// Returns [`ParseAagError`] on malformed headers, out-of-order
    /// definitions, or sequential elements.
    pub fn from_aag(text: &str) -> Result<Aig, ParseAagError> {
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or_else(|| err(0, "empty file"))?;
        let fields: Vec<&str> = header.split_whitespace().collect();
        if fields.len() != 6 || fields[0] != "aag" {
            return Err(err(1, "expected header 'aag M I L O A'"));
        }
        let parse = |s: &str, line: usize| -> Result<usize, ParseAagError> {
            s.parse()
                .map_err(|_| err(line, format!("bad number {s:?}")))
        };
        let m = parse(fields[1], 1)?;
        let i = parse(fields[2], 1)?;
        let l = parse(fields[3], 1)?;
        let o = parse(fields[4], 1)?;
        let a = parse(fields[5], 1)?;
        if l != 0 {
            return Err(err(1, "latches are not supported (combinational only)"));
        }
        if m < i + a {
            return Err(err(1, "M must be at least I + A"));
        }
        let mut aig = Aig::new();
        // map from AIGER variable to AigLit
        let mut var_map: Vec<Option<AigLit>> = vec![None; m + 1];
        var_map[0] = Some(AigLit::FALSE);
        let mut input_codes = Vec::with_capacity(i);
        for _ in 0..i {
            let (ln, text) = lines.next().ok_or_else(|| err(0, "missing input line"))?;
            let code = parse(text.trim(), ln + 1)?;
            if code % 2 != 0 || code == 0 {
                return Err(err(ln + 1, "input literal must be a positive even number"));
            }
            let lit = aig.add_input();
            if var_map[code / 2].is_some() {
                return Err(err(ln + 1, "duplicate definition"));
            }
            var_map[code / 2] = Some(lit);
            input_codes.push(code);
        }
        let mut output_codes = Vec::with_capacity(o);
        for _ in 0..o {
            let (ln, text) = lines.next().ok_or_else(|| err(0, "missing output line"))?;
            output_codes.push(parse(text.trim(), ln + 1)?);
        }
        for _ in 0..a {
            let (ln, text) = lines.next().ok_or_else(|| err(0, "missing and line"))?;
            let nums: Vec<&str> = text.split_whitespace().collect();
            if nums.len() != 3 {
                return Err(err(ln + 1, "and line must have three literals"));
            }
            let lhs = parse(nums[0], ln + 1)?;
            let rhs0 = parse(nums[1], ln + 1)?;
            let rhs1 = parse(nums[2], ln + 1)?;
            if lhs % 2 != 0 {
                return Err(err(ln + 1, "and lhs must be even"));
            }
            if lhs <= rhs0 || rhs0 < rhs1 {
                return Err(err(ln + 1, "and literals must satisfy lhs > rhs0 >= rhs1"));
            }
            let get =
                |code: usize, ln: usize, vm: &[Option<AigLit>]| -> Result<AigLit, ParseAagError> {
                    let base = vm
                        .get(code / 2)
                        .copied()
                        .flatten()
                        .ok_or_else(|| err(ln + 1, format!("undefined literal {code}")))?;
                    Ok(base.xor_complement(code % 2 == 1))
                };
            let f0 = get(rhs0, ln, &var_map)?;
            let f1 = get(rhs1, ln, &var_map)?;
            if var_map[lhs / 2].is_some() {
                return Err(err(ln + 1, "duplicate definition"));
            }
            var_map[lhs / 2] = Some(aig.and(f0, f1));
        }
        for (idx, code) in output_codes.into_iter().enumerate() {
            let base = var_map
                .get(code / 2)
                .copied()
                .flatten()
                .ok_or_else(|| err(0, format!("output {idx} references undefined literal")))?;
            aig.add_output(base.xor_complement(code % 2 == 1));
        }
        Ok(aig)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Aig {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let c = g.add_input();
        let ab = g.and(a, b);
        let o = g.or(ab, !c);
        g.add_output(o);
        g.add_output(!ab);
        g
    }

    #[test]
    fn aag_roundtrip_preserves_function() {
        let g = sample();
        let text = g.to_aag();
        let h = Aig::from_aag(&text).expect("roundtrip parse");
        assert_eq!(h.num_inputs(), g.num_inputs());
        assert_eq!(h.num_outputs(), g.num_outputs());
        for mask in 0..8u32 {
            let bits = [mask & 1 == 1, mask >> 1 & 1 == 1, mask >> 2 & 1 == 1];
            assert_eq!(g.eval(&bits), h.eval(&bits));
        }
    }

    #[test]
    fn parse_rejects_latches() {
        let e = Aig::from_aag("aag 1 0 1 0 0\n2 0\n").unwrap_err();
        assert!(e.message.contains("latches"));
    }

    #[test]
    fn parse_rejects_malformed_header() {
        assert!(Aig::from_aag("agg 0 0 0 0 0\n").is_err());
        assert!(Aig::from_aag("aag 0 0 0\n").is_err());
        assert!(Aig::from_aag("").is_err());
    }

    #[test]
    fn parse_rejects_undefined_literal() {
        let e = Aig::from_aag("aag 2 1 0 1 0\n2\n6\n").unwrap_err();
        assert!(e.message.contains("undefined") || e.message.contains("output"));
    }

    #[test]
    fn parse_constant_outputs() {
        let g = Aig::from_aag("aag 0 0 0 2 0\n0\n1\n").expect("constants");
        assert_eq!(g.eval(&[]), vec![false, true]);
    }

    #[test]
    fn empty_aig_serializes() {
        let g = Aig::new();
        let text = g.to_aag();
        assert_eq!(text, "aag 0 0 0 0 0\n");
        let h = Aig::from_aag(&text).expect("parse empty");
        assert_eq!(h.num_nodes(), 1);
    }
}
