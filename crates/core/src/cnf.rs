//! Tseitin encoding of AIG cones into the SAT solver.

use eco_aig::{Aig, AigLit, AigNode, NodeId};
use eco_sat::{Lit, Solver, Var};

/// Incremental Tseitin encoder: maps AIG nodes of one host AIG to SAT
/// variables of one solver, encoding each node's cone on first use.
///
/// Multiple encoders over the same solver give independent variable
/// copies of the circuit (the `x1`/`x2` copies of expression (2)).
#[derive(Clone, Debug)]
pub(crate) struct CnfEncoder {
    var_of: Vec<Option<Var>>,
    /// Depth-first work stack of [`CnfEncoder::encode_node`], reused
    /// across calls.
    stack: Vec<(NodeId, bool)>,
}

impl CnfEncoder {
    /// Creates an encoder for `aig` (no clauses are emitted yet).
    pub fn new(aig: &Aig) -> CnfEncoder {
        CnfEncoder {
            var_of: vec![None; aig.num_nodes()],
            stack: Vec::new(),
        }
    }

    /// Reserves room in `solver` for `copies` encodings of all of `aig`
    /// (one variable per node and three clauses per AND node each), so a
    /// large encoding does not regrow the solver's tables as it goes.
    pub fn reserve_copies(solver: &mut Solver, aig: &Aig, copies: usize) {
        solver.reserve(copies * aig.num_nodes(), copies * 3 * aig.num_ands());
    }

    /// Returns the SAT literal for an AIG literal, emitting Tseitin
    /// clauses for any not-yet-encoded part of its cone.
    ///
    /// # Panics
    ///
    /// Panics if `lit` does not belong to the AIG this encoder was
    /// created for (node index out of range).
    pub fn lit(&mut self, aig: &Aig, solver: &mut Solver, lit: AigLit) -> Lit {
        // The host AIG may have grown since the encoder was created
        // (incremental CEGAR loops); track it.
        if self.var_of.len() < aig.num_nodes() {
            self.var_of.resize(aig.num_nodes(), None);
        }
        let var = self.encode_node(aig, solver, lit.node());
        var.lit(lit.is_complement())
    }

    /// The SAT variable already assigned to `node`, if encoded.
    pub fn var(&self, node: NodeId) -> Option<Var> {
        self.var_of[node.index()]
    }

    fn encode_node(&mut self, aig: &Aig, solver: &mut Solver, root: NodeId) -> Var {
        if let Some(v) = self.var_of[root.index()] {
            return v;
        }
        let mut stack = std::mem::take(&mut self.stack);
        stack.push((root, false));
        while let Some((id, expanded)) = stack.pop() {
            if self.var_of[id.index()].is_some() {
                continue;
            }
            match aig.node(id) {
                AigNode::Const0 => {
                    let v = solver.new_var();
                    solver.add_clause(&[v.negative()]);
                    self.var_of[id.index()] = Some(v);
                }
                AigNode::Input { .. } => {
                    self.var_of[id.index()] = Some(solver.new_var());
                }
                AigNode::And { f0, f1 } => {
                    if expanded {
                        let a = self.var_of[f0.node().index()]
                            .expect("fanin encoded")
                            .lit(f0.is_complement());
                        let b = self.var_of[f1.node().index()]
                            .expect("fanin encoded")
                            .lit(f1.is_complement());
                        let v = solver.new_var();
                        let o = v.positive();
                        solver.add_clause(&[!o, a]);
                        solver.add_clause(&[!o, b]);
                        solver.add_clause(&[o, !a, !b]);
                        self.var_of[id.index()] = Some(v);
                    } else {
                        stack.push((id, true));
                        stack.push((f0.node(), false));
                        stack.push((f1.node(), false));
                    }
                }
            }
        }
        self.stack = stack;
        self.var_of[root.index()].expect("root encoded")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eco_sat::SolveResult;

    /// Checks the encoding of an AIG output against exhaustive
    /// simulation.
    fn check_encoding(aig: &Aig) {
        let tt = aig.simulate_all_inputs().expect("test AIGs stay small");
        let mut solver = Solver::new();
        let mut enc = CnfEncoder::new(aig);
        let out_lits: Vec<Lit> = aig
            .outputs()
            .iter()
            .map(|&o| enc.lit(aig, &mut solver, o))
            .collect();
        let in_lits: Vec<Lit> = aig
            .inputs()
            .iter()
            .map(|&n| enc.lit(aig, &mut solver, n.lit()))
            .collect();
        for row in 0..1usize << aig.num_inputs() {
            let mut assumptions: Vec<Lit> = in_lits
                .iter()
                .enumerate()
                .map(|(i, &l)| if row >> i & 1 == 1 { l } else { !l })
                .collect();
            for (o, &ol) in out_lits.iter().enumerate() {
                let expect = tt[o][row >> 6] >> (row & 63) & 1 == 1;
                assumptions.push(if expect { ol } else { !ol });
            }
            assert_eq!(solver.solve(&assumptions), SolveResult::Sat, "row {row}");
            // And the complement of any output must be blocked.
            for (o, &ol) in out_lits.iter().enumerate() {
                let expect = tt[o][row >> 6] >> (row & 63) & 1 == 1;
                let mut wrong = assumptions.clone();
                let pos = in_lits.len() + o;
                wrong[pos] = if expect { !ol } else { ol };
                assert_eq!(
                    solver.solve(&wrong),
                    SolveResult::Unsat,
                    "row {row} out {o}"
                );
            }
        }
    }

    #[test]
    fn an_and_output_forces_its_inputs() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        let b = aig.add_input();
        let f = aig.and(a, b);
        aig.add_output(f);

        let mut solver = Solver::new();
        let mut enc = CnfEncoder::new(&aig);
        let f_lit = enc.lit(&aig, &mut solver, f);
        let a_lit = enc.lit(&aig, &mut solver, a);
        assert_eq!(solver.solve(&[f_lit, !a_lit]), SolveResult::Unsat);
        assert_eq!(solver.solve(&[f_lit]), SolveResult::Sat);
    }

    #[test]
    fn encodes_simple_gates() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let c = g.add_input();
        let ab = g.and(a, b);
        let o = g.xor(ab, c);
        g.add_output(o);
        g.add_output(!ab);
        check_encoding(&g);
    }

    #[test]
    fn encodes_constants() {
        let mut g = Aig::new();
        let a = g.add_input();
        let t = g.and(a, AigLit::TRUE);
        g.add_output(t);
        g.add_output(AigLit::FALSE);
        g.add_output(AigLit::TRUE);
        check_encoding(&g);
    }

    #[test]
    fn two_encoders_give_independent_copies() {
        let mut g = Aig::new();
        let a = g.add_input();
        g.add_output(a);
        let mut solver = Solver::new();
        let mut e1 = CnfEncoder::new(&g);
        let mut e2 = CnfEncoder::new(&g);
        let a1 = e1.lit(&g, &mut solver, a);
        let a2 = e2.lit(&g, &mut solver, a);
        assert_ne!(a1.var(), a2.var());
        // Copies are unconstrained relative to each other.
        assert_eq!(solver.solve(&[a1, !a2]), SolveResult::Sat);
        assert_eq!(solver.solve(&[a1, a2]), SolveResult::Sat);
    }

    #[test]
    fn shared_cone_is_encoded_once() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let ab = g.and(a, b);
        let o1 = g.or(ab, a);
        let o2 = g.xor(ab, b);
        g.add_output(o1);
        g.add_output(o2);
        let mut solver = Solver::new();
        let mut enc = CnfEncoder::new(&g);
        enc.lit(&g, &mut solver, o1);
        let vars_after_first = solver.num_vars();
        enc.lit(&g, &mut solver, o2);
        // Only the xor-specific nodes should be new.
        assert!(solver.num_vars() > vars_after_first);
        assert!(solver.num_vars() - vars_after_first <= 3);
        assert!(enc.var(ab.node()).is_some());
    }
}
