//! The And-Inverter Graph container with structural hashing and
//! constant folding.

use crate::lit::{AigLit, NodeId};
use std::collections::HashMap;

/// One node of an [`Aig`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum AigNode {
    /// The constant-false node (always node 0).
    Const0,
    /// A primary input; `index` is its position in the input list.
    Input {
        /// Position in [`Aig::inputs`].
        index: u32,
    },
    /// A two-input AND gate over possibly complemented fanins.
    And {
        /// First fanin (smaller literal code).
        f0: AigLit,
        /// Second fanin (larger literal code).
        f1: AigLit,
    },
}

/// An And-Inverter Graph: a DAG of two-input AND gates with
/// complemented edges, the standard representation for SAT sweeping and
/// equivalence checking in logic synthesis.
///
/// Nodes are stored in topological order by construction (fanins are
/// created before fanouts), so plain index order is a valid evaluation
/// order. New AND gates are structurally hashed and constant-folded.
///
/// # Examples
///
/// Build a full adder's carry and verify by simulation:
///
/// ```
/// use eco_aig::Aig;
///
/// let mut aig = Aig::new();
/// let a = aig.add_input();
/// let b = aig.add_input();
/// let c = aig.add_input();
/// let carry = {
///     let ab = aig.and(a, b);
///     let ac = aig.and(a, c);
///     let bc = aig.and(b, c);
///     let t = aig.or(ab, ac);
///     aig.or(t, bc)
/// };
/// aig.add_output(carry);
/// let tt = aig.simulate_all_inputs().expect("3 inputs is exhaustible");
/// // Majority function: 1 for inputs {3,5,6,7}.
/// assert_eq!(tt[0][0] & 0xff, 0b1110_1000);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Aig {
    nodes: Vec<AigNode>,
    inputs: Vec<NodeId>,
    outputs: Vec<AigLit>,
    strash: HashMap<(u32, u32), NodeId>,
}

impl Aig {
    /// Creates an empty AIG containing only the constant node.
    pub fn new() -> Aig {
        Aig {
            nodes: vec![AigNode::Const0],
            inputs: Vec::new(),
            outputs: Vec::new(),
            strash: HashMap::new(),
        }
    }

    /// Reserves room for `ands` more AND nodes.
    pub fn reserve(&mut self, ands: usize) {
        self.nodes.reserve(ands);
        self.strash.reserve(ands);
    }

    /// Total number of nodes, including the constant and inputs.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of AND gates.
    pub fn num_ands(&self) -> usize {
        self.nodes.len() - 1 - self.inputs.len()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// The primary input nodes, in creation order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// The primary output literals, in creation order.
    pub fn outputs(&self) -> &[AigLit] {
        &self.outputs
    }

    /// The node data for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> AigNode {
        self.nodes[id.index()]
    }

    /// Returns `true` if `id` is a primary input node.
    pub fn is_input(&self, id: NodeId) -> bool {
        matches!(self.nodes[id.index()], AigNode::Input { .. })
    }

    /// Returns `true` if `id` is an AND node.
    pub fn is_and(&self, id: NodeId) -> bool {
        matches!(self.nodes[id.index()], AigNode::And { .. })
    }

    /// Fanins of an AND node, `None` otherwise.
    pub fn fanins(&self, id: NodeId) -> Option<(AigLit, AigLit)> {
        match self.nodes[id.index()] {
            AigNode::And { f0, f1 } => Some((f0, f1)),
            _ => None,
        }
    }

    /// Appends a fresh primary input and returns its literal.
    pub fn add_input(&mut self) -> AigLit {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(AigNode::Input {
            index: self.inputs.len() as u32,
        });
        self.inputs.push(id);
        id.lit()
    }

    /// Registers `lit` as the next primary output and returns its index.
    pub fn add_output(&mut self, lit: AigLit) -> usize {
        assert!(
            lit.node().index() < self.nodes.len(),
            "output literal out of range"
        );
        self.outputs.push(lit);
        self.outputs.len() - 1
    }

    /// Replaces output `index` with a new literal.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or the literal references a
    /// nonexistent node.
    pub fn set_output(&mut self, index: usize, lit: AigLit) {
        assert!(
            lit.node().index() < self.nodes.len(),
            "output literal out of range"
        );
        self.outputs[index] = lit;
    }

    /// AND of two signals with constant folding and structural hashing.
    pub fn and(&mut self, a: AigLit, b: AigLit) -> AigLit {
        // Constant and trivial cases.
        if a == AigLit::FALSE || b == AigLit::FALSE || a == !b {
            return AigLit::FALSE;
        }
        if a == AigLit::TRUE {
            return b;
        }
        if b == AigLit::TRUE || a == b {
            return a;
        }
        let (f0, f1) = if a.code() < b.code() { (a, b) } else { (b, a) };
        let key = (f0.code(), f1.code());
        if let Some(&id) = self.strash.get(&key) {
            return id.lit();
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(AigNode::And { f0, f1 });
        self.strash.insert(key, id);
        id.lit()
    }

    /// AND of two signals that always allocates a fresh node: no
    /// constant folding and no structural hashing. The node is also
    /// never entered into the hash table, so later [`Aig::and`] calls
    /// cannot merge onto it.
    ///
    /// This exists for rewrites that must preserve the *identity* of a
    /// node (e.g. an ECO rectification point) even when its function
    /// degenerates to a constant or duplicates another node.
    pub fn and_fresh(&mut self, a: AigLit, b: AigLit) -> AigLit {
        assert!(
            a.node().index() < self.nodes.len() && b.node().index() < self.nodes.len(),
            "fanin out of range"
        );
        let (f0, f1) = if a.code() <= b.code() { (a, b) } else { (b, a) };
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(AigNode::And { f0, f1 });
        id.lit()
    }

    /// OR of two signals.
    pub fn or(&mut self, a: AigLit, b: AigLit) -> AigLit {
        !self.and(!a, !b)
    }

    /// XOR of two signals (two AND levels).
    pub fn xor(&mut self, a: AigLit, b: AigLit) -> AigLit {
        let n0 = self.and(a, !b);
        let n1 = self.and(!a, b);
        self.or(n0, n1)
    }

    /// XNOR (equivalence) of two signals.
    pub fn xnor(&mut self, a: AigLit, b: AigLit) -> AigLit {
        !self.xor(a, b)
    }

    /// If-then-else: `sel ? t : e`.
    pub fn mux(&mut self, sel: AigLit, t: AigLit, e: AigLit) -> AigLit {
        let a = self.and(sel, t);
        let b = self.and(!sel, e);
        self.or(a, b)
    }

    /// Conjunction of many signals (balanced tree).
    pub fn and_many(&mut self, lits: &[AigLit]) -> AigLit {
        match lits.len() {
            0 => AigLit::TRUE,
            1 => lits[0],
            _ => {
                let mid = lits.len() / 2;
                let l = self.and_many(&lits[..mid]);
                let r = self.and_many(&lits[mid..]);
                self.and(l, r)
            }
        }
    }

    /// Disjunction of many signals (balanced tree).
    pub fn or_many(&mut self, lits: &[AigLit]) -> AigLit {
        match lits.len() {
            0 => AigLit::FALSE,
            1 => lits[0],
            _ => {
                let mid = lits.len() / 2;
                let l = self.or_many(&lits[..mid]);
                let r = self.or_many(&lits[mid..]);
                self.or(l, r)
            }
        }
    }

    /// Copies the logic cone of `other` rooted at its outputs into
    /// `self`, binding `other`'s inputs to `bindings`. Returns the
    /// literals in `self` corresponding to `other`'s outputs.
    ///
    /// # Panics
    ///
    /// Panics if `bindings.len() != other.num_inputs()`.
    pub fn import(&mut self, other: &Aig, bindings: &[AigLit]) -> Vec<AigLit> {
        assert_eq!(
            bindings.len(),
            other.num_inputs(),
            "binding count must match input count"
        );
        let mapped = self.import_nodes(other, bindings);
        other
            .outputs
            .iter()
            .map(|o| mapped[o.node().index()].xor_complement(o.is_complement()))
            .collect()
    }

    /// Like [`Aig::import`] but returns the literal for an arbitrary
    /// internal signal of `other` instead of its outputs.
    pub fn import_lit(&mut self, other: &Aig, bindings: &[AigLit], lit: AigLit) -> AigLit {
        assert_eq!(bindings.len(), other.num_inputs());
        let mapped = self.import_nodes(other, bindings);
        mapped[lit.node().index()].xor_complement(lit.is_complement())
    }

    /// Like [`Aig::import`] but returns the mapped literal for *every*
    /// node of `other` (indexed by node), not just its outputs. Useful
    /// when internal signals of the imported network must be referenced
    /// afterwards (e.g. candidate equivalences in resubstitution).
    ///
    /// # Panics
    ///
    /// Panics if `bindings.len() != other.num_inputs()`.
    pub fn import_with_map(&mut self, other: &Aig, bindings: &[AigLit]) -> Vec<AigLit> {
        assert_eq!(
            bindings.len(),
            other.num_inputs(),
            "binding count must match input count"
        );
        self.import_nodes(other, bindings)
    }

    fn import_nodes(&mut self, other: &Aig, bindings: &[AigLit]) -> Vec<AigLit> {
        let mut mapped: Vec<AigLit> = Vec::with_capacity(other.nodes.len());
        for node in &other.nodes {
            let lit = match *node {
                AigNode::Const0 => AigLit::FALSE,
                AigNode::Input { index } => bindings[index as usize],
                AigNode::And { f0, f1 } => {
                    let a = mapped[f0.node().index()].xor_complement(f0.is_complement());
                    let b = mapped[f1.node().index()].xor_complement(f1.is_complement());
                    self.and(a, b)
                }
            };
            mapped.push(lit);
        }
        mapped
    }

    /// Removes logic unreachable from the outputs, returning the
    /// compacted AIG together with the old-node → new-literal map
    /// (`None` for dropped nodes). Input and output order (and count)
    /// are preserved.
    pub fn cleanup(&self) -> crate::subst::SubstituteResult {
        self.substitute_with_map(&std::collections::HashMap::new())
            .expect("no patches, no cycles")
    }

    /// Iterates over all node ids in topological (index) order.
    pub fn iter_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(|i| NodeId(i as u32))
    }

    /// Iterates over the AND-node ids in topological order.
    pub fn iter_ands(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.iter_nodes().filter(move |&id| self.is_and(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_folding_rules() {
        let mut g = Aig::new();
        let a = g.add_input();
        assert_eq!(g.and(a, AigLit::FALSE), AigLit::FALSE);
        assert_eq!(g.and(AigLit::TRUE, a), a);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, !a), AigLit::FALSE);
        assert_eq!(g.num_ands(), 0);
    }

    #[test]
    fn structural_hashing_shares_nodes() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let x = g.and(a, b);
        let y = g.and(b, a);
        assert_eq!(x, y);
        assert_eq!(g.num_ands(), 1);
        let z = g.and(!a, b);
        assert_ne!(x, z);
        assert_eq!(g.num_ands(), 2);
    }

    #[test]
    fn or_via_demorgan() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let o = g.or(a, b);
        g.add_output(o);
        let tt = g.simulate_all_inputs().expect("small input count");
        assert_eq!(tt[0][0] & 0xf, 0b1110);
    }

    #[test]
    fn xor_and_mux_semantics() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let x = g.xor(a, b);
        g.add_output(x);
        let s = g.add_input();
        let m = g.mux(s, a, b);
        g.add_output(m);
        let tt = g.simulate_all_inputs().expect("small input count");
        // inputs: bit0=a, bit1=b, bit2=s over 8 rows
        assert_eq!(tt[0][0] & 0xff, 0b0110_0110); // xor ignores s
                                                  // mux: s=0 -> b, s=1 -> a
        let mut expect = 0u64;
        for row in 0..8u32 {
            let (a_v, b_v, s_v) = (row & 1 == 1, row >> 1 & 1 == 1, row >> 2 & 1 == 1);
            if if s_v { a_v } else { b_v } {
                expect |= 1 << row;
            }
        }
        assert_eq!(tt[1][0] & 0xff, expect);
    }

    #[test]
    fn and_many_or_many_edge_cases() {
        let mut g = Aig::new();
        assert_eq!(g.and_many(&[]), AigLit::TRUE);
        assert_eq!(g.or_many(&[]), AigLit::FALSE);
        let a = g.add_input();
        assert_eq!(g.and_many(&[a]), a);
        assert_eq!(g.or_many(&[a]), a);
        let b = g.add_input();
        let c = g.add_input();
        let all = g.and_many(&[a, b, c]);
        g.add_output(all);
        let tt = g.simulate_all_inputs().expect("small input count");
        assert_eq!(tt[0][0] & 0xff, 0b1000_0000);
    }

    #[test]
    fn import_binds_inputs() {
        // other computes (x & y); import with bindings (a, !a) -> const 0.
        let mut other = Aig::new();
        let x = other.add_input();
        let y = other.add_input();
        let o = other.and(x, y);
        other.add_output(o);

        let mut g = Aig::new();
        let a = g.add_input();
        let outs = g.import(&other, &[a, !a]);
        assert_eq!(outs, vec![AigLit::FALSE]);

        let b = g.add_input();
        let outs2 = g.import(&other, &[a, b]);
        g.add_output(outs2[0]);
        let tt = g.simulate_all_inputs().expect("small input count");
        assert_eq!(tt[0][0] & 0xf, 0b1000);
    }

    #[test]
    fn import_complemented_output() {
        let mut other = Aig::new();
        let x = other.add_input();
        other.add_output(!x);
        let mut g = Aig::new();
        let a = g.add_input();
        let outs = g.import(&other, &[a]);
        assert_eq!(outs[0], !a);
    }

    #[test]
    fn node_accessors() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let x = g.and(a, b);
        assert!(g.is_input(a.node()));
        assert!(g.is_and(x.node()));
        assert!(!g.is_and(a.node()));
        assert_eq!(g.fanins(x.node()), Some((a, b)));
        assert_eq!(g.fanins(a.node()), None);
        assert_eq!(g.node(NodeId::CONST0), AigNode::Const0);
    }

    #[test]
    fn set_output_replaces() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let idx = g.add_output(a);
        g.set_output(idx, b);
        assert_eq!(g.outputs(), &[b]);
    }
}

#[cfg(test)]
mod cleanup_tests {
    use super::*;

    #[test]
    fn cleanup_drops_dead_logic() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let keep = g.and(a, b);
        let _dead1 = g.xor(a, b);
        let _dead2 = g.or(a, b);
        g.add_output(keep);
        let result = g.cleanup();
        assert_eq!(result.aig.num_ands(), 1);
        assert_eq!(result.aig.num_inputs(), 2);
        assert!(result.node_map[keep.node().index()].is_some());
        for mask in 0..4u32 {
            let bits = [mask & 1 == 1, mask >> 1 & 1 == 1];
            assert_eq!(result.aig.eval(&bits), g.eval(&bits));
        }
    }

    #[test]
    fn and_fresh_never_folds_or_merges() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let shared = g.and(a, b);
        let fresh = g.and_fresh(a, b);
        assert_ne!(shared, fresh, "fresh node must not be hashed");
        let again = g.and(a, b);
        assert_eq!(shared, again, "hash table must not contain the fresh node");
        let folded = g.and_fresh(a, AigLit::FALSE);
        assert_ne!(folded, AigLit::FALSE, "fresh node must not constant fold");
        g.add_output(fresh);
        g.add_output(folded);
        assert_eq!(g.eval(&[true, true]), vec![true, false]);
    }
}
