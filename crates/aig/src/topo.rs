//! Structural traversals: transitive fanin/fanout cones, fanout lists,
//! and logic levels — the machinery behind the paper's structural
//! pruning (Sec. 3.3).

use crate::aig::{Aig, AigNode};
use crate::lit::NodeId;

impl Aig {
    /// Builds the fanout adjacency: for each node, the AND nodes that
    /// use it as a fanin. Output edges are not included.
    pub fn fanouts(&self) -> Vec<Vec<NodeId>> {
        let mut out: Vec<Vec<NodeId>> = vec![Vec::new(); self.num_nodes()];
        for id in self.iter_nodes() {
            if let AigNode::And { f0, f1 } = self.node(id) {
                out[f0.node().index()].push(id);
                if f1.node() != f0.node() {
                    out[f1.node().index()].push(id);
                }
            }
        }
        out
    }

    /// Transitive fanin cone of `roots` (including the roots), as a
    /// membership mask indexed by node.
    pub fn tfi_mask(&self, roots: impl IntoIterator<Item = NodeId>) -> Vec<bool> {
        let mut mask = vec![false; self.num_nodes()];
        let mut stack: Vec<NodeId> = roots.into_iter().collect();
        while let Some(id) = stack.pop() {
            if mask[id.index()] {
                continue;
            }
            mask[id.index()] = true;
            if let AigNode::And { f0, f1 } = self.node(id) {
                stack.push(f0.node());
                stack.push(f1.node());
            }
        }
        mask
    }

    /// Transitive fanout cone of `roots` (including the roots), as a
    /// membership mask. Requires precomputed [`Aig::fanouts`].
    pub fn tfo_mask(
        &self,
        roots: impl IntoIterator<Item = NodeId>,
        fanouts: &[Vec<NodeId>],
    ) -> Vec<bool> {
        let mut mask = vec![false; self.num_nodes()];
        let mut stack: Vec<NodeId> = roots.into_iter().collect();
        while let Some(id) = stack.pop() {
            if mask[id.index()] {
                continue;
            }
            mask[id.index()] = true;
            for &f in &fanouts[id.index()] {
                stack.push(f);
            }
        }
        mask
    }

    /// Logic level of each node: inputs and the constant are level 0,
    /// an AND is 1 + max(fanin levels).
    pub fn levels(&self) -> Vec<u32> {
        let mut levels = vec![0u32; self.num_nodes()];
        for id in self.iter_nodes() {
            if let AigNode::And { f0, f1 } = self.node(id) {
                levels[id.index()] = 1 + levels[f0.node().index()].max(levels[f1.node().index()]);
            }
        }
        levels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds: o0 = (a & b), o1 = (b | c); returns (aig, node ids).
    fn diamond() -> (Aig, Vec<NodeId>) {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let c = g.add_input();
        let x = g.and(a, b);
        let y = g.or(b, c);
        g.add_output(x);
        g.add_output(y);
        (g, vec![a.node(), b.node(), c.node(), x.node(), y.node()])
    }

    #[test]
    fn tfi_includes_roots_and_ancestors() {
        let (g, n) = diamond();
        let mask = g.tfi_mask([n[3]]);
        assert!(mask[n[3].index()]);
        assert!(mask[n[0].index()]);
        assert!(mask[n[1].index()]);
        assert!(!mask[n[2].index()]);
    }

    #[test]
    fn tfo_follows_fanouts() {
        let (g, n) = diamond();
        let fo = g.fanouts();
        let mask = g.tfo_mask([n[1]], &fo);
        assert!(mask[n[1].index()]);
        assert!(mask[n[3].index()]);
        assert!(mask[n[4].index()]);
        assert!(!mask[n[0].index()]);
        assert!(!mask[n[2].index()]);
    }

    #[test]
    fn levels_increase_monotonically() {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let x = g.and(a, b);
        let y = g.xor(a, x);
        g.add_output(y);
        let lv = g.levels();
        assert_eq!(lv[a.node().index()], 0);
        assert_eq!(lv[x.node().index()], 1);
        // xor is two levels of ANDs above its operands
        assert!(lv[y.node().index()] >= 2);
    }

    #[test]
    fn fanouts_are_complete() {
        let (g, n) = diamond();
        let fo = g.fanouts();
        // b drives both AND gates (x directly, y through an inverter tree).
        assert!(!fo[n[1].index()].is_empty());
        // outputs do not create fanout edges
        assert!(fo[n[3].index()].is_empty());
    }
}
