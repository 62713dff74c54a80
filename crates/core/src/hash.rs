//! Content hashes for cache keys: the [`crate::cache`] layers key
//! windows, quantified miters, and solved patches by content instead
//! of identity, so a re-run after a small spec revision reuses
//! everything the revision did not touch.
//!
//! Two different notions of hash are used, deliberately:
//!
//! - **Representation hashes** ([`hash_aig`]) cover the exact stored
//!   form of an AIG — node array order included. Equality implies the
//!   two values are bit-for-bit the same structure, so cached artifacts
//!   holding node ids (patch supports, divisor lists) remain valid.
//! - **Canonical cone hashes** ([`cone_hash`]) cover the logic cone of
//!   chosen outputs up to node *renumbering*: nodes are relabeled in
//!   deterministic first-visit order from the roots. Two specification
//!   revisions that leave an output cone untouched produce equal cone
//!   hashes even though unrelated edits shifted every node id — which
//!   is exactly what lets a one-gate spec revision reuse the window and
//!   CNF cache entries of every *other* cone.

use eco_aig::{splitmix64, Aig, AigNode, NodeId};

/// Seed for the primary hash lane (FNV-1a 64-bit offset basis).
const LANE_A: u64 = 0xcbf2_9ce4_8422_2325;
/// Seed for the secondary lane, making 128-bit cache keys cheap.
const LANE_B: u64 = 0x9e37_79b9_7f4a_7c15;

/// Incremental content hasher: two independent 64-bit lanes folded
/// over `u64` words with a SplitMix64-style finalizer per word. Not
/// cryptographic — used only for cache keying, where a collision costs
/// a wrong cache hit with probability ~2⁻¹²⁸ per pair.
#[derive(Clone, Copy, Debug)]
pub struct ContentHasher {
    a: u64,
    b: u64,
}

impl ContentHasher {
    /// A hasher seeded with `tag`, which domain-separates key spaces
    /// (window keys never collide with solve keys, etc.).
    pub fn new(tag: u64) -> ContentHasher {
        let mut h = ContentHasher {
            a: LANE_A,
            b: LANE_B,
        };
        h.write(tag);
        h
    }

    /// Folds one word into both lanes.
    pub fn write(&mut self, word: u64) {
        // One `splitmix64` step from a throwaway state is the SplitMix64
        // finalizer.
        self.a = splitmix64(&mut (self.a ^ word));
        self.b =
            splitmix64(&mut (self.b.wrapping_add(word).rotate_left(17) ^ 0xa076_1d64_78bd_642f));
    }

    /// Folds a length-prefixed byte string.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write(u64::from_le_bytes(word));
        }
    }

    /// The primary 64-bit digest.
    pub fn finish(&self) -> u64 {
        splitmix64(&mut (self.a ^ self.b.rotate_left(32)))
    }

    /// Both lanes as one 128-bit digest (cache keys).
    pub fn finish128(&self) -> u128 {
        ((self.finish() as u128) << 64) | splitmix64(&mut (self.b ^ self.a.rotate_left(32))) as u128
    }
}

/// Hashes a length-prefixed byte string (option fingerprints) into one
/// 64-bit digest.
pub(crate) fn hash_bytes(tag: u64, bytes: &[u8]) -> u64 {
    let mut h = ContentHasher::new(tag);
    h.write_bytes(bytes);
    h.finish()
}

/// Representation hash of an AIG: covers the node array in index
/// order, the input list, and the output literals. Equal hashes mean
/// the two AIGs are the same stored structure — same node ids, same
/// everything — so artifacts holding [`NodeId`]s transfer soundly.
pub(crate) fn hash_aig(aig: &Aig) -> u64 {
    let mut h = ContentHasher::new(0x41_49_47);
    h.write(aig.num_nodes() as u64);
    for id in aig.iter_nodes() {
        match aig.node(id) {
            AigNode::Const0 => h.write(0),
            AigNode::Input { index } => {
                h.write(1);
                h.write(index as u64);
            }
            AigNode::And { f0, f1 } => {
                h.write(2);
                h.write(lit_word(f0));
                h.write(lit_word(f1));
            }
        }
    }
    h.write(aig.num_inputs() as u64);
    h.write(aig.num_outputs() as u64);
    for &o in aig.outputs() {
        h.write(lit_word(o));
    }
    h.finish()
}

fn lit_word(l: eco_aig::AigLit) -> u64 {
    ((l.node().index() as u64) << 1) | l.is_complement() as u64
}

/// Canonical hash of the cone of the given primary-output indices:
/// nodes are relabeled in deterministic first-visit order (outputs in
/// the given order, fanin 0 before fanin 1), so the digest is invariant
/// under node renumbering but captures the full DAG shape *including
/// sharing*. Two AIGs with equal cone hashes drive any deterministic
/// cone consumer (miter construction, CNF encoding) to identical
/// results.
pub(crate) fn cone_hash(aig: &Aig, outputs: &[usize]) -> u64 {
    let mut local: Vec<u32> = vec![u32::MAX; aig.num_nodes()];
    let mut order: Vec<NodeId> = Vec::new();
    let mut stack: Vec<NodeId> = Vec::new();
    for &o in outputs {
        stack.push(aig.outputs()[o].node());
        while let Some(n) = stack.pop() {
            if local[n.index()] != u32::MAX {
                continue;
            }
            local[n.index()] = order.len() as u32;
            order.push(n);
            if let AigNode::And { f0, f1 } = aig.node(n) {
                // Push f1 first so f0 is visited (and numbered) first.
                stack.push(f1.node());
                stack.push(f0.node());
            }
        }
    }
    let mut h = ContentHasher::new(0x43_4f_4e_45);
    h.write(order.len() as u64);
    for &n in &order {
        match aig.node(n) {
            AigNode::Const0 => h.write(0),
            AigNode::Input { index } => {
                h.write(1);
                h.write(index as u64);
            }
            AigNode::And { f0, f1 } => {
                h.write(2);
                h.write(((local[f0.node().index()] as u64) << 1) | f0.is_complement() as u64);
                h.write(((local[f1.node().index()] as u64) << 1) | f1.is_complement() as u64);
            }
        }
    }
    h.write(outputs.len() as u64);
    for &o in outputs {
        let l = aig.outputs()[o];
        h.write(o as u64);
        h.write(((local[l.node().index()] as u64) << 1) | l.is_complement() as u64);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cone_hash_ignores_unrelated_nodes() {
        // Two variants of a 2-output spec: o0's cone identical, extra
        // logic ahead of it shifts every node id in variant B.
        let mut a = Aig::new();
        let (x, y) = (a.add_input(), a.add_input());
        let o0 = a.and(x, y);
        let o1 = a.or(x, y);
        a.add_output(o0);
        a.add_output(o1);

        let mut b = Aig::new();
        let (x, y) = (b.add_input(), b.add_input());
        let extra = b.xor(x, y); // allocated *before* o0's cone
        let o0b = b.and(x, y);
        b.add_output(o0b);
        b.add_output(extra);

        assert_eq!(cone_hash(&a, &[0]), cone_hash(&b, &[0]));
        assert_ne!(cone_hash(&a, &[0, 1]), cone_hash(&b, &[0, 1]));
        assert_ne!(hash_aig(&a), hash_aig(&b));
    }

    #[test]
    fn representation_hash_distinguishes_output_polarity() {
        let mut a = Aig::new();
        let x = a.add_input();
        a.add_output(x);
        let mut b = Aig::new();
        let x = b.add_input();
        b.add_output(!x);
        assert_ne!(hash_aig(&a), hash_aig(&b));
        assert_ne!(cone_hash(&a, &[0]), cone_hash(&b, &[0]));
    }
}
