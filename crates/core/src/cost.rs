//! The eight weight distributions of the ICCAD'17 contest benchmarks
//! (Sec. 4.1), synthesized deterministically from circuit structure and
//! a seed: the resource-cost models under which the ECO engine
//! minimizes patch support.

use eco_aig::{splitmix64, Aig};

/// The contest's weight distribution families.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum WeightDistribution {
    /// Distance-aware A: weights grow toward the primary inputs in some
    /// regions.
    T1,
    /// Distance-aware B: weights grow away from the primary inputs in
    /// some regions.
    T2,
    /// Path-aware: nodes on selected input-to-output paths weigh more.
    T3,
    /// Locality-aware: selected neighbourhoods weigh more.
    T4,
    /// Composition of T1 and T3.
    T5,
    /// Composition of T2 and T3.
    T6,
    /// Composition of T1 and T4.
    T7,
    /// Highly mixed, undulating distribution.
    T8,
}

impl WeightDistribution {
    /// All eight distributions, in contest order.
    pub const ALL: [WeightDistribution; 8] = [
        WeightDistribution::T1,
        WeightDistribution::T2,
        WeightDistribution::T3,
        WeightDistribution::T4,
        WeightDistribution::T5,
        WeightDistribution::T6,
        WeightDistribution::T7,
        WeightDistribution::T8,
    ];

    /// Distribution for a 0-based index (wraps at 8).
    pub fn from_index(i: usize) -> WeightDistribution {
        Self::ALL[i % 8]
    }
}

/// Membership in a pseudo-random "region" of the circuit (by node
/// index), deterministic in the seed.
fn in_region(node: usize, seed: u64, fraction_percent: u64) -> bool {
    let mut s = seed ^ (node as u64).wrapping_mul(0xA24B_AED4_963E_E407);
    splitmix64(&mut s) % 100 < fraction_percent
}

/// Generates per-node weights for `aig` under the given distribution,
/// deterministically in `seed`. Weights are in `1..=100` before
/// composition (compositions may reach 200).
pub fn generate_weights(aig: &Aig, dist: WeightDistribution, seed: u64) -> Vec<u64> {
    let levels = aig.levels();
    let max_level = levels.iter().copied().max().unwrap_or(0).max(1);
    let n = aig.num_nodes();
    let base = |node: usize, dist: WeightDistribution, seed: u64| -> u64 {
        let lv = levels[node] as u64;
        let ml = max_level as u64;
        match dist {
            WeightDistribution::T1 => {
                // Larger near the PIs, inside ~half of the circuit.
                if in_region(node, seed, 50) {
                    1 + (ml - lv) * 99 / ml
                } else {
                    10
                }
            }
            WeightDistribution::T2 => {
                if in_region(node, seed, 50) {
                    1 + lv * 99 / ml
                } else {
                    10
                }
            }
            WeightDistribution::T3 => {
                // "Paths": a pseudo-random subset biased by level parity
                // and node hash, giving chains of heavy nodes.
                let mut s = seed ^ 0x7A57;
                let stripe = splitmix64(&mut s) % 7 + 2;
                if (lv + node as u64).is_multiple_of(stripe) && in_region(node, seed ^ 1, 60) {
                    80
                } else {
                    5
                }
            }
            WeightDistribution::T4 => {
                // Locality: contiguous index blocks are heavy.
                let block = node / 64;
                let mut s = seed ^ (block as u64).wrapping_mul(0x9E37);
                if splitmix64(&mut s) % 100 < 40 {
                    90
                } else {
                    5
                }
            }
            WeightDistribution::T8 => {
                // Undulating mixture.
                let mut s = seed ^ (node as u64) ^ lv.rotate_left(17);
                let wave = ((lv * 7) % 20) * 5;
                1 + wave + splitmix64(&mut s) % 40
            }
            _ => unreachable!("compositions handled below"),
        }
    };
    (0..n)
        .map(|node| match dist {
            WeightDistribution::T5 => {
                base(node, WeightDistribution::T1, seed)
                    + base(node, WeightDistribution::T3, seed ^ 0x1111)
            }
            WeightDistribution::T6 => {
                base(node, WeightDistribution::T2, seed)
                    + base(node, WeightDistribution::T3, seed ^ 0x2222)
            }
            WeightDistribution::T7 => {
                base(node, WeightDistribution::T1, seed)
                    + base(node, WeightDistribution::T4, seed ^ 0x3333)
            }
            WeightDistribution::T8 => base(node, WeightDistribution::T8, seed),
            d => base(node, d, seed),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(levels: usize) -> Aig {
        let mut g = Aig::new();
        let a = g.add_input();
        let b = g.add_input();
        let mut x = g.and(a, b);
        for _ in 1..levels {
            x = g.and(x, a);
        }
        g.add_output(x);
        g
    }

    #[test]
    fn weights_are_deterministic() {
        let g = chain(10);
        let w1 = generate_weights(&g, WeightDistribution::T8, 42);
        let w2 = generate_weights(&g, WeightDistribution::T8, 42);
        assert_eq!(w1, w2);
        let w3 = generate_weights(&g, WeightDistribution::T8, 43);
        assert_ne!(w1, w3, "different seeds should differ somewhere");
    }

    #[test]
    fn weights_cover_all_nodes_and_are_positive() {
        let g = chain(6);
        for d in WeightDistribution::ALL {
            let w = generate_weights(&g, d, 7);
            assert_eq!(w.len(), g.num_nodes());
            assert!(w.iter().all(|&x| x >= 1), "{d:?} must be positive");
        }
    }

    #[test]
    fn t1_t2_trend_with_level_inside_region() {
        let g = chain(40);
        let levels = g.levels();
        let w1 = generate_weights(&g, WeightDistribution::T1, 3);
        let w2 = generate_weights(&g, WeightDistribution::T2, 3);
        // Among in-region nodes, T1 decreases with level and T2
        // increases; check the correlation sign on region members by
        // comparing the level-0 vs max-level members.
        let shallow: Vec<usize> = (0..g.num_nodes())
            .filter(|&i| levels[i] <= 2 && w1[i] != 10)
            .collect();
        let deep: Vec<usize> = (0..g.num_nodes())
            .filter(|&i| levels[i] >= 30 && w1[i] != 10)
            .collect();
        if !shallow.is_empty() && !deep.is_empty() {
            let avg = |v: &[usize], w: &[u64]| -> f64 {
                v.iter().map(|&i| w[i] as f64).sum::<f64>() / v.len() as f64
            };
            assert!(avg(&shallow, &w1) > avg(&deep, &w1), "T1 heavy near PIs");
            let shallow2: Vec<usize> = (0..g.num_nodes())
                .filter(|&i| levels[i] <= 2 && w2[i] != 10)
                .collect();
            let deep2: Vec<usize> = (0..g.num_nodes())
                .filter(|&i| levels[i] >= 30 && w2[i] != 10)
                .collect();
            if !shallow2.is_empty() && !deep2.is_empty() {
                assert!(
                    avg(&deep2, &w2) > avg(&shallow2, &w2),
                    "T2 heavy far from PIs"
                );
            }
        }
    }

    #[test]
    fn compositions_exceed_components_somewhere() {
        let g = chain(20);
        let t5 = generate_weights(&g, WeightDistribution::T5, 9);
        let t1 = generate_weights(&g, WeightDistribution::T1, 9);
        assert!(t5.iter().zip(&t1).any(|(&a, &b)| a > b));
    }

    #[test]
    fn index_wraps() {
        assert_eq!(WeightDistribution::from_index(0), WeightDistribution::T1);
        assert_eq!(WeightDistribution::from_index(8), WeightDistribution::T1);
        assert_eq!(WeightDistribution::from_index(15), WeightDistribution::T8);
    }
}
