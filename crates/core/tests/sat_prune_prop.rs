//! Brute-force validation of `SAT_prune`'s single-target minimality
//! guarantee (Sec. 3.4.2 of the paper): for small random instances,
//! enumerate every divisor subset, find the true minimum-cost feasible
//! support, and require `SAT_prune` to match it exactly.

use eco_aig::{Aig, AigLit, NodeId};
use eco_core::{sat_prune_support, EcoProblem, QuantifiedMiter, SatPruneOptions, SupportSolver};
use eco_testutil::{cases, Rng};

/// Builds a single-target instance: target t = f_wrong(inputs), spec
/// output = f_right(inputs), with extra derived divisor signals.
fn instance(seed: u64) -> (EcoProblem, Vec<NodeId>, Vec<u64>) {
    let mut rng = Rng::new(seed);
    let mut im = Aig::new();
    let inputs: Vec<AigLit> = (0..4).map(|_| im.add_input()).collect();
    // Divisor pool: the inputs plus a few derived signals.
    let mut divisors: Vec<AigLit> = inputs.clone();
    for _ in 0..3 {
        let a = divisors[rng.index(divisors.len())];
        let b = divisors[rng.index(divisors.len())];
        let g = match rng.below(3) {
            0 => im.and(a, b),
            1 => im.or(a, b),
            _ => im.xor(a, b),
        };
        if !g.is_const() && !divisors.iter().any(|d| d.node() == g.node()) {
            divisors.push(g);
        }
    }
    // Keep the divisors observable.
    for &d in &divisors[4..] {
        im.add_output(d);
    }
    // and_fresh: the target must not structurally merge with a divisor
    // (a merged target would appear in its own patch support).
    let t = im.and_fresh(inputs[0], inputs[1]);
    im.add_output(t);
    let t_node = t.node();

    // Specification: implementation with the target's function replaced
    // by a random 2-divisor function (solvable by construction).
    let d1 = divisors[rng.index(divisors.len())];
    let d2 = divisors[rng.index(divisors.len())];
    let mut paig = Aig::new();
    let x = paig.add_input();
    let y = paig.add_input();
    let o = match rng.below(3) {
        0 => paig.and(x, y),
        1 => paig.or(x, y),
        _ => paig.xor(x, y),
    };
    paig.add_output(o);
    let mut patches = std::collections::HashMap::new();
    patches.insert(
        t_node,
        eco_aig::NodePatch {
            aig: paig,
            support: vec![d1, d2],
        },
    );
    let sp = im.substitute(&patches).expect("acyclic");
    let costs: Vec<u64> = (0..divisors.len()).map(|_| 1 + rng.below(9)).collect();
    let mut p = EcoProblem::with_unit_weights(im, sp, vec![t_node]).expect("valid");
    let nodes: Vec<NodeId> = divisors.iter().map(|d| d.node()).collect();
    for (n, &c) in nodes.iter().zip(&costs) {
        p.weights[n.index()] = c;
    }
    (p, nodes, costs)
}

#[test]
fn sat_prune_finds_the_true_minimum() {
    cases(32, |case, rng| {
        let seed = rng.below(5000);
        let (p, divisors, costs) = instance(seed);
        let qm = QuantifiedMiter::build(&p, 0, &[], None);
        let mut ss = SupportSolver::new(&qm, divisors.clone(), costs.clone(), None);
        if !ss.all_feasible().expect("unbudgeted") {
            // The full pool cannot express the patch (possible when the
            // injected change folded into something the divisors cannot
            // see); nothing to compare.
            return;
        }
        // Brute force: try every subset in cost order.
        let n = divisors.len();
        let mut best: Option<u64> = None;
        for mask in 0u32..(1 << n) {
            let subset: Vec<usize> = (0..n).filter(|&i| mask >> i & 1 == 1).collect();
            let cost: u64 = subset.iter().map(|&i| costs[i]).sum();
            if best.is_some_and(|b| cost >= b) {
                continue;
            }
            if ss.subset_feasible(&subset).expect("unbudgeted") {
                best = Some(cost);
            }
        }
        let best = best.expect("full set was feasible");
        let result = sat_prune_support(
            &mut ss,
            None,
            SatPruneOptions {
                max_iterations: 10_000,
            },
        )
        .expect("prune");
        assert!(
            result.exact,
            "case {case}: search must terminate with a proof of optimality"
        );
        assert_eq!(
            result.support.cost, best,
            "case {case} seed {seed}: SAT_prune cost {} != brute force {best}",
            result.support.cost
        );
    });
}
