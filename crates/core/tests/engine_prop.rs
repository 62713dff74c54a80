//! Randomized engine invariants beyond verification: cost dominance
//! between methods, report consistency, and idempotence on
//! already-equivalent designs.

use eco_core::{
    check_targets_sufficient, EcoEngine, EcoOptions, EcoProblem, QbfOutcome, SupportMethod,
};
use eco_testutil::cases;

mod common {
    use eco_aig::{Aig, AigLit, NodeId, NodePatch};
    use std::collections::HashMap;

    fn mix(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Deterministic random circuit + injected solvable ECO (standalone
    /// copy so this test crate does not depend on eco-benchgen).
    pub fn instance(gates: usize, bugs: usize, seed: u64) -> Option<(Aig, Aig, Vec<NodeId>)> {
        let mut s = seed;
        let mut im = Aig::new();
        let inputs: Vec<AigLit> = (0..8).map(|_| im.add_input()).collect();
        let mut pool = inputs.clone();
        let mut guard = 0;
        while im.num_ands() < gates && guard < gates * 8 {
            guard += 1;
            let a = pool[(mix(&mut s) as usize) % pool.len()].xor_complement(mix(&mut s) & 1 == 1);
            let b = pool[(mix(&mut s) as usize) % pool.len()].xor_complement(mix(&mut s) & 1 == 1);
            let g = im.and(a, b);
            if !g.is_const() {
                pool.push(g);
            }
        }
        for k in 0..4 {
            im.add_output(pool[pool.len() - 1 - (k % pool.len())]);
        }
        let tfi = im.tfi_mask(im.outputs().iter().map(|o| o.node()).collect::<Vec<_>>());
        let cands: Vec<NodeId> = im.iter_ands().filter(|n| tfi[n.index()]).collect();
        if cands.len() < bugs {
            return None;
        }
        let fanouts = im.fanouts();
        let mut targets = Vec::new();
        let mut guard = 0;
        while targets.len() < bugs && guard < 300 {
            guard += 1;
            let t = cands[(mix(&mut s) as usize) % cands.len()];
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        if targets.len() < bugs {
            return None;
        }
        let tfo = im.tfo_mask(targets.iter().copied(), &fanouts);
        let eligible: Vec<NodeId> = im
            .iter_nodes()
            .filter(|&n| n != NodeId::CONST0 && !tfo[n.index()])
            .collect();
        if eligible.len() < 2 {
            return None;
        }
        let mut patches = HashMap::new();
        for &t in &targets {
            let d1 = eligible[(mix(&mut s) as usize) % eligible.len()];
            let d2 = eligible[(mix(&mut s) as usize) % eligible.len()];
            let mut p = Aig::new();
            let x = p.add_input();
            let y = p.add_input();
            let o = match mix(&mut s) % 3 {
                0 => p.and(x, y),
                1 => p.or(x, y),
                _ => p.xor(x, y),
            };
            p.add_output(o);
            patches.insert(
                t,
                NodePatch {
                    aig: p,
                    support: vec![d1.lit(), d2.lit()],
                },
            );
        }
        let sp = im.substitute(&patches).ok()?;
        Some((im, sp, targets))
    }
}

/// Per-instance, `minimize_assumptions` may occasionally land on a
/// costlier minimal subset than the baseline's final conflict (the
/// paper's own Table 1 shows such regressions on unit9/unit17); the
/// claim is statistical. Check the geomean over a batch of instances.
#[test]
fn minimized_cost_beats_baseline_on_geomean() {
    let mut log_sum = 0.0;
    let mut count = 0usize;
    let mut wins = 0usize;
    let mut losses = 0usize;
    for seed in 0..40u64 {
        let Some((im, sp, targets)) = common::instance(60 + (seed as usize % 60), 1, seed) else {
            continue;
        };
        let p = EcoProblem::with_unit_weights(im, sp, targets).expect("valid");
        if !matches!(
            check_targets_sufficient(&p, 512, None),
            QbfOutcome::Solvable { .. }
        ) {
            continue;
        }
        let run = |method| {
            EcoEngine::new(EcoOptions::builder().method(method).build())
                .solve(&p)
                .expect("engine run")
        };
        let baseline = run(SupportMethod::AnalyzeFinal);
        let minimized = run(SupportMethod::MinimizeAssumptions);
        assert!(baseline.verified && minimized.verified, "seed {seed}");
        if baseline.total_cost > 0 && minimized.total_cost > 0 {
            log_sum += (minimized.total_cost as f64 / baseline.total_cost as f64).ln();
            count += 1;
            if minimized.total_cost < baseline.total_cost {
                wins += 1;
            } else if minimized.total_cost > baseline.total_cost {
                losses += 1;
            }
        }
    }
    assert!(count >= 10, "need enough comparable instances, got {count}");
    let geomean = (log_sum / count as f64).exp();
    assert!(
        geomean <= 1.0 && wins >= losses,
        "expected net improvement: geomean {geomean:.2}, wins {wins}, losses {losses}"
    );
}

#[test]
fn reports_are_consistent() {
    cases(16, |case, rng| {
        let gates = rng.range(40, 120) as usize;
        let bugs = rng.range(1, 3) as usize;
        let seed = rng.range(500, 900);
        let Some((im, sp, targets)) = common::instance(gates, bugs, seed) else {
            return;
        };
        let k = targets.len();
        let p = EcoProblem::with_unit_weights(im, sp, targets).expect("valid");
        if !matches!(
            check_targets_sufficient(&p, 512, None),
            QbfOutcome::Solvable { .. }
        ) {
            return;
        }
        let out = EcoEngine::new(EcoOptions::default())
            .solve(&p)
            .expect("engine run");
        assert!(out.verified, "case {case}");
        assert_eq!(out.reports.len(), k, "case {case}");
        let mut seen: Vec<usize> = out.reports.iter().map(|r| r.target_index).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(
            seen.len(),
            k,
            "case {case}: every target reported exactly once"
        );
        let cost: u64 = out.reports.iter().map(|r| r.cost).sum();
        assert_eq!(cost, out.total_cost, "case {case}");
        let gates_sum: usize = out.reports.iter().map(|r| r.gates).sum();
        assert_eq!(gates_sum, out.total_gates, "case {case}");
    });
}
