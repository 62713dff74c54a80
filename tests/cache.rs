//! Cache-correctness tests for the content-hash cache layers: a warm
//! cache must change wall-clock, never answers. A sequential ECO
//! stream (one design, N spec revisions) through a shared
//! [`EcoCache`] must produce byte-identical patched netlists to
//! cold-cache runs, with per-request hit/miss counts surfaced in the
//! run's [`RunMetrics`]; a tiny capacity must evict without
//! corrupting results.

use eco_patch::aig::Aig;
use eco_patch::core::{EcoCache, EcoEngine, EcoOptions, EcoProblem};
use eco_patch::netlist::Netlist;

/// Implementation: `out0 = AND(a, b)`, `out1 = AND(c, d)` — two
/// targets with disjoint output cones, so the engine batches them and
/// keys each member by its own cone.
fn implementation() -> (Aig, Vec<eco_patch::aig::NodeId>) {
    let mut im = Aig::new();
    let (a, b) = (im.add_input(), im.add_input());
    let (c, d) = (im.add_input(), im.add_input());
    let t0 = im.and(a, b);
    let t1 = im.and(c, d);
    im.add_output(t0);
    im.add_output(t1);
    (im, vec![t0.node(), t1.node()])
}

/// Revision `rev` of the specification: `out0 = OR(a, b)` always;
/// `out1` cycles through functions of `{c, d}` (same support, so the
/// window inputs — and with them target 0's cache keys — stay put).
fn specification(rev: usize) -> Aig {
    let mut sp = Aig::new();
    let (a, b) = (sp.add_input(), sp.add_input());
    let (c, d) = (sp.add_input(), sp.add_input());
    let y0 = sp.or(a, b);
    let y1 = match rev % 3 {
        0 => sp.or(c, d),
        1 => sp.xor(c, d),
        _ => !sp.and(c, d),
    };
    sp.add_output(y0);
    sp.add_output(y1);
    sp
}

fn problem(rev: usize) -> EcoProblem {
    let (im, targets) = implementation();
    EcoProblem::with_unit_weights(im, specification(rev), targets).expect("valid problem")
}

fn options() -> EcoOptions {
    EcoOptions::builder()
        .per_call_conflicts(Some(100_000))
        .build()
}

/// The byte-level deliverable of an outcome: the patched netlist as
/// Verilog text (deterministic given the patched AIG).
fn emitted(outcome: &eco_patch::core::EcoOutcome) -> String {
    Netlist::from_aig("patched", &outcome.patched_implementation).to_verilog()
}

#[test]
fn sequential_eco_stream_is_byte_identical_to_cold_cache() {
    let cache = EcoCache::new(64);
    for rev in 0..3 {
        let snapshot = problem(rev).snapshot();
        let warm = EcoEngine::new(options())
            .with_metrics()
            .with_cache(cache.clone())
            .solve(&snapshot)
            .expect("warm run solves");
        let cold = EcoEngine::new(options())
            .with_metrics()
            .solve(&snapshot)
            .expect("cold run solves");

        assert!(warm.verified && cold.verified, "rev {rev}: both verify");
        assert_eq!(
            emitted(&warm),
            emitted(&cold),
            "rev {rev}: warm and cold patched netlists must be byte-identical"
        );
        assert_eq!(warm.total_cost, cold.total_cost, "rev {rev}");
        assert_eq!(warm.total_gates, cold.total_gates, "rev {rev}");
        let warm_dispositions: Vec<_> =
            warm.reports.iter().map(|r| r.disposition.clone()).collect();
        let cold_dispositions: Vec<_> =
            cold.reports.iter().map(|r| r.disposition.clone()).collect();
        assert_eq!(warm_dispositions, cold_dispositions, "rev {rev}");

        // Per-request hit/miss accounting rides in the RunMetrics.
        let counters = warm.metrics.as_ref().expect("with_metrics was set").cache;
        if rev == 0 {
            assert_eq!(counters.window_hits, 0, "first revision is all misses");
            assert_eq!(counters.target_hits, 0, "first revision is all misses");
            assert!(counters.target_misses > 0);
        } else {
            // A one-gate spec revision: target 0's cone is untouched,
            // so its solved entry is served from the cache while the
            // revised target 1 recomputes.
            assert!(
                counters.target_hits >= 1,
                "rev {rev}: the untouched target must hit, got {counters:?}"
            );
            assert!(
                counters.target_misses >= 1,
                "rev {rev}: the revised target must miss, got {counters:?}"
            );
        }
        let cold_counters = cold.metrics.as_ref().expect("with_metrics was set").cache;
        assert_eq!(cold_counters.window_hits + cold_counters.target_hits, 0);
    }

    // Replaying the last revision verbatim hits every layer.
    let snapshot = problem(2).snapshot();
    let replay = EcoEngine::new(options())
        .with_metrics()
        .with_cache(cache.clone())
        .solve(&snapshot)
        .expect("replay solves");
    let counters = replay.metrics.as_ref().expect("with_metrics was set").cache;
    assert_eq!(counters.window_hits, 1, "identical problem: window hits");
    assert_eq!(
        counters.target_hits, 2,
        "identical problem: both targets hit"
    );
    assert_eq!(counters.target_misses, 0, "{counters:?}");
    assert!(
        replay.reports.iter().all(|r| r.sat_calls == 0),
        "cache-served targets spend no solver work"
    );
}

#[test]
fn weight_sweep_reuses_cnf_builds_across_requests() {
    // Same subproblem, different weights: the solve key changes (the
    // ladder reads weights) but the quantified-miter key does not, so
    // the second request hits the CNF layer while re-solving.
    let cache = EcoCache::new(64);
    let (im, targets) = implementation();
    let unit = EcoProblem::with_unit_weights(im.clone(), specification(0), targets.clone())
        .expect("valid problem");
    let weighted = EcoProblem::new(
        im.clone(),
        specification(0),
        targets,
        vec![3; im.num_nodes()],
    )
    .expect("valid problem");
    let first = EcoEngine::new(options())
        .with_metrics()
        .with_cache(cache.clone())
        .solve(&unit.snapshot())
        .expect("solves");
    let second = EcoEngine::new(options())
        .with_metrics()
        .with_cache(cache.clone())
        .solve(&weighted.snapshot())
        .expect("solves");
    assert!(first.verified && second.verified);
    let counters = second.metrics.as_ref().expect("with_metrics was set").cache;
    assert_eq!(
        counters.target_hits, 0,
        "weights differ: no solved-target reuse"
    );
    assert!(
        counters.cnf_hits >= 1,
        "the weight sweep must reuse CNF builds, got {counters:?}"
    );
    assert_eq!(
        counters.window_hits, 1,
        "windowing ignores weights: {counters:?}"
    );
}

#[test]
fn tiny_capacity_evicts_without_corrupting_answers() {
    // Capacity 1 per layer: alternating two revisions thrashes every
    // layer, forcing evictions; answers must stay byte-identical to
    // cold-cache runs throughout.
    let cache = EcoCache::new(1);
    for step in 0..4 {
        let rev = step % 2;
        let snapshot = problem(rev).snapshot();
        let warm = EcoEngine::new(options())
            .with_cache(cache.clone())
            .solve(&snapshot)
            .expect("warm run solves");
        let cold = EcoEngine::new(options())
            .solve(&snapshot)
            .expect("cold run solves");
        assert_eq!(
            emitted(&warm),
            emitted(&cold),
            "step {step} (rev {rev}): eviction must not change answers"
        );
    }
    assert!(
        cache.stats().evictions > 0,
        "alternating revisions at capacity 1 must evict: {:?}",
        cache.stats()
    );
}

#[test]
fn concurrent_solves_sharing_a_cache_fill_each_layer_once() {
    // Eight engines solve the same problem at once through one cache:
    // single-flight fills mean one window computation, one solve per
    // target, and one CNF build per target; every other lookup waits
    // for those fills and hits.
    const SOLVERS: usize = 8;
    let cache = EcoCache::new(64);
    let snapshot = problem(0).snapshot();
    let cold = EcoEngine::new(options())
        .solve(&snapshot)
        .expect("cold run solves");
    let barrier = std::sync::Barrier::new(SOLVERS);
    let warm: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SOLVERS)
            .map(|_| {
                s.spawn(|| {
                    let engine = EcoEngine::new(options()).with_cache(cache.clone());
                    barrier.wait();
                    emitted(&engine.solve(&snapshot).expect("warm run solves"))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect()
    });
    assert!(
        warm.iter().all(|w| *w == emitted(&cold)),
        "every concurrent answer is byte-identical to the cold run"
    );
    let stats = cache.stats();
    assert_eq!(stats.window_misses, 1, "{stats:?}");
    assert_eq!(stats.target_misses, 2, "{stats:?}");
    assert_eq!(stats.cnf_misses, 2, "{stats:?}");
}
