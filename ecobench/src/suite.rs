//! The in-process suite workloads. Each unit goes through the CLI
//! pipeline — Verilog text → `parse_verilog` → `EcoProblem::from_netlists`
//! → `snapshot` → cold `EcoEngine::solve` → patched Verilog — pass after
//! pass over the 20 units until the run's time is up.
//!
//! The instances are the canonical Table 1 suite; the seed draws the
//! order of the units in every pass. Offsetting the unit seeds instead
//! changes the instances, and unit20's solve time alone then ranges
//! from 0.7 s to 16 s over seeds 0–5, which no run-to-run bound can
//! absorb.

use crate::check::Model;
use crate::stats::{geomean, median, min, peak_rss_mb, percentile, ratio};
use crate::trace::Tracer;
use crate::{engine_layers, Metrics, Outcome};
use eco_benchgen::{build_unit, render_unit, table1_units, SplitMix64, UnitFiles};
use eco_core::{netlist_patches, EcoEngine, EcoOptions, EcoProblem, RunMetrics, TargetDisposition};
use eco_netlist::{parse_verilog, Netlist, WeightTable};
use std::time::{Duration, Instant};

/// Weight of nets the weight file leaves out (the CLI default).
const DEFAULT_WEIGHT: u64 = 100;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 25;

/// One suite workload: the unit scale and the engine options.
pub struct Suite {
    /// Table 1 scale factor.
    pub scale: f64,
    /// Engine options (the Table 1 harness options of one method).
    pub options: EcoOptions,
}

/// Stage boundaries of one unit's pipeline run.
struct Stages {
    start: Instant,
    parsed: Instant,
    built: Instant,
    solved: Instant,
    emitted: Instant,
}

/// What one unit's pipeline run produced.
struct UnitRun {
    stages: Stages,
    cost: u64,
    gates: usize,
    /// Engine-verified with every target patched.
    clean: bool,
    patched_verilog: String,
    metrics: Option<RunMetrics>,
}

impl UnitRun {
    fn total(&self) -> Duration {
        self.stages.emitted - self.stages.start
    }
}

fn run_unit(
    files: &UnitFiles,
    name: &str,
    options: &EcoOptions,
    tracer: Option<&Tracer>,
) -> Result<UnitRun, String> {
    let start = Instant::now();
    let parsed_impl = parse_verilog(&files.implementation).map_err(|e| e.to_string())?;
    let parsed_spec = parse_verilog(&files.specification).map_err(|e| e.to_string())?;
    let weights = WeightTable::parse(&files.weights).map_err(|e| e.to_string())?;
    let parsed = Instant::now();
    let names: Vec<&str> = parsed_impl.targets.iter().map(String::as_str).collect();
    let conversion = parsed_impl.netlist.to_aig().map_err(|e| e.to_string())?;
    let problem = EcoProblem::from_netlists(
        &parsed_impl.netlist,
        &parsed_spec.netlist,
        &names,
        &weights,
        DEFAULT_WEIGHT,
    )
    .map_err(|e| e.to_string())?;
    let snapshot = problem.snapshot();
    let built = Instant::now();
    let mut engine = EcoEngine::new(options.clone());
    if let Some(t) = tracer {
        engine = engine
            .with_metrics()
            .with_observer(t.engine_observer(name, 0));
    }
    let outcome = engine.solve(&snapshot).map_err(|e| e.to_string())?;
    drop(engine);
    let solved = Instant::now();
    let named = netlist_patches(&outcome, &names, &parsed_impl.netlist, &conversion);
    let patched = if named.iter().all(Option::is_some) {
        let mut current = parsed_impl.netlist.clone();
        for (i, np) in named.iter().flatten().enumerate() {
            current = current
                .insert_patch(&np.target_net, &np.patch, &format!("eco{i}"))
                .map_err(|e| e.to_string())?;
        }
        current
    } else {
        Netlist::from_aig(
            format!("{}_patched", parsed_impl.netlist.name()),
            &outcome.patched_implementation,
        )
    };
    let patched_verilog = patched.to_verilog();
    let emitted = Instant::now();
    if let Some(t) = tracer {
        t.record("unit", name, None, 0, (start, emitted));
        for (stage, span) in [
            ("parse", (start, parsed)),
            ("build", (parsed, built)),
            ("solve", (built, solved)),
            ("emit", (solved, emitted)),
        ] {
            t.record(stage, name, Some("unit"), 0, span);
        }
    }
    let clean = outcome.verified
        && outcome
            .reports
            .iter()
            .all(|r| matches!(r.disposition, TargetDisposition::Patched));
    Ok(UnitRun {
        stages: Stages {
            start,
            parsed,
            built,
            solved,
            emitted,
        },
        cost: outcome.total_cost,
        gates: outcome.total_gates,
        clean,
        patched_verilog,
        metrics: outcome.metrics,
    })
}

/// One pass over the suite.
struct Pass {
    wall: Duration,
    traced: bool,
    runs: Vec<Option<UnitRun>>,
}

/// Runs the workload for `seconds` (at least one pass; a traced run
/// alternates untraced and traced passes and makes at least one of
/// each).
pub fn run(suite: &Suite, seed: u64, seconds: f64, tracer: Option<&Tracer>) -> Outcome {
    let mut setup = Vec::new();
    let mut units = Vec::new();
    let mut files = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        units = table1_units(suite.scale);
        files = units
            .iter()
            .map(|u| render_unit(u, &build_unit(u)))
            .collect();
        setup.push(t.elapsed().as_secs_f64());
    }
    let references: Vec<Result<Model, String>> = files
        .iter()
        .map(|f| Model::from_verilog(&f.specification))
        .collect();

    let mut out = Outcome::default();
    // First clean answer per unit: later passes must repeat it byte for
    // byte.
    let mut first: Vec<Option<String>> = vec![None; units.len()];
    let mut passes: Vec<Pass> = Vec::new();
    let min_passes = if tracer.is_some() { 2 } else { 1 };
    let mut rng = SplitMix64::new(seed);
    let started = Instant::now();
    while passes.len() < min_passes || started.elapsed().as_secs_f64() < seconds {
        let traced = tracer.is_some() && passes.len() % 2 == 1;
        // A seeded shuffle of the units.
        let mut order: Vec<usize> = (0..units.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        let pass_start = Instant::now();
        let mut results: Vec<(usize, Result<UnitRun, String>)> = order
            .into_iter()
            .map(|i| {
                let t = tracer.filter(|_| traced);
                (i, run_unit(&files[i], units[i].name, &suite.options, t))
            })
            .collect();
        let wall = pass_start.elapsed();
        results.sort_by_key(|(i, _)| *i);
        let mut runs = Vec::new();
        for (i, result) in results {
            out.attempted += 1;
            let name = units[i].name;
            let verdict = result.and_then(|run| {
                if !run.clean {
                    return Err("engine left the unit unverified or a target unpatched".into());
                }
                match &first[i] {
                    Some(text) if *text != run.patched_verilog => {
                        Err("patched netlist differs from the first pass".into())
                    }
                    Some(_) => Ok(run),
                    None => {
                        let reference = references[i].as_ref().map_err(Clone::clone)?;
                        reference.check(&Model::from_verilog(&run.patched_verilog)?)?;
                        first[i] = Some(run.patched_verilog.clone());
                        Ok(run)
                    }
                }
            });
            match verdict {
                Ok(run) => runs.push(Some(run)),
                Err(e) => {
                    out.fail(format!("{name}: {e}"));
                    runs.push(None);
                }
            }
        }
        eprintln!(
            "pass {}{}: {:.3} s",
            passes.len(),
            if traced { " traced" } else { "" },
            wall.as_secs_f64()
        );
        passes.push(Pass { wall, traced, runs });
    }

    // The host at times slows identical work (same SAT calls, conflicts
    // and propagations) by up to 60%, and only ever slows it, so suite
    // timings take the fastest pass and each unit's fastest run: the
    // ROADMAP's same-host minimum rule.
    let plain: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let m = &mut out.metrics;
    m.set("setup_s", median(&setup));
    let fastest = plain
        .iter()
        .min_by(|a, b| a.wall.cmp(&b.wall))
        .expect("at least one untraced pass");
    m.set("wall_s", fastest.wall.as_secs_f64());
    m.set(
        "throughput_rps",
        ratio(
            fastest.runs.iter().flatten().count() as f64,
            fastest.wall.as_secs_f64(),
        ),
    );
    let best = |from: usize| -> Vec<f64> {
        (0..units.len())
            .filter_map(|i| {
                plain[from.min(plain.len() - 1)..]
                    .iter()
                    .filter_map(|p| p.runs[i].as_ref().map(|r| ms(r.total())))
                    .min_by(f64::total_cmp)
            })
            .collect()
    };
    let per_unit = best(0);
    m.set("unit_geomean_ms", geomean(&per_unit));
    m.set("latency_p50_ms", percentile(&per_unit, 50.0));
    m.set("latency_p99_ms", percentile(&per_unit, 99.0));
    let first_pass: Vec<f64> = plain[0]
        .runs
        .iter()
        .flatten()
        .map(|r| ms(r.total()))
        .collect();
    m.set("cold_p50_ms", percentile(&first_pass, 50.0));
    // Later passes re-solve identical text; in-process there is no
    // cache, so a repeat costs a cold solve.
    m.set("repeat_p50_ms", percentile(&best(1), 50.0));
    let firsts: Vec<&UnitRun> = (0..units.len())
        .filter_map(|i| passes.iter().find_map(|p| p.runs[i].as_ref()))
        .collect();
    m.set(
        "cost_geomean",
        geomean(
            &firsts
                .iter()
                .map(|r| r.cost as f64 + 1.0)
                .collect::<Vec<_>>(),
        ),
    );
    m.set(
        "gates_geomean",
        geomean(
            &firsts
                .iter()
                .map(|r| r.gates as f64 + 1.0)
                .collect::<Vec<_>>(),
        ),
    );
    m.set(
        "verified_share",
        ratio((out.attempted - out.failed) as f64, out.attempted as f64),
    );
    m.set("peak_rss_mb", peak_rss_mb("self").unwrap_or(0.0));

    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    if !traced.is_empty() {
        layer_metrics(&mut out.metrics, &traced);
        let fastest_traced = traced.iter().map(|p| p.wall).min().expect("non-empty");
        out.metrics.set(
            "trace.overhead_share",
            ratio(fastest_traced.as_secs_f64(), fastest.wall.as_secs_f64()) - 1.0,
        );
    }
    out
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-layer numbers of traced passes: each is a per-pass total, the
/// minimum over passes.
fn layer_metrics(metrics: &mut Metrics, traced: &[&Pass]) {
    let per_pass = |f: &dyn Fn(&UnitRun) -> f64| -> f64 {
        let totals: Vec<f64> = traced
            .iter()
            .map(|p| p.runs.iter().flatten().map(f).sum())
            .collect();
        min(&totals)
    };
    fn s(r: &UnitRun) -> &Stages {
        &r.stages
    }
    metrics.set(
        "netlist.parse_ms",
        per_pass(&|r| ms(s(r).parsed - s(r).start)),
    );
    metrics.set(
        "problem.build_ms",
        per_pass(&|r| ms(s(r).built - s(r).parsed)),
    );
    metrics.set(
        "engine.solve_ms",
        per_pass(&|r| ms(s(r).solved - s(r).built)),
    );
    metrics.set(
        "netlist.emit_ms",
        per_pass(&|r| ms(s(r).emitted - s(r).solved)),
    );
    let unattributed: Vec<f64> = traced
        .iter()
        .map(|p| ms(p.wall) - p.runs.iter().flatten().map(|r| ms(r.total())).sum::<f64>())
        .collect();
    metrics.set("bench.unattributed_ms", min(&unattributed));
    let runs: Vec<Vec<&RunMetrics>> = traced
        .iter()
        .map(|p| {
            p.runs
                .iter()
                .flatten()
                .filter_map(|r| r.metrics.as_ref())
                .collect()
        })
        .collect();
    let solve_ms: Vec<f64> = traced
        .iter()
        .map(|p| {
            p.runs
                .iter()
                .flatten()
                .map(|r| ms(r.stages.solved - r.stages.built))
                .sum()
        })
        .collect();
    engine_layers(metrics, &runs, &solve_ms, 1.0);
}
