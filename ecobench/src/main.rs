//! `ecobench`: the end-to-end and per-layer benchmark of the ECO engine
//! and `eco_patchd`. See `ecobench/README.md` for the workloads and the
//! metric table; `run.py` builds this binary and the daemon and is the
//! entry point.
//!
//! ```text
//! ecobench --workload suite_minimize|suite_prune|daemon_stream
//!          --seed N --seconds S --trace 0|1
//!          [--daemon PATH/eco_patchd] [--out-dir DIR]
//! ```
//!
//! The last stdout line is the result object: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`).

mod check;
mod daemon;
mod gen;
mod stats;
mod suite;
mod trace;

use eco_core::{Phase, RunMetrics, SatCallKind, SupportMethod};
use stats::{min, ratio};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, printed by untraced runs: `(name, unit)`.
const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("unit_geomean_ms", "ms"),
    ("cost_geomean", "cost"),
    ("gates_geomean", "gates"),
    ("verified_share", "share"),
    ("peak_rss_mb", "MB"),
    ("throughput_rps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
];

/// The SAT call kinds reported per layer.
const SAT_KINDS: [SatCallKind; 7] = [
    SatCallKind::Qbf,
    SatCallKind::Support,
    SatCallKind::Minimize,
    SatCallKind::CubeEnumeration,
    SatCallKind::SatPruneSearch,
    SatCallKind::CegarMin,
    SatCallKind::Cec,
];

/// The daemon request stages reported per layer.
pub const DAEMON_STAGES: [&str; 6] = [
    "admission",
    "queue_wait",
    "parse",
    "solve",
    "serialize",
    "write_back",
];

/// Per-layer metric names and units, printed by traced runs. A layer
/// that is not on a workload's path reads 0 there.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("netlist.parse_ms", "ms"),
        ("problem.build_ms", "ms"),
        ("engine.solve_ms", "ms"),
        ("netlist.emit_ms", "ms"),
        ("bench.unattributed_ms", "ms"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for phase in Phase::ALL {
        v.push((format!("phase.{}_ms", phase.name()), "ms"));
    }
    v.push(("engine.self_ms".into(), "ms"));
    for kind in SAT_KINDS {
        v.push((format!("sat.{}.calls", kind.name()), "count"));
        v.push((format!("sat.{}.conflicts", kind.name()), "count"));
        v.push((format!("sat.{}.time_ms", kind.name()), "ms"));
    }
    for (n, u) in [
        ("sat.calls", "count"),
        ("sat.time_ms", "ms"),
        ("sat.propagations", "count"),
        ("sat.props_per_s", "1/s"),
        ("sat.conflicts_per_s", "1/s"),
        ("sat.avoided_calls", "count"),
        ("sat.avoided_share", "share"),
        ("cache.window_hit_ratio", "share"),
        ("cache.cnf_hit_ratio", "share"),
        ("cache.target_hit_ratio", "share"),
    ] {
        v.push((n.into(), u));
    }
    for stage in DAEMON_STAGES {
        v.push((format!("daemon.{stage}_p50_ms"), "ms"));
        v.push((format!("daemon.{stage}_p99_ms"), "ms"));
    }
    for (n, u) in [
        ("daemon.netlist_hit_ratio", "share"),
        ("daemon.outcome_hit_ratio", "share"),
        ("daemon.duplicate_solves", "count"),
        ("daemon.worker_busy_share", "share"),
        ("daemon.unattributed_ms", "ms"),
        ("cold_p50_ms", "ms"),
        ("revision_p50_ms", "ms"),
        ("repeat_p50_ms", "ms"),
        ("trace.overhead_share", "share"),
    ] {
        v.push((n.into(), u));
    }
    v
}

/// Named metric values of one run.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// What a workload run measured and how many operations it attempted.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (unit pipeline runs or requests).
    pub attempted: u64,
    /// Operations that failed, were refused, or failed the output check.
    pub failed: u64,
    /// The measured values.
    pub metrics: Metrics,
}

impl Outcome {
    /// Counts one failed operation and reports why on stderr.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= 10 {
            eprintln!("ecobench: failed operation: {why}");
        }
    }
}

/// Engine per-layer metrics from per-run [`RunMetrics`], grouped into
/// blocks (suite passes, or the daemon's whole run). Each metric is a
/// per-block total, the minimum over blocks, times `scale`. `solve_ms`
/// holds each block's solve-span total, which the phases must fit in.
pub fn engine_layers(
    metrics: &mut Metrics,
    blocks: &[Vec<&RunMetrics>],
    solve_ms: &[f64],
    scale: f64,
) {
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let mut totals: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (block, &solve) in blocks.iter().zip(solve_ms) {
        let mut t: BTreeMap<String, f64> = BTreeMap::new();
        let mut add = |k: String, v: f64| *t.entry(k).or_insert(0.0) += v;
        let (mut phases, mut kinds_ms, mut avoided) = (0.0, 0.0, 0.0);
        for run in block {
            for p in &run.phases {
                add(format!("phase.{}_ms", p.phase.name()), ms(p.elapsed));
                phases += ms(p.elapsed);
            }
            let sat = &run.sat_calls;
            for kind in SatCallKind::ALL {
                let k = &sat.by_kind[kind.index()];
                kinds_ms += ms(k.time);
                if SAT_KINDS.contains(&kind) {
                    add(format!("sat.{}.calls", kind.name()), k.calls as f64);
                    add(format!("sat.{}.conflicts", kind.name()), k.conflicts as f64);
                    add(format!("sat.{}.time_ms", kind.name()), ms(k.time));
                }
            }
            add("sat.calls".into(), sat.total as f64);
            add("sat.conflicts".into(), sat.conflicts as f64);
            add("sat.time_ms".into(), ms(sat.time));
            add("sat.propagations".into(), sat.propagations as f64);
            avoided += (run.sweep.oracle_hits + run.classes.inherited_answers) as f64;
            let c = &run.cache;
            for (layer, hits, misses) in [
                ("window", c.window_hits, c.window_misses),
                ("cnf", c.cnf_hits, c.cnf_misses),
                ("target", c.target_hits, c.target_misses),
            ] {
                add(format!("cache.{layer}.hits"), hits as f64);
                add(format!("cache.{layer}.lookups"), (hits + misses) as f64);
            }
        }
        add("sat.avoided_calls".into(), avoided);
        add("engine.self_ms".into(), solve - phases);
        let sat_ms = t.get("sat.time_ms").copied().unwrap_or(0.0);
        let count = |k: &str| t.get(k).copied().unwrap_or(0.0);
        eprintln!(
            "reconcile: phases {phases:.1} ms of {solve:.1} ms solve span (engine self {:.1} ms); \
             by_kind {kinds_ms:.1} ms of {sat_ms:.1} ms SAT time (unattributed {:.3} ms); \
             {} calls, {} conflicts, {} propagations",
            solve - phases,
            sat_ms - kinds_ms,
            count("sat.calls"),
            count("sat.conflicts"),
            count("sat.propagations")
        );
        for (k, v) in t {
            totals.entry(k).or_default().push(v);
        }
    }
    let total = |k: &str| totals.get(k).map_or(0.0, |v| min(v));
    for (name, values) in &totals {
        if !name.starts_with("cache.") && name != "sat.conflicts" {
            metrics.set(name.clone(), min(values) * scale);
        }
    }
    let sat_s = total("sat.time_ms") / 1e3;
    metrics.set("sat.props_per_s", ratio(total("sat.propagations"), sat_s));
    metrics.set("sat.conflicts_per_s", ratio(total("sat.conflicts"), sat_s));
    let avoided = total("sat.avoided_calls");
    metrics.set(
        "sat.avoided_share",
        ratio(avoided, total("sat.calls") + avoided),
    );
    for layer in ["window", "cnf", "target"] {
        metrics.set(
            format!("cache.{layer}_hit_ratio"),
            ratio(
                total(&format!("cache.{layer}.hits")),
                total(&format!("cache.{layer}.lookups")),
            ),
        );
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: Option<PathBuf>,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        daemon: None,
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} requires a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            "--daemon" => args.daemon = Some(PathBuf::from(value)),
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ecobench: {e}");
            return ExitCode::from(2);
        }
    };
    let tracer = args.trace.then(trace::Tracer::new);
    let suite = |scale: f64, method: SupportMethod| suite::Suite {
        scale,
        options: eco_bench::options_for(method, Some(500_000)),
    };
    let outcome = match args.workload.as_str() {
        "suite_minimize" => suite::run(
            &suite(0.03, SupportMethod::MinimizeAssumptions),
            args.seed,
            args.seconds,
            tracer.as_ref(),
        ),
        "suite_prune" => suite::run(
            &suite(0.02, SupportMethod::SatPrune),
            args.seed,
            args.seconds,
            tracer.as_ref(),
        ),
        "daemon_stream" => {
            let Some(bin) = &args.daemon else {
                eprintln!("ecobench: daemon_stream needs --daemon PATH");
                return ExitCode::from(2);
            };
            match daemon::run(bin, &args.out_dir, args.seed, args.seconds, tracer.as_ref()) {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("ecobench: daemon_stream: {e}");
                    return ExitCode::from(1);
                }
            }
        }
        other => {
            eprintln!("ecobench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    if let Some(t) = &tracer {
        let path = args
            .out_dir
            .join(format!("{}-seed{}-spans.json", args.workload, args.seed));
        if let Err(e) = std::fs::create_dir_all(&args.out_dir).and_then(|_| t.write(&path)) {
            eprintln!("ecobench: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
        eprintln!("ecobench: {} spans written to {}", t.len(), path.display());
    }
    let names: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let body: Vec<String> = names
        .iter()
        .map(|(n, u)| {
            // Non-finite values arise only from failed requests, which
            // already make the run incorrect.
            let v = outcome.metrics.get(n);
            let value = if v.is_finite() {
                v.to_string()
            } else {
                "null".into()
            };
            format!("\"{n}\": {{\"value\": {value}, \"unit\": \"{u}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
