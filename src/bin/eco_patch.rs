//! `eco-patch` — command-line ECO patch generation in the ICCAD'17
//! contest style.
//!
//! ```text
//! eco-patch --impl F.v --spec G.v [--weights W.txt] [--targets n1,n2]
//!           [--detect] [--method baseline|minimize|prune]
//!           [--out patched.v] [--budget N] [--default-weight N]
//!           [--stats-json stats.json|-] [--progress] [--quiet]
//!           [--no-fallback] [--timeout-ms MS] [--global-budget N]
//!           [--trace-out trace.json]
//! eco-patch report <trace.json> [--top N]
//! eco-patch report --journal <journal.jsonl>
//! ```
//!
//! Targets come from `--targets`, from `// eco_target <net>` directives
//! in the implementation file, or from automatic detection (`--detect`).
//! The patched netlist is written to `--out` (stdout by default), with
//! per-target patch reports on stderr.
//!
//! Stream discipline: stdout carries machine-readable output only (the
//! patched netlist, or the stats JSON with `--stats-json -`); progress,
//! reports, and diagnostics go to stderr.
//!
//! `--trace-out` streams every engine event to a Chrome `trace_event`
//! document (loadable in Perfetto). `eco-patch report` replays such a
//! document — written by `--trace-out` here or by `eco_patchd
//! --trace-out` — and prints the time/conflict breakdown by phase,
//! target, and call kind plus the most expensive calls;
//! `eco-patch report --journal` instead analyzes an `eco_patchd`
//! `--log-jsonl` event journal (per-command latency percentiles,
//! shed/expired/panic counts, queue-wait vs solve-time attribution,
//! cache hit-rate trajectory).
//!
//! `--timeout-ms` sets a wall-clock deadline and `--global-budget` a
//! run-wide conflict pool; when either trips, the run degrades
//! gracefully (per-target `degraded`/`skipped` dispositions in the
//! report) instead of aborting, and the process exits with code 5.
//!
//! Exit codes: 0 success, 1 generic failure, 2 bad usage, 3 target set
//! insufficient, 4 SAT budget exhausted, 5 deadline exceeded or run
//! cancelled.

use eco_patch::core::trace::{check_span_integrity, render_report, summarize_trace, ChromeTrace};
use eco_patch::core::{
    detect_targets, netlist_patches, patched_netlist, EcoEngine, EcoError, EcoEvent, EcoObserver,
    EcoOptions, EcoProblem, GovernorLimits, ResourceGovernor, SupportMethod, TripReason,
};
use eco_patch::daemon::journal::{render_journal_report, summarize_journal};
use eco_patch::netlist::{parse_verilog, WeightTable};
use std::fs::File;
use std::io::BufWriter;
use std::process::ExitCode;
use std::time::Duration;

const EXIT_USAGE: u8 = 2;
const EXIT_INSUFFICIENT: u8 = 3;
const EXIT_BUDGET: u8 = 4;
const EXIT_DEADLINE: u8 = 5;

/// A CLI failure with its process exit code.
struct CliError {
    code: u8,
    message: String,
}

impl CliError {
    fn general(message: impl Into<String>) -> CliError {
        CliError {
            code: 1,
            message: message.into(),
        }
    }

    fn usage(message: impl std::fmt::Display) -> CliError {
        CliError {
            code: EXIT_USAGE,
            message: format!("{message}\n{}", usage()),
        }
    }

    fn engine(err: EcoError) -> CliError {
        // Deadline/cancellation outranks the generic resource-exhausted
        // class it belongs to.
        let code = if matches!(
            err,
            EcoError::DeadlineExceeded { .. } | EcoError::Cancelled { .. }
        ) {
            EXIT_DEADLINE
        } else if matches!(err, EcoError::TargetsInsufficient { .. }) {
            EXIT_INSUFFICIENT
        } else if err.is_resource_exhausted() {
            EXIT_BUDGET
        } else {
            1
        };
        CliError {
            code,
            message: err.to_string(),
        }
    }
}

#[derive(Debug, Default)]
struct Args {
    impl_path: Option<String>,
    spec_path: Option<String>,
    weights_path: Option<String>,
    targets: Vec<String>,
    detect: bool,
    method: Option<String>,
    out: Option<String>,
    budget: Option<u64>,
    default_weight: u64,
    stats_json: Option<String>,
    progress: bool,
    quiet: bool,
    no_fallback: bool,
    timeout_ms: Option<u64>,
    global_budget: Option<u64>,
    trace_out: Option<String>,
}

fn usage() -> &'static str {
    "usage: eco-patch --impl F.v --spec G.v [--weights W.txt] \
     [--targets n1,n2] [--detect] [--method baseline|minimize|prune] \
     [--out patched.v] [--budget CONFLICTS] [--default-weight N] \
     [--stats-json PATH|-] [--progress] [--quiet] [--no-fallback] \
     [--timeout-ms MS] [--global-budget CONFLICTS] \
     [--trace-out PATH]\n\
     \x20      eco-patch report TRACE.json [--top N]\n\
     \x20      eco-patch report --journal JOURNAL.jsonl"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        default_weight: 100,
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--impl" => args.impl_path = Some(value("--impl")?),
            "--spec" => args.spec_path = Some(value("--spec")?),
            "--weights" => args.weights_path = Some(value("--weights")?),
            "--targets" => {
                args.targets = value("--targets")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .collect()
            }
            "--detect" => args.detect = true,
            "--method" => args.method = Some(value("--method")?),
            "--out" => args.out = Some(value("--out")?),
            "--budget" => {
                args.budget = Some(
                    value("--budget")?
                        .parse()
                        .map_err(|_| "--budget expects an integer".to_string())?,
                )
            }
            "--default-weight" => {
                args.default_weight = value("--default-weight")?
                    .parse()
                    .map_err(|_| "--default-weight expects an integer".to_string())?
            }
            "--stats-json" => args.stats_json = Some(value("--stats-json")?),
            "--progress" => args.progress = true,
            "--quiet" => args.quiet = true,
            "--no-fallback" => args.no_fallback = true,
            "--timeout-ms" => {
                args.timeout_ms = Some(
                    value("--timeout-ms")?
                        .parse()
                        .map_err(|_| "--timeout-ms expects an integer".to_string())?,
                )
            }
            "--global-budget" => {
                args.global_budget = Some(
                    value("--global-budget")?
                        .parse()
                        .map_err(|_| "--global-budget expects an integer".to_string())?,
                )
            }
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    if args.impl_path.is_none() || args.spec_path.is_none() {
        return Err(format!("--impl and --spec are required\n{}", usage()));
    }
    if args.stats_json.as_deref() == Some("-") && args.out.is_none() {
        return Err(format!(
            "--stats-json - writes the metrics to stdout and requires --out \
             for the netlist\n{}",
            usage()
        ));
    }
    Ok(args)
}

/// Streams phase/target progress lines to stderr as the engine runs.
struct ProgressObserver;

impl EcoObserver for ProgressObserver {
    fn on_event(&mut self, event: &EcoEvent) {
        match event {
            EcoEvent::RunStarted { num_targets, .. } => {
                eprintln!("[eco] run started: {num_targets} target(s)")
            }
            EcoEvent::PhaseStarted { phase } => eprintln!("[eco] {} ...", phase.name()),
            EcoEvent::PhaseFinished { phase, elapsed } => {
                eprintln!("[eco] {} done in {elapsed:.2?}", phase.name())
            }
            EcoEvent::TargetStarted { target_index, .. } => {
                eprintln!("[eco]   target {target_index} ...")
            }
            EcoEvent::TargetFinished {
                target_index,
                sat_calls,
                elapsed,
                ..
            } => {
                eprintln!(
                    "[eco]   target {target_index} done: {sat_calls} SAT call(s) in {elapsed:.2?}"
                )
            }
            EcoEvent::StructuralFallback { target_index } => {
                eprintln!("[eco]   target {target_index}: structural fallback")
            }
            EcoEvent::GovernorTripped { reason } => {
                eprintln!("[eco] governor tripped: {reason}")
            }
            EcoEvent::LadderStep { target_index, rung } => {
                eprintln!("[eco]   target {target_index}: ladder -> {}", rung.name())
            }
            _ => {}
        }
    }
}

/// `eco-patch report TRACE.json [--top N]`: replay a Chrome engine
/// trace (one CLI run or a whole `eco_patchd` session) and print its
/// profile to stdout. With `--journal FILE` the
/// input is instead an `eco_patchd --log-jsonl` event journal, and the
/// report shows serving behavior: per-command latency percentiles,
/// shed/expired/panic counts, queue-wait vs solve-time attribution,
/// and the cache hit-rate trajectory.
fn run_report(rest: &[String]) -> Result<u8, CliError> {
    let mut path: Option<String> = None;
    let mut journal: Option<String> = None;
    let mut top = 5usize;
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--top" => {
                i += 1;
                top = rest
                    .get(i)
                    .ok_or_else(|| CliError::usage("--top requires a value"))?
                    .parse()
                    .map_err(|_| CliError::usage("--top expects an integer"))?;
            }
            "--journal" => {
                i += 1;
                journal = Some(
                    rest.get(i)
                        .ok_or_else(|| CliError::usage("--journal requires a file"))?
                        .clone(),
                );
            }
            other if path.is_none() && !other.starts_with("--") => path = Some(other.to_string()),
            other => return Err(CliError::usage(format!("unexpected argument {other:?}"))),
        }
        i += 1;
    }
    if let Some(path) = journal {
        if path.is_empty() {
            return Err(CliError::usage("--journal requires a file"));
        }
        let text = std::fs::read_to_string(&path)
            .map_err(|e| CliError::general(format!("cannot read {path}: {e}")))?;
        let summary = summarize_journal(&text).map_err(CliError::general)?;
        print!("{}", render_journal_report(&summary));
        return Ok(0);
    }
    let path = path.ok_or_else(|| CliError::usage("report requires a trace file"))?;
    let text = std::fs::read_to_string(&path)
        .map_err(|e| CliError::general(format!("cannot read {path}: {e}")))?;
    if let Err(e) = check_span_integrity(&text) {
        eprintln!("warning: {e}");
    }
    let summary = summarize_trace(&text, top).map_err(CliError::general)?;
    print!("{}", render_report(&summary));
    Ok(0)
}

fn run(args: Args) -> Result<u8, CliError> {
    let read = |path: &str| -> Result<String, CliError> {
        std::fs::read_to_string(path)
            .map_err(|e| CliError::general(format!("cannot read {path}: {e}")))
    };
    let impl_text = read(args.impl_path.as_deref().expect("validated"))?;
    let spec_text = read(args.spec_path.as_deref().expect("validated"))?;
    let parsed_impl = parse_verilog(&impl_text).map_err(|e| CliError::general(e.to_string()))?;
    let parsed_spec = parse_verilog(&spec_text).map_err(|e| CliError::general(e.to_string()))?;
    let weights = match &args.weights_path {
        Some(p) => WeightTable::parse(&read(p)?).map_err(|e| CliError::general(e.to_string()))?,
        None => WeightTable::new(),
    };

    // Resolve targets: flag > file directives > detection.
    let mut target_names: Vec<String> = if !args.targets.is_empty() {
        args.targets.clone()
    } else {
        parsed_impl.targets.clone()
    };
    let conversion = parsed_impl
        .netlist
        .to_aig()
        .map_err(|e| CliError::general(e.to_string()))?;
    // The spec is converted once, for detection and the problem alike.
    let convert_spec = || {
        parsed_spec.netlist.to_aig().map_err(|e| {
            CliError::engine(EcoError::InvalidProblem {
                message: format!("specification: {e}"),
            })
        })
    };
    let mut spec_aig = None;
    if target_names.is_empty() {
        if !args.detect {
            return Err(CliError::usage(
                "no targets: pass --targets, add // eco_target directives, or use --detect",
            ));
        }
        let spec = spec_aig.insert(convert_spec()?.aig);
        let detected = detect_targets(
            &conversion.aig,
            spec,
            args.budget.or(EcoOptions::default().per_call_conflicts),
        )
        .map_err(CliError::engine)?;
        if !detected.sufficient {
            return Err(CliError {
                code: EXIT_INSUFFICIENT,
                message: "detection could not find a sufficient target set".to_string(),
            });
        }
        // Name the detected nodes through the net map.
        for node in &detected.targets {
            let mut found = None;
            for idx in 0..parsed_impl.netlist.num_nets() {
                let lit = conversion.net_lits[idx];
                if lit.node() == *node {
                    found = Some(
                        parsed_impl
                            .netlist
                            .net_name(eco_patch::netlist::NetId::from_index(idx))
                            .to_string(),
                    );
                    break;
                }
            }
            target_names.push(found.ok_or_else(|| {
                CliError::general(format!(
                    "detected node {node} has no named net; rerun with --targets"
                ))
            })?);
        }
        if !args.quiet {
            eprintln!("detected targets: {target_names:?}");
        }
    }

    let method = SupportMethod::from_name(args.method.as_deref().unwrap_or("minimize"))
        .map_err(CliError::usage)?;
    let names: Vec<&str> = target_names.iter().map(String::as_str).collect();
    let spec_aig = match spec_aig {
        Some(aig) => aig,
        None => convert_spec()?.aig,
    };
    let problem = EcoProblem::from_conversion(
        &parsed_impl.netlist,
        &conversion,
        &spec_aig,
        &names,
        &weights,
        args.default_weight,
    )
    .map_err(CliError::engine)?;
    // Without `--budget` the engine's default per-call budget applies.
    let mut options = EcoOptions::builder()
        .method(method)
        .structural_fallback(!args.no_fallback);
    if args.budget.is_some() {
        options = options.per_call_conflicts(args.budget);
    }
    let mut engine = EcoEngine::new(options.build());
    if args.progress {
        engine = engine.with_observer(ProgressObserver);
    }
    if args.stats_json.is_some() {
        engine = engine.with_metrics();
    }
    let mut trace = None;
    if let Some(path) = &args.trace_out {
        let file = File::create(path)
            .map_err(|e| CliError::general(format!("cannot write {path}: {e}")))?;
        let doc = ChromeTrace::new(Box::new(BufWriter::new(file)));
        engine = engine.with_observer(doc.observer(doc.open_lane(), None));
        trace = Some(doc);
    }
    // The run's limits; the deadline clock starts here. `--timeout-ms 0`
    // means "already expired": an anytime outcome and exit code 5.
    if args.timeout_ms.is_some() || args.global_budget.is_some() {
        engine = engine.with_governor(ResourceGovernor::new(GovernorLimits {
            timeout: args.timeout_ms.map(Duration::from_millis),
            global_conflicts: args.global_budget,
            ..GovernorLimits::default()
        }));
    }
    let run_result = engine.solve(&problem);
    // The trace file is finished even when the run errors, so aborted
    // runs still leave a loadable (if truncated) trace behind.
    if let Some(trace) = trace {
        let path = args.trace_out.as_deref().unwrap_or("trace");
        trace
            .finish()
            .map_err(|e| CliError::general(format!("cannot write {path}: {e}")))?;
    }
    let outcome = run_result.map_err(CliError::engine)?;
    if let Some(path) = &args.stats_json {
        let metrics = outcome.metrics.as_ref().expect("with_metrics was set");
        if path == "-" {
            println!("{}", metrics.to_json());
        } else {
            std::fs::write(path, metrics.to_json())
                .map_err(|e| CliError::general(format!("cannot write {path}: {e}")))?;
        }
    }
    if !args.quiet {
        eprintln!(
            "solved: cost={} patch_gates={} verified={} in {:.2?}",
            outcome.total_cost, outcome.total_gates, outcome.verified, outcome.elapsed
        );
        if let Some(trip) = outcome.governor_trip {
            eprintln!("governor tripped ({trip}); partial (anytime) result");
        }
        for r in &outcome.reports {
            eprintln!(
                "  target {} ({:?}, {}): support={} cost={} gates={}",
                target_names
                    .get(r.target_index)
                    .map(String::as_str)
                    .unwrap_or("?"),
                r.kind,
                r.disposition,
                r.support_size,
                r.cost,
                r.gates
            );
        }
    }

    // Prefer name-preserving splices; fall back to the rebuilt netlist.
    let named = netlist_patches(&outcome, &names, &parsed_impl.netlist, &conversion);
    let (patched, spliced) = patched_netlist(&outcome, &named, &parsed_impl.netlist)
        .map_err(|e| CliError::general(e.to_string()))?;
    if !spliced && !args.quiet {
        eprintln!("note: patches cannot be spliced by name; emitting rebuilt netlist");
    }
    let text = patched.to_verilog();
    match &args.out {
        Some(path) => std::fs::write(path, text)
            .map_err(|e| CliError::general(format!("cannot write: {e}")))?,
        None => print!("{text}"),
    }
    // Outputs are written even for anytime results; the exit code
    // still distinguishes a deadline/cancellation cut-off.
    let code = match outcome.governor_trip {
        Some(TripReason::Deadline | TripReason::Cancelled) => EXIT_DEADLINE,
        _ => 0,
    };
    Ok(code)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("report") {
        return match run_report(&argv[1..]) {
            Ok(code) => ExitCode::from(code),
            Err(e) => {
                eprintln!("error: {e}", e = e.message);
                ExitCode::from(e.code)
            }
        };
    }
    match parse_args() {
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(EXIT_USAGE)
        }
        Ok(args) => match run(args) {
            Ok(code) => ExitCode::from(code),
            Err(e) => {
                eprintln!("error: {e}", e = e.message);
                ExitCode::from(e.code)
            }
        },
    }
}
