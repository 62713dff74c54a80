//! `perf_snapshot` — machine-readable performance snapshot of the
//! synthetic Table 1 suite, written as `BENCH_<suite>.json` for CI to
//! upload as an artifact and diff across commits.
//!
//! ```text
//! perf_snapshot [--scale F] [--iters N] [--units N] [--unit NAME]
//!               [--out DIR]
//! ```
//!
//! One record per (unit, method): mean/min wall time plus the key
//! `RunMetrics` counters (SAT calls, conflicts, decisions,
//! propagations, solver µs), the engine's phase split (µs per phase)
//! and the per-kind SAT split (`by_kind`: calls, conflicts, µs), so perf
//! regressions are attributable to solver work vs. engine overhead, and
//! any change to the solver's search shows in the ledger. Phase and
//! per-kind values come from the last iteration.

use eco_bench::run_method;
use eco_benchgen::{build_unit, table1_units};
use eco_core::json::escape_json;
use eco_core::{duration_us, Phase, SatCallKind, SupportMethod};
use std::fmt::Write as _;
use std::time::Duration;

struct Config {
    scale: f64,
    iters: usize,
    units: usize,
    unit: Option<String>,
    out_dir: String,
}

fn parse_config() -> Result<Config, String> {
    let mut config = Config {
        scale: 0.02,
        iters: 2,
        units: usize::MAX,
        unit: None,
        out_dir: ".".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--scale" => {
                config.scale = value("--scale")?
                    .parse()
                    .map_err(|_| "--scale expects a number".to_string())?
            }
            "--iters" => {
                config.iters = value("--iters")?
                    .parse()
                    .map_err(|_| "--iters expects an integer".to_string())?
            }
            "--units" => {
                config.units = value("--units")?
                    .parse()
                    .map_err(|_| "--units expects an integer".to_string())?
            }
            "--unit" => config.unit = Some(value("--unit")?),
            "--out" => config.out_dir = value("--out")?,
            other => {
                return Err(format!(
                    "unknown flag {other:?}\nusage: perf_snapshot [--scale F] \
                     [--iters N] [--units N] [--unit NAME] [--out DIR]"
                ))
            }
        }
    }
    if config.iters == 0 {
        return Err("--iters must be at least 1".to_string());
    }
    Ok(config)
}

fn main() {
    let config = match parse_config() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    // Fail on an unwritable `--out` before any unit is solved.
    if let Err(e) = std::fs::create_dir_all(&config.out_dir) {
        eprintln!("error: cannot create {}: {e}", config.out_dir);
        std::process::exit(1);
    }
    let mut cases = Vec::new();
    for unit in table1_units(config.scale)
        .iter()
        .filter(|u| config.unit.as_deref().is_none_or(|n| n == u.name))
        .take(config.units)
    {
        let problem = build_unit(unit);
        for method in SupportMethod::ALL {
            let method_name = method.name();
            let mut total = Duration::ZERO;
            let mut min = Duration::MAX;
            let mut last = None;
            for _ in 0..config.iters {
                let r = run_method(&problem, method, Some(500_000));
                total += r.time;
                min = min.min(r.time);
                last = Some(r);
            }
            let last = last.expect("iters >= 1");
            let mut record = String::new();
            let _ = write!(
                record,
                "{{\"unit\":\"{}\",\"method\":\"{}\",\"mean_us\":{},\"min_us\":{}",
                escape_json(unit.name),
                escape_json(method_name),
                duration_us(total / config.iters as u32),
                duration_us(min),
            );
            if last.cost == u64::MAX {
                let _ = write!(record, ",\"error\":true");
            } else {
                let _ = write!(
                    record,
                    ",\"cost\":{},\"gates\":{},\"verified\":{}",
                    last.cost, last.gates, last.verified
                );
            }
            if let Some(m) = &last.metrics {
                let _ = write!(
                    record,
                    ",\"sat_calls\":{},\"conflicts\":{},\"decisions\":{},\
                     \"propagations\":{},\"sat_time_us\":{}",
                    m.sat_calls.total,
                    m.sat_calls.conflicts,
                    m.sat_calls.decisions,
                    m.sat_calls.propagations,
                    duration_us(m.sat_calls.time),
                );
                record.push_str(",\"phases_us\":{");
                for (i, phase) in Phase::ALL.iter().enumerate() {
                    let spent: Duration = m
                        .phases
                        .iter()
                        .filter(|p| p.phase == *phase)
                        .map(|p| p.elapsed)
                        .sum();
                    let sep = if i > 0 { "," } else { "" };
                    let _ = write!(record, "{sep}\"{}\":{}", phase.name(), duration_us(spent));
                }
                record.push_str("},\"by_kind\":{");
                for (i, kind) in SatCallKind::ALL.iter().enumerate() {
                    let k = &m.sat_calls.by_kind[i];
                    let sep = if i > 0 { "," } else { "" };
                    let _ = write!(
                        record,
                        "{sep}\"{}\":{{\"calls\":{},\"conflicts\":{},\"time_us\":{}}}",
                        kind.name(),
                        k.calls,
                        k.conflicts,
                        duration_us(k.time),
                    );
                }
                record.push('}');
            }
            record.push('}');
            eprintln!(
                "[bench] {:<8} {:<8} mean={}us",
                unit.name,
                method_name,
                duration_us(total / config.iters as u32)
            );
            cases.push(record);
        }
    }
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"schema_version\":3,\"suite\":\"table1\",\"scale\":{},\"iters\":{},\"cases\":[",
        config.scale, config.iters
    );
    json.push_str(&cases.join(","));
    json.push_str("]}\n");
    let path = format!("{}/BENCH_table1.json", config.out_dir);
    if let Err(e) = std::fs::write(&path, &json) {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("[bench] wrote {path}");
}
