//! Byte-identity suite for the `SAT_prune` class layer: it may only
//! answer a probe whose verdict a stored witness pair (`Sat`) or a
//! proven-feasible subset (`Unsat`) already forces, so it must never
//! move a support, a patch, a cost, a disposition, or a byte of the
//! patched netlist. The reference is a digest of every Table 1 unit at
//! scale 0.02 under each support method with the bench harness options,
//! recorded before the layer was switched on. Every avoided call must
//! show up in the two savings counters.

use eco_patch::benchgen::{build_unit, table1_units, UnitSpec};
use eco_patch::core::{
    EcoEngine, EcoOptions, EcoOutcome, RunMetrics, SatPruneOptions, SupportMethod,
};
use eco_patch::netlist::Netlist;

const SCALE: f64 = 0.02;

/// Per-call conflict budget of the bench harness (`perf_snapshot`).
const BUDGET: u64 = 500_000;

const METHODS: [SupportMethod; 3] = [
    SupportMethod::AnalyzeFinal,
    SupportMethod::MinimizeAssumptions,
    SupportMethod::SatPrune,
];

/// Recorded digests, one row per unit, columns in [`METHODS`] order.
#[rustfmt::skip]
const GOLDEN: [(&str, [u64; 3]); 20] = [
    ("unit1", [0xe6a616fba3161f7a, 0xe6a616fba3161f7a, 0xe6a616fba3161f7a]),
    ("unit2", [0xf201f79cea946d46, 0x29dc97c718eed40d, 0x622b87c34340531d]),
    ("unit3", [0xca7304e2b844319c, 0xfe060bb54a084209, 0x961a118cdd18aafc]),
    ("unit4", [0x768434e601da6abe, 0x317b1d432d8d24f3, 0x2ef0af8baf5d7fac]),
    ("unit5", [0x2f555fcbbab0f342, 0x2730ad4b39b9b520, 0x2730ad4b39b9b520]),
    ("unit6", [0x7bd4f2c17cdfa80f, 0x6047f9adbb008ee6, 0xb6cc4ec39f6a0a1d]),
    ("unit7", [0xeef7d3773b577902, 0xd135618e824eb22c, 0xd135618e824eb22c]),
    ("unit8", [0x4658e28dd33e62e8, 0x4658e28dd33e62e8, 0x4658e28dd33e62e8]),
    ("unit9", [0xdac5fa1bba729185, 0x689e75d01b97c1d, 0xd3f18106a9d06451]),
    ("unit10", [0xbcad6cc6a6d96dcd, 0x27e8e58a7ed32fc, 0xecb4e85e61946bf2]),
    ("unit11", [0x123c8dfe5b1ab117, 0xeb7da51943eac5d4, 0x5125b1d39412ef81]),
    ("unit12", [0x9673514aca00f89c, 0x9673514aca00f89c, 0x9673514aca00f89c]),
    ("unit13", [0x14547e9c5ca0d90, 0x3310fd16ca78290, 0x7bf782645d3b5728]),
    ("unit14", [0x62d341f2aedc67d, 0x9ff569f2ef92c255, 0x194fcb69388e080]),
    ("unit15", [0xf0f6cdb26ea22e52, 0x6dad8f3324651fb3, 0x52ee51c12e9c6d9f]),
    ("unit16", [0x409c4be86ec8e605, 0xe918990d2a352e73, 0x39013d011b4c013f]),
    ("unit17", [0x62607c645b01fcf, 0xb19cd5ca5c59f1ff, 0xebe0e94b9deba221]),
    ("unit18", [0x873d835ef20721bc, 0xa1f30056503b70cb, 0xf64ab58891688f96]),
    ("unit19", [0xb503abbfd572224a, 0x3eedcce580b457af, 0x5b4eb9924803bb68]),
    ("unit20", [0xb71a365ae2b9c1c9, 0xa75276da98888f1b, 0x5e7ba0456aa07adb]),
];

/// The Table 1 harness options of one method column.
fn harness_options(method: SupportMethod) -> EcoOptions {
    EcoOptions::builder()
        .method(method)
        .cegar_min(method == SupportMethod::SatPrune)
        .per_call_conflicts(Some(BUDGET))
        .sat_prune(SatPruneOptions {
            max_iterations: 400,
            per_call_conflicts: Some(BUDGET / 4),
        })
        .build()
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Digest of everything a caller can observe of an outcome except
/// timing and telemetry.
fn digest(outcome: &EcoOutcome) -> u64 {
    let mut text = format!(
        "{:?}\ncost={} gates={} verified={}\n",
        outcome.reports, outcome.total_cost, outcome.total_gates, outcome.verified
    );
    for p in &outcome.patches {
        text.push_str(&format!(
            "target={} support={:?} original={:?}\n{}",
            p.target_index,
            p.support,
            p.original_support,
            Netlist::from_aig("patch".to_string(), &p.aig).to_verilog()
        ));
    }
    text.push_str(
        &Netlist::from_aig("patched".to_string(), &outcome.patched_implementation).to_verilog(),
    );
    fnv1a(text.as_bytes())
}

fn solve(unit: &UnitSpec, method: SupportMethod) -> EcoOutcome {
    EcoEngine::new(harness_options(method))
        .with_metrics()
        .solve(&build_unit(unit).snapshot())
        .unwrap_or_else(|e| panic!("{} {method:?}: {e}", unit.name))
}

#[test]
fn classes_on_matches_classes_off_byte_for_byte() {
    let actual: Vec<(&str, [u64; 3])> = table1_units(SCALE)
        .iter()
        .map(|unit| {
            (
                unit.name,
                METHODS.map(|method| digest(&solve(unit, method))),
            )
        })
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, row)| {
            format!(
                "    (\"{name}\", [{:#x}, {:#x}, {:#x}]),\n",
                row[0], row[1], row[2]
            )
        })
        .collect();
    assert_eq!(
        actual.as_slice(),
        GOLDEN.as_slice(),
        "suite digests moved; actual table:\n{table}"
    );
}

#[test]
fn classes_never_add_sat_calls_on_unit20() {
    // The layer answers SAT_prune's subset probes: unit20 drops from
    // 1733 observed calls to at most 933, and every avoided call is
    // accounted for in the two savings counters.
    let unit = table1_units(SCALE)
        .into_iter()
        .find(|u| u.name == "unit20")
        .expect("unit20 exists");
    let outcome = solve(&unit, SupportMethod::SatPrune);
    let m: &RunMetrics = outcome.metrics.as_ref().expect("metrics requested");
    let saved = m.sweep.oracle_hits + m.classes.inherited_answers;
    assert!(saved > 0, "the class layer answered nothing");
    assert!(
        m.sat_calls.total <= 933,
        "unit20 prune observed {} SAT calls",
        m.sat_calls.total
    );
    let reported: u64 = m.targets.iter().map(|t| t.sat_calls).sum();
    let observed: u64 = m.targets.iter().map(|t| t.observed_sat_calls).sum();
    assert_eq!(reported - observed, saved, "audit equation");
}
