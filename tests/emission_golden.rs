//! Byte-identity suite for the text path of the contest flow: the
//! Verilog front end, the patch splice and the emitter. Every Table 1
//! unit at scale 0.02 is rendered to contest text, parsed back, solved
//! under each support method with the bench harness options, spliced
//! with `netlist_patches` + `patched_netlist` and emitted with
//! `to_verilog`. The reference is one digest of the emitted text per
//! unit and method, plus whether the patches were spliced by name,
//! recorded before the front end and the emitter were rewritten.

use eco_patch::benchgen::{build_unit, render_unit, table1_units, UnitSpec};
use eco_patch::core::{
    netlist_patches, patched_netlist, EcoEngine, EcoOptions, EcoProblem, SatPruneOptions,
    SupportMethod,
};
use eco_patch::netlist::{parse_verilog, WeightTable};

const SCALE: f64 = 0.02;

/// Per-call conflict budget of the bench harness (`perf_snapshot`).
const BUDGET: u64 = 500_000;

/// Weight of nets the weight file leaves out (the CLI default).
const DEFAULT_WEIGHT: u64 = 100;

const METHODS: [SupportMethod; 3] = [
    SupportMethod::AnalyzeFinal,
    SupportMethod::MinimizeAssumptions,
    SupportMethod::SatPrune,
];

/// Recorded `(digest, spliced)` pairs, one row per unit, columns in
/// [`METHODS`] order.
#[rustfmt::skip]
const GOLDEN: [(&str, [(u64, bool); 3]); 20] = [
    ("unit1", [(0xa30ce4a20a60df92, true), (0xa30ce4a20a60df92, true), (0xa30ce4a20a60df92, true)]),
    ("unit2", [(0xb2d8622d30593288, true), (0xb2d8622d30593288, true), (0xe834a2e1e3cb356b, true)]),
    ("unit3", [(0xc87460737cd03b3d, true), (0xc87460737cd03b3d, true), (0x77d7836fd652c274, true)]),
    ("unit4", [(0xd3fb3cb29f970b27, true), (0xd3fb3cb29f970b27, true), (0xd3fb3cb29f970b27, true)]),
    ("unit5", [(0xc92e34aa22077763, true), (0xc92e34aa22077763, true), (0xc92e34aa22077763, true)]),
    ("unit6", [(0x6e19ad161465b34d, true), (0x6e19ad161465b34d, true), (0xb47286d47326f347, true)]),
    ("unit7", [(0x3eaeab8e60beede4, true), (0x3eaeab8e60beede4, true), (0x3eaeab8e60beede4, true)]),
    ("unit8", [(0x5aa2d829e83de7e4, true), (0x5aa2d829e83de7e4, true), (0x5aa2d829e83de7e4, true)]),
    ("unit9", [(0x1d7dbc0192e4a89a, true), (0x1d7dbc0192e4a89a, true), (0x1d7dbc0192e4a89a, true)]),
    ("unit10", [(0xaddfbecdf5e02afd, true), (0xaddfbecdf5e02afd, true), (0xaddfbecdf5e02afd, true)]),
    ("unit11", [(0x99df52c47feb5a18, false), (0xde61faa27a671bb0, true), (0xde61faa27a671bb0, true)]),
    ("unit12", [(0x209154a8199a5ff6, true), (0x209154a8199a5ff6, true), (0x209154a8199a5ff6, true)]),
    ("unit13", [(0xf3b6f86aa69c1c16, true), (0xf3b6f86aa69c1c16, true), (0xf3b6f86aa69c1c16, true)]),
    ("unit14", [(0xd6459a7bea6283bb, true), (0x81c035361a156aa9, true), (0x81c035361a156aa9, true)]),
    ("unit15", [(0x77772c3799067d46, true), (0x50f1df2719c2859b, true), (0x22e5f9bee14c1515, true)]),
    ("unit16", [(0x44da2c25a3a5fbfb, true), (0xa9b55d9951f97c40, true), (0xa9b55d9951f97c40, true)]),
    ("unit17", [(0xc59e70b7e8b6aae6, true), (0xc59e70b7e8b6aae6, true), (0xc59e70b7e8b6aae6, true)]),
    ("unit18", [(0x742f4909134fa5ef, true), (0x742f4909134fa5ef, true), (0x742f4909134fa5ef, true)]),
    ("unit19", [(0x12e7fe68cd7c6bce, true), (0x12e7fe68cd7c6bce, true), (0x12e7fe68cd7c6bce, true)]),
    ("unit20", [(0x256c3d0cec26cb1, false), (0xd8bd09c16ea1be91, true), (0xd8bd09c16ea1be91, true)]),
];

/// The Table 1 harness options of one method column.
fn harness_options(method: SupportMethod) -> EcoOptions {
    EcoOptions::builder()
        .method(method)
        .cegar_min(method == SupportMethod::SatPrune)
        .per_call_conflicts(Some(BUDGET))
        .sat_prune(SatPruneOptions {
            max_iterations: 400,
        })
        .build()
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The CLI pipeline on one rendered unit: the patched Verilog's digest
/// and whether it was spliced by name.
fn emit(unit: &UnitSpec, method: SupportMethod) -> (u64, bool) {
    let files = render_unit(unit, &build_unit(unit));
    let parsed_impl = parse_verilog(&files.implementation).expect("implementation parses");
    let parsed_spec = parse_verilog(&files.specification).expect("specification parses");
    let weights = WeightTable::parse(&files.weights).expect("weights parse");
    let names: Vec<&str> = parsed_impl.targets.iter().map(String::as_str).collect();
    let conversion = parsed_impl.netlist.to_aig().expect("valid implementation");
    let problem = EcoProblem::from_netlists(
        &parsed_impl.netlist,
        &parsed_spec.netlist,
        &names,
        &weights,
        DEFAULT_WEIGHT,
    )
    .expect("problem builds");
    let outcome = EcoEngine::new(harness_options(method))
        .solve(&problem)
        .unwrap_or_else(|e| panic!("{} {method:?}: {e}", unit.name));
    let named = netlist_patches(&outcome, &names, &parsed_impl.netlist, &conversion);
    let (patched, spliced) =
        patched_netlist(&outcome, &named, &parsed_impl.netlist).expect("patched netlist");
    (fnv1a(patched.to_verilog().as_bytes()), spliced)
}

#[test]
fn parse_splice_and_emit_match_the_recorded_bytes() {
    let actual: Vec<(&str, [(u64, bool); 3])> = table1_units(SCALE)
        .iter()
        .map(|unit| (unit.name, METHODS.map(|method| emit(unit, method))))
        .collect();
    let table: String = actual
        .iter()
        .map(|(name, row)| {
            let cells: Vec<String> = row
                .iter()
                .map(|(digest, spliced)| format!("({digest:#x}, {spliced})"))
                .collect();
            format!("    (\"{name}\", [{}]),\n", cells.join(", "))
        })
        .collect();
    assert_eq!(
        actual.as_slice(),
        GOLDEN.as_slice(),
        "emitted bytes moved; actual table:\n{table}"
    );
}
