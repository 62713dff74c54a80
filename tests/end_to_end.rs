//! Cross-crate integration tests: the complete contest flow from
//! Verilog text through the engine to a verified patched netlist.

use eco_patch::core::{
    check_equivalence, CecResult, EcoEngine, EcoOptions, EcoProblem, SupportMethod,
};
use eco_patch::netlist::{parse_verilog, Netlist, WeightTable};

// NOTE: the bug is an OR (not an AND) so that the buggy gate does not
// structurally merge with the carry's `and t4 (g2, s1, cin)` during AIG
// conversion — a merged target would also drive `cout` and the ECO
// would be genuinely unsolvable.
const IMPLEMENTATION: &str = "
module alu_slice (a, b, cin, sel, y, cout);
  input a, b, cin, sel;
  output y, cout;
  wire s1, s2, g1, g2, mux;
  // eco_target s2
  xor t1 (s1, a, b);
  or  t2 (s2, s1, cin);      // BUG: should be xor -> full-adder sum
  and t3 (g1, a, b);
  and t4 (g2, s1, cin);
  or  t5 (cout, g1, g2);
  not t6 (mux, sel);
  and t7 (y, s2, mux);
endmodule
";

const SPECIFICATION: &str = "
module alu_slice (a, b, cin, sel, y, cout);
  input a, b, cin, sel;
  output y, cout;
  wire s1, s2, g1, g2, mux;
  xor t1 (s1, a, b);
  xor t2 (s2, s1, cin);
  and t3 (g1, a, b);
  and t4 (g2, s1, cin);
  or  t5 (cout, g1, g2);
  not t6 (mux, sel);
  and t7 (y, s2, mux);
endmodule
";

fn problem_from_sources() -> (EcoProblem, Vec<String>) {
    let parsed_impl = parse_verilog(IMPLEMENTATION).expect("impl parses");
    let parsed_spec = parse_verilog(SPECIFICATION).expect("spec parses");
    let mut weights = WeightTable::new();
    weights.set("s1", 2);
    weights.set("cin", 3);
    weights.set("a", 20);
    weights.set("b", 20);
    let names: Vec<&str> = parsed_impl.targets.iter().map(String::as_str).collect();
    let problem = EcoProblem::from_netlists(
        &parsed_impl.netlist,
        &parsed_spec.netlist,
        &names,
        &weights,
        50,
    )
    .expect("valid problem");
    (problem, parsed_impl.targets)
}

#[test]
fn contest_flow_fixes_the_alu_slice() {
    let (problem, targets) = problem_from_sources();
    assert_eq!(targets, vec!["s2"]);
    let engine = EcoEngine::new(EcoOptions::default());
    let outcome = engine.solve(&problem).expect("engine runs");
    assert!(outcome.verified);
    // The cheap patch is xor(s1, cin): support cost 2 + 3 = 5, far below
    // rebuilding from the inputs (20 + 20 + 3).
    assert!(
        outcome.total_cost <= 5,
        "cost {} too high",
        outcome.total_cost
    );
}

#[test]
fn every_method_produces_an_equivalent_netlist() {
    let (problem, _) = problem_from_sources();
    for method in [
        SupportMethod::AnalyzeFinal,
        SupportMethod::MinimizeAssumptions,
        SupportMethod::SatPrune,
    ] {
        let engine = EcoEngine::new(EcoOptions::builder().method(method).build());
        let outcome = engine.solve(&problem).expect("engine runs");
        assert!(outcome.verified, "{method:?}");
        // And the result survives a netlist round trip.
        let patched_netlist = Netlist::from_aig("patched", &outcome.patched_implementation);
        let reparsed = parse_verilog(&patched_netlist.to_verilog())
            .expect("emitted Verilog parses")
            .netlist;
        let back = reparsed.to_aig().expect("valid netlist").aig;
        assert_eq!(
            check_equivalence(&back, &problem.specification, None),
            CecResult::Equivalent,
            "{method:?}: netlist round trip must stay equivalent"
        );
    }
}

#[test]
fn method_cost_ordering_holds() {
    // minimize_assumptions never costs more than the analyze_final
    // baseline on this instance, and SAT_prune never more than
    // minimize_assumptions (single target = exact).
    let (problem, _) = problem_from_sources();
    let run = |method| {
        EcoEngine::new(EcoOptions::builder().method(method).build())
            .solve(&problem)
            .expect("engine runs")
            .total_cost
    };
    let baseline = run(SupportMethod::AnalyzeFinal);
    let minimized = run(SupportMethod::MinimizeAssumptions);
    let pruned = run(SupportMethod::SatPrune);
    assert!(
        minimized <= baseline,
        "minimized {minimized} > baseline {baseline}"
    );
    assert!(
        pruned <= minimized,
        "pruned {pruned} > minimized {minimized}"
    );
}
