//! The full ICCAD'17-contest-style flow on file-based inputs:
//!
//! 1. parse the old implementation (`F.v`) with `// eco_target`
//!    directives, the new specification (`G.v`), and the per-net weight
//!    file,
//! 2. run the resource-aware patch engine,
//! 3. emit the patched implementation as structural Verilog.
//!
//! Run with: `cargo run --release --example contest_flow`

use eco_core::{EcoEngine, EcoOptions, EcoProblem, SupportMethod};
use eco_netlist::{parse_verilog, WeightTable};

const IMPLEMENTATION: &str = "
// Old implementation: a 2-bit comparator with a bug in the equality
// term (the designer used AND where XNOR was needed).
module cmp2 (a1, a0, b1, b0, eq, gt);
  input a1, a0, b1, b0;
  output eq, gt;
  wire e1, e0, w1, w2, w3;
  // eco_target e1
  // eco_target e0
  and  g1 (e1, a1, b1);      // BUG: should be xnor
  and  g2 (e0, a0, b0);      // BUG: should be xnor
  and  g3 (eq, e1, e0);
  not  g4 (w1, b1);
  and  g5 (w2, a1, w1);
  not  g6 (w3, b0);
  and  g7 (gt, a0, w3);
endmodule
";

const SPECIFICATION: &str = "
module cmp2 (a1, a0, b1, b0, eq, gt);
  input a1, a0, b1, b0;
  output eq, gt;
  wire e1, e0, w1, w2, w3;
  xnor g1 (e1, a1, b1);
  xnor g2 (e0, a0, b0);
  and  g3 (eq, e1, e0);
  not  g4 (w1, b1);
  and  g5 (w2, a1, w1);
  not  g6 (w3, b0);
  and  g7 (gt, a0, w3);
endmodule
";

const WEIGHTS: &str = "
a1 10
a0 10
b1 10
b0 10
w1 2
w2 2
w3 2
e1 5
e0 5
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Parse the contest inputs ---------------------------------------
    let parsed_impl = parse_verilog(IMPLEMENTATION)?;
    let parsed_spec = parse_verilog(SPECIFICATION)?;
    let weights = WeightTable::parse(WEIGHTS)?;
    println!(
        "implementation: {} gates; targets from directives: {:?}",
        parsed_impl.netlist.gates().len(),
        parsed_impl.targets
    );

    // --- Build the problem & run the engine ------------------------------
    // Each design is converted to an AIG once; the implementation's
    // net-to-literal map is reused below to name the patches.
    let conversion = parsed_impl.netlist.to_aig()?;
    let spec_aig = parsed_spec.netlist.to_aig()?.aig;
    let target_names: Vec<&str> = parsed_impl.targets.iter().map(String::as_str).collect();
    let problem = EcoProblem::from_conversion(
        &parsed_impl.netlist,
        &conversion,
        &spec_aig,
        &target_names,
        &weights,
        100, // default weight for unlisted nets
    )?;
    let engine = EcoEngine::new(
        EcoOptions::builder()
            .method(SupportMethod::SatPrune)
            .build(),
    );
    let outcome = engine.solve(&problem)?;
    println!("verified: {}", outcome.verified);
    println!("total patch cost: {}", outcome.total_cost);
    println!("total patch gates: {}", outcome.total_gates);
    for r in &outcome.reports {
        println!(
            "  target {} ({:?}): support={} cost={} gates={}",
            parsed_impl.targets[r.target_index], r.kind, r.support_size, r.cost, r.gates
        );
    }

    // --- Emit net-level patches and splice them in place -----------------
    let named =
        eco_core::netlist_patches(&outcome, &target_names, &parsed_impl.netlist, &conversion);
    for (i, np) in named.iter().enumerate() {
        match np {
            Some(np) => println!(
                "patch {} drives net {:?} from {:?}",
                i, np.target_net, np.patch.support
            ),
            None => println!("patch {i} is not expressible over original nets"),
        }
    }
    // Splices in place when every patch is nameable and the splices
    // stay acyclic; otherwise rebuilds from the AIG-level result.
    let (patched, _) = eco_core::patched_netlist(&outcome, &named, &parsed_impl.netlist)?;
    println!("--- patched implementation (structural Verilog, names preserved) ---");
    print!("{}", patched.to_verilog());
    Ok(())
}
