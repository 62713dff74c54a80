//! File-format emission of suite units: each unit becomes the contest
//! triple `F.v` (old implementation with `// eco_target` directives),
//! `G.v` (new specification), and `weights.txt` — directly consumable
//! by the `eco-patch` CLI or any other tool speaking the format.

use crate::suite::UnitSpec;
use eco_core::EcoProblem;
use eco_netlist::{Netlist, WeightTable};
use std::io;
use std::path::Path;

/// The three file bodies of one unit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnitFiles {
    /// Old implementation (structural Verilog + target directives).
    pub implementation: String,
    /// New specification (structural Verilog).
    pub specification: String,
    /// Per-net weights.
    pub weights: String,
    /// The target net names, in problem order.
    pub target_nets: Vec<String>,
}

/// Renders a problem as contest-format file bodies.
///
/// Net names are generated (`pi<i>`, `n<i>`, `po<i>`); target nodes map
/// to their `n<i>` nets and are marked with `// eco_target` directives
/// in the implementation text.
pub fn render_unit(spec: &UnitSpec, problem: &EcoProblem) -> UnitFiles {
    let impl_netlist = Netlist::from_aig(spec.name, &problem.implementation);
    let spec_netlist = Netlist::from_aig(spec.name, &problem.specification);
    let target_nets: Vec<String> = problem
        .targets
        .iter()
        .map(|t| format!("n{}", t.index()))
        .collect();
    for t in &target_nets {
        assert!(
            impl_netlist.net(t).is_some(),
            "target net {t} must exist in the rendered netlist"
        );
    }
    let mut implementation = String::new();
    implementation.push_str(&format!("// {} — old implementation\n", spec.name));
    for t in &target_nets {
        implementation.push_str(&format!("// eco_target {t}\n"));
    }
    implementation.push_str(&impl_netlist.to_verilog());

    let mut specification = format!("// {} — new specification\n", spec.name);
    specification.push_str(&spec_netlist.to_verilog());

    // Weights: name every net that corresponds to a positively-mapped
    // node of the implementation AIG.
    let mut table = WeightTable::new();
    let conv = impl_netlist.to_aig().expect("rendered netlist is valid");
    for idx in 0..impl_netlist.num_nets() {
        let id = eco_netlist::NetId::from_index(idx);
        let lit = conv.net_lits[idx];
        if !lit.is_const() {
            table.set(
                impl_netlist.net_name(id).to_string(),
                problem.weight(lit.node()),
            );
        }
    }
    UnitFiles {
        implementation,
        specification,
        weights: table.to_text(),
        target_nets,
    }
}

/// Writes one unit's files under `dir/<unit-name>/{F.v,G.v,weights.txt}`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_unit(dir: &Path, spec: &UnitSpec, problem: &EcoProblem) -> io::Result<()> {
    let files = render_unit(spec, problem);
    let unit_dir = dir.join(spec.name);
    std::fs::create_dir_all(&unit_dir)?;
    std::fs::write(unit_dir.join("F.v"), files.implementation)?;
    std::fs::write(unit_dir.join("G.v"), files.specification)?;
    std::fs::write(unit_dir.join("weights.txt"), files.weights)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{build_unit, table1_units};
    use eco_core::{check_equivalence, CecResult, EcoEngine, EcoOptions};
    use eco_netlist::parse_verilog;

    #[test]
    fn rendered_unit_roundtrips_through_the_file_format() {
        let spec = &table1_units(0.02)[1];
        let problem = build_unit(spec);
        let files = render_unit(spec, &problem);

        let parsed_impl = parse_verilog(&files.implementation).expect("impl parses");
        let parsed_spec = parse_verilog(&files.specification).expect("spec parses");
        assert_eq!(parsed_impl.targets, files.target_nets);
        let weights = WeightTable::parse(&files.weights).expect("weights parse");

        // The reparsed problem must be functionally identical...
        let impl_aig = parsed_impl.netlist.to_aig().expect("valid").aig;
        let spec_aig = parsed_spec.netlist.to_aig().expect("valid").aig;
        assert_eq!(
            check_equivalence(&impl_aig, &problem.implementation, None),
            CecResult::Equivalent
        );
        assert_eq!(
            check_equivalence(&spec_aig, &problem.specification, None),
            CecResult::Equivalent
        );

        // ...and solvable through the file-level entry point.
        let names: Vec<&str> = parsed_impl.targets.iter().map(String::as_str).collect();
        let file_problem = EcoProblem::from_netlists(
            &parsed_impl.netlist,
            &parsed_spec.netlist,
            &names,
            &weights,
            problem.default_weight,
        )
        .expect("valid problem");
        let outcome = EcoEngine::new(EcoOptions::default())
            .solve(&file_problem)
            .expect("engine");
        assert!(outcome.verified);
    }

    #[test]
    fn write_unit_creates_the_triple() {
        let spec = &table1_units(0.02)[0];
        let problem = build_unit(spec);
        let dir = std::env::temp_dir().join(format!("eco_suite_{}", std::process::id()));
        write_unit(&dir, spec, &problem).expect("write");
        for f in ["F.v", "G.v", "weights.txt"] {
            assert!(dir.join(spec.name).join(f).exists(), "{f} missing");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn weights_cover_every_named_internal_net() {
        let spec = &table1_units(0.02)[3];
        let problem = build_unit(spec);
        let files = render_unit(spec, &problem);
        let table = WeightTable::parse(&files.weights).expect("parse");
        for t in &files.target_nets {
            assert!(table.get(t).is_some(), "target {t} must be weighted");
        }
    }
}
