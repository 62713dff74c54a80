//! The ECO problem instance: implementation, specification, targets,
//! and per-signal resource costs.

use crate::error::EcoError;
use eco_aig::{Aig, AigLit, NodeId};
use eco_netlist::{AigConversion, Netlist, WeightTable};
use std::collections::HashSet;

/// An ECO rectification instance in the paper's formulation (Sec. 2.5):
/// an *implementation* netlist with designated *target* nodes whose
/// local functions may be replaced, a *specification* netlist with the
/// same interface, and a cost (weight) per implementation signal that
/// prices its use as a patch input.
#[derive(Clone, Debug)]
pub struct EcoProblem {
    /// The old implementation (AIG form).
    pub implementation: Aig,
    /// The new specification (AIG form). No structural similarity with
    /// the implementation is assumed.
    pub specification: Aig,
    /// Target (rectification) nodes inside the implementation.
    pub targets: Vec<NodeId>,
    /// Resource cost of each implementation node when used as a patch
    /// input, indexed by node.
    pub weights: Vec<u64>,
    /// Cost assigned to nodes created by patch insertion (not present
    /// in the original weight table).
    pub default_weight: u64,
}

impl EcoProblem {
    /// Creates a validated problem.
    ///
    /// # Errors
    ///
    /// - [`EcoError::InterfaceMismatch`] if input/output counts differ.
    /// - [`EcoError::InvalidProblem`] for empty/duplicate/constant
    ///   targets or a weight vector of the wrong length.
    pub fn new(
        implementation: Aig,
        specification: Aig,
        targets: Vec<NodeId>,
        weights: Vec<u64>,
    ) -> Result<EcoProblem, EcoError> {
        if implementation.num_inputs() != specification.num_inputs() {
            return Err(EcoError::InterfaceMismatch {
                message: format!(
                    "implementation has {} inputs, specification {}",
                    implementation.num_inputs(),
                    specification.num_inputs()
                ),
            });
        }
        if implementation.num_outputs() != specification.num_outputs() {
            return Err(EcoError::InterfaceMismatch {
                message: format!(
                    "implementation has {} outputs, specification {}",
                    implementation.num_outputs(),
                    specification.num_outputs()
                ),
            });
        }
        if targets.is_empty() {
            return Err(EcoError::InvalidProblem {
                message: "no targets given".into(),
            });
        }
        let mut seen = HashSet::new();
        for &t in &targets {
            if t == NodeId::CONST0 || t.index() >= implementation.num_nodes() {
                return Err(EcoError::InvalidProblem {
                    message: format!("target {t} is not a valid implementation node"),
                });
            }
            if !seen.insert(t) {
                return Err(EcoError::InvalidProblem {
                    message: format!("duplicate target {t}"),
                });
            }
        }
        if weights.len() != implementation.num_nodes() {
            return Err(EcoError::InvalidProblem {
                message: format!(
                    "weight vector has {} entries for {} nodes",
                    weights.len(),
                    implementation.num_nodes()
                ),
            });
        }
        let default_weight = weights.iter().copied().max().unwrap_or(1).max(1);
        Ok(EcoProblem {
            implementation,
            specification,
            targets,
            weights,
            default_weight,
        })
    }

    /// Creates a problem with every signal weighing 1 (pure size-driven
    /// ECO).
    ///
    /// # Errors
    ///
    /// As for [`EcoProblem::new`].
    pub fn with_unit_weights(
        implementation: Aig,
        specification: Aig,
        targets: Vec<NodeId>,
    ) -> Result<EcoProblem, EcoError> {
        let weights = vec![1; implementation.num_nodes()];
        EcoProblem::new(implementation, specification, targets, weights)
    }

    /// Builds a problem from contest-style inputs: two netlists, target
    /// net names in the implementation, and a weight table (missing nets
    /// fall back to `default_weight`).
    ///
    /// # Errors
    ///
    /// [`EcoError::InvalidProblem`] for unknown nets or conversion
    /// failures, plus the validations of [`EcoProblem::new`].
    pub fn from_netlists(
        implementation: &Netlist,
        specification: &Netlist,
        target_nets: &[&str],
        weights: &WeightTable,
        default_weight: u64,
    ) -> Result<EcoProblem, EcoError> {
        let impl_conv = implementation
            .to_aig()
            .map_err(|e| EcoError::InvalidProblem {
                message: format!("implementation: {e}"),
            })?;
        let spec_conv = specification
            .to_aig()
            .map_err(|e| EcoError::InvalidProblem {
                message: format!("specification: {e}"),
            })?;
        EcoProblem::from_mapped(
            implementation,
            &impl_conv.net_lits,
            impl_conv.aig,
            spec_conv.aig,
            target_nets,
            weights,
            default_weight,
        )
    }

    /// [`EcoProblem::from_netlists`] for callers that already hold the
    /// implementation's [`AigConversion`] and the specification's AIG,
    /// so neither netlist is converted again. Both AIGs are cloned into
    /// the problem; the result is the one `from_netlists` builds.
    ///
    /// # Errors
    ///
    /// [`EcoError::InvalidProblem`] for unknown nets, plus the
    /// validations of [`EcoProblem::new`].
    pub fn from_conversion(
        implementation: &Netlist,
        impl_conv: &AigConversion,
        specification: &Aig,
        target_nets: &[&str],
        weights: &WeightTable,
        default_weight: u64,
    ) -> Result<EcoProblem, EcoError> {
        EcoProblem::from_mapped(
            implementation,
            &impl_conv.net_lits,
            impl_conv.aig.clone(),
            specification.clone(),
            target_nets,
            weights,
            default_weight,
        )
    }

    /// The shared body of the netlist constructors: maps target net
    /// names and the weight table onto the implementation AIG through
    /// its net-to-literal map.
    fn from_mapped(
        implementation: &Netlist,
        net_lits: &[AigLit],
        impl_aig: Aig,
        spec_aig: Aig,
        target_nets: &[&str],
        weights: &WeightTable,
        default_weight: u64,
    ) -> Result<EcoProblem, EcoError> {
        let mut targets = Vec::new();
        for name in target_nets {
            let net = implementation
                .net(name)
                .ok_or_else(|| EcoError::InvalidProblem {
                    message: format!("target net {name:?} not found in implementation"),
                })?;
            // A complemented literal is fine: the rectification freedom at
            // `!n` is identical to the freedom at `n` (the patch function
            // is simply complemented).
            let lit = net_lits[net.index()];
            if lit.is_const() {
                return Err(EcoError::InvalidProblem {
                    message: format!(
                        "target net {name:?} maps to a constant signal; nothing to patch"
                    ),
                });
            }
            // Name both nets here: `EcoProblem::new` only sees node ids.
            if let Some(first) = targets.iter().position(|&t| t == lit.node()) {
                return Err(EcoError::InvalidProblem {
                    message: format!(
                        "target nets {:?} and {name:?} are the same signal",
                        target_nets[first]
                    ),
                });
            }
            targets.push(lit.node());
        }
        // Per-node weights: the weight of a net whose function the node
        // computes; strash-merged nets take the minimum.
        let mut node_weights = vec![default_weight; impl_aig.num_nodes()];
        let net_weights = weights.resolve(implementation, default_weight);
        for (net_idx, lit) in net_lits.iter().enumerate() {
            // Complement is free in an AIG, so a net priced `w` prices its
            // underlying node `w` regardless of polarity; strash-merged
            // nets take the minimum.
            if !lit.is_const() {
                let n = lit.node().index();
                node_weights[n] = node_weights[n].min(net_weights[net_idx]);
            }
        }
        let mut problem = EcoProblem::new(impl_aig, spec_aig, targets, node_weights)?;
        problem.default_weight = default_weight.max(1);
        Ok(problem)
    }

    /// Number of primary inputs of the (shared) interface.
    pub fn num_inputs(&self) -> usize {
        self.implementation.num_inputs()
    }

    /// Number of primary outputs of the (shared) interface.
    pub fn num_outputs(&self) -> usize {
        self.implementation.num_outputs()
    }

    /// The weight of a node, falling back to the default for nodes
    /// beyond the table (created by substitution).
    pub fn weight(&self, node: NodeId) -> u64 {
        self.weights
            .get(node.index())
            .copied()
            .unwrap_or(self.default_weight)
    }

    /// Returns `self`. Kept only because the benchmark's suite runner
    /// (`ecobench/src/suite.rs`) still calls `problem.snapshot()` before
    /// [`crate::EcoEngine::solve`]; the benchmark-only change that
    /// passes `&problem` there directly deletes this shim.
    pub fn snapshot(&self) -> &EcoProblem {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_pair() -> (Aig, Aig, AigLit) {
        let mut im = Aig::new();
        let a = im.add_input();
        let b = im.add_input();
        let x = im.and(a, b);
        im.add_output(x);
        let mut sp = Aig::new();
        let a = sp.add_input();
        let b = sp.add_input();
        let x = sp.or(a, b);
        sp.add_output(x);
        let t = im.outputs()[0];
        (im, sp, t)
    }

    #[test]
    fn valid_problem_constructs() {
        let (im, sp, t) = tiny_pair();
        let p = EcoProblem::with_unit_weights(im, sp, vec![t.node()]).expect("valid");
        assert_eq!(p.num_inputs(), 2);
        assert_eq!(p.weight(t.node()), 1);
    }

    #[test]
    fn interface_mismatch_is_rejected() {
        let (im, _, t) = tiny_pair();
        let sp = Aig::new();
        let err = EcoProblem::with_unit_weights(im, sp, vec![t.node()]).unwrap_err();
        assert!(matches!(err, EcoError::InterfaceMismatch { .. }));
    }

    #[test]
    fn bad_targets_are_rejected() {
        let (im, sp, t) = tiny_pair();
        assert!(matches!(
            EcoProblem::with_unit_weights(im.clone(), sp.clone(), vec![]),
            Err(EcoError::InvalidProblem { .. })
        ));
        assert!(matches!(
            EcoProblem::with_unit_weights(im.clone(), sp.clone(), vec![NodeId::CONST0]),
            Err(EcoError::InvalidProblem { .. })
        ));
        assert!(matches!(
            EcoProblem::with_unit_weights(im, sp, vec![t.node(), t.node()]),
            Err(EcoError::InvalidProblem { .. })
        ));
    }

    #[test]
    fn weight_arity_is_checked() {
        let (im, sp, t) = tiny_pair();
        let err = EcoProblem::new(im, sp, vec![t.node()], vec![1, 2]).unwrap_err();
        assert!(matches!(err, EcoError::InvalidProblem { .. }));
    }

    #[test]
    fn from_netlists_maps_targets_and_weights() {
        use eco_netlist::parse_verilog;
        let impl_src = "module m (a, b, y); input a, b; output y; wire w;
                        and g1 (w, a, b); buf g2 (y, w); endmodule";
        let spec_src = "module m (a, b, y); input a, b; output y; wire w;
                        or g1 (w, a, b); buf g2 (y, w); endmodule";
        let im = parse_verilog(impl_src).expect("impl").netlist;
        let sp = parse_verilog(spec_src).expect("spec").netlist;
        let mut table = WeightTable::new();
        table.set("w", 5);
        let p = EcoProblem::from_netlists(&im, &sp, &["w"], &table, 9).expect("problem");
        assert_eq!(p.targets.len(), 1);
        assert_eq!(p.weight(p.targets[0]), 5);
        // Inputs got the default.
        assert_eq!(p.weight(p.implementation.inputs()[0]), 9);
    }

    #[test]
    fn from_conversion_builds_the_from_netlists_problem() {
        use eco_netlist::parse_verilog;
        // w1 and w2 strash into one node but carry different weights;
        // n is a complemented alias of w1.
        let impl_src = "module m (a, b, c, y, z); input a, b, c; output y, z;
                        wire w1, w2, n, t;
                        and g1 (w1, a, b); and g2 (w2, a, b); not g3 (n, w1);
                        or g4 (t, n, c); buf g5 (y, t); xor g6 (z, w2, c);
                        endmodule";
        let spec_src = "module m (a, b, c, y, z); input a, b, c; output y, z;
                        wire t; and g1 (t, a, c); buf g2 (y, t); or g3 (z, b, c);
                        endmodule";
        let im = parse_verilog(impl_src).expect("impl").netlist;
        let sp = parse_verilog(spec_src).expect("spec").netlist;
        let mut table = WeightTable::new();
        table.set("w1", 5);
        table.set("w2", 3);
        table.set("n", 7);
        table.set("c", 2);
        let targets = ["t", "w2"];
        let fresh = EcoProblem::from_netlists(&im, &sp, &targets, &table, 9).expect("problem");
        let impl_conv = im.to_aig().expect("impl converts");
        let spec_aig = sp.to_aig().expect("spec converts").aig;
        let reused = EcoProblem::from_conversion(&im, &impl_conv, &spec_aig, &targets, &table, 9)
            .expect("problem");
        assert_eq!(
            fresh.implementation.to_aag(),
            reused.implementation.to_aag()
        );
        assert_eq!(fresh.specification.to_aag(), reused.specification.to_aag());
        assert_eq!(fresh.targets, reused.targets);
        assert_eq!(fresh.weights, reused.weights);
        assert_eq!(fresh.default_weight, reused.default_weight);
        // The merged node takes the cheapest of its three nets.
        let merged = impl_conv.net_lits[im.net("w1").expect("net").index()].node();
        assert_eq!(reused.weight(merged), 3);
    }

    #[test]
    fn aliased_target_nets_are_rejected_by_name() {
        use eco_netlist::parse_verilog;
        let impl_src = "module top(a, b, y); input a, b; output y; wire c1;
                        and g1(c1, a, b); buf g2(y, c1); endmodule";
        let spec_src = "module top(a, b, y); input a, b; output y; wire c1;
                        or g1(c1, a, b); buf g2(y, c1); endmodule";
        let im = parse_verilog(impl_src).expect("impl").netlist;
        let sp = parse_verilog(spec_src).expect("spec").netlist;
        for (targets, message) in [
            (
                ["c1", "y"],
                r#"target nets "c1" and "y" are the same signal"#,
            ),
            (
                ["c1", "c1"],
                r#"target nets "c1" and "c1" are the same signal"#,
            ),
        ] {
            let err =
                EcoProblem::from_netlists(&im, &sp, &targets, &WeightTable::new(), 1).unwrap_err();
            assert_eq!(err.to_string(), format!("invalid problem: {message}"));
        }
    }

    #[test]
    fn from_netlists_rejects_unknown_target() {
        use eco_netlist::parse_verilog;
        let src = "module m (a, y); input a; output y; buf g (y, a); endmodule";
        let im = parse_verilog(src).expect("parse").netlist;
        let sp = im.clone();
        let err =
            EcoProblem::from_netlists(&im, &sp, &["nope"], &WeightTable::new(), 1).unwrap_err();
        assert!(matches!(err, EcoError::InvalidProblem { .. }));
    }
}
