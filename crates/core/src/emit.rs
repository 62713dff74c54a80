//! Bridging engine results back to the netlist level: express each
//! applied patch over *named nets* of the original implementation so it
//! can be spliced with [`Netlist::insert_patch`] — the deliverable
//! format of the contest flow (patched netlist plus patch modules).

use crate::engine::{AppliedPatch, EcoOutcome};
use eco_aig::{AigLit, NodeId};
use eco_netlist::{AigConversion, NetId, Netlist, NetlistError, NetlistPatch};

/// A patch expressed over nets, ready for insertion.
#[derive(Clone, Debug)]
pub struct NamedPatch {
    /// The target net to re-drive.
    pub target_net: String,
    /// The splice-ready patch.
    pub patch: NetlistPatch,
}

/// Converts the outcome's applied patches into net-level patches for
/// the original implementation netlist.
///
/// `target_nets[i]` names the net of original target `i`. Returns one
/// entry per applied patch; `None` when a patch's support includes
/// logic created by earlier patches (no original net to name — splice
/// order matters in that case and the AIG-level
/// [`EcoOutcome::patched_implementation`] should be used instead).
pub fn netlist_patches(
    outcome: &EcoOutcome,
    target_nets: &[&str],
    netlist: &Netlist,
    conversion: &AigConversion,
) -> Vec<Option<NamedPatch>> {
    // Reverse map: AIG literal code -> the lowest-id net computing it.
    let table_len = conversion
        .net_lits
        .iter()
        .map(|l| l.code() as usize + 1)
        .max()
        .unwrap_or(0);
    let mut net_of: Vec<Option<NetId>> = vec![None; table_len];
    for (idx, lit) in conversion.net_lits.iter().enumerate() {
        net_of[lit.code() as usize].get_or_insert(NetId::from_index(idx));
    }
    let name_of = |lit: AigLit| -> Option<&str> {
        let id = net_of.get(lit.code() as usize).copied().flatten()?;
        Some(netlist.net_name(id))
    };
    let support_name = |node: NodeId, complemented: bool| -> Option<String> {
        let lit = node.lit().xor_complement(complemented);
        if let Some(n) = name_of(lit) {
            return Some(n.to_string());
        }
        // A net of the opposite polarity works with a `!` prefix.
        name_of(!lit).map(|n| format!("!{n}"))
    };
    outcome
        .patches
        .iter()
        .map(|applied: &AppliedPatch| {
            let target_net = *target_nets.get(applied.target_index)?;
            let mut support = Vec::with_capacity(applied.support.len());
            for (lit, orig) in applied.support.iter().zip(&applied.original_support) {
                let node = (*orig)?;
                support.push(support_name(node, lit.is_complement())?);
            }
            // The engine patches the AIG *node*; the net may be the
            // complemented literal of that node (e.g. an OR-gate net),
            // in which case the net-level patch is the complement.
            let net_id = netlist.net(target_net)?;
            let net_lit = conversion.net_lits[net_id.index()];
            let mut aig = applied.aig.clone();
            if net_lit.is_complement() {
                let out = aig.outputs()[0];
                aig.set_output(0, !out);
            }
            Some(NamedPatch {
                target_net: target_net.to_string(),
                patch: NetlistPatch { aig, support },
            })
        })
        .collect()
}

/// The patched implementation netlist for `outcome`.
///
/// When every entry of `named` (from [`netlist_patches`]) is present,
/// the patches are spliced into `netlist` in order with
/// [`Netlist::insert_patch`], preserving every original name. A patch
/// may read a net whose original gates still pass through an earlier
/// target, even though that path vanished from the engine's AIG once
/// the earlier patch was applied; the splice then closes a
/// combinational loop. So a splice of more than one patch is checked,
/// and a loop falls back to the netlist rebuilt from
/// [`EcoOutcome::patched_implementation`], as does an unnameable patch.
/// A single patch needs no check: its divisors exclude its own TFO.
///
/// Returns the netlist and whether it was spliced (`false` = rebuilt).
///
/// # Errors
///
/// Any [`NetlistError`] of a splice, or of the loop check other than
/// [`NetlistError::CombinationalCycle`].
pub fn patched_netlist(
    outcome: &EcoOutcome,
    named: &[Option<NamedPatch>],
    netlist: &Netlist,
) -> Result<(Netlist, bool), NetlistError> {
    let rebuilt = || {
        Netlist::from_aig(
            format!("{}_patched", netlist.name()),
            &outcome.patched_implementation,
        )
    };
    if !named.iter().all(Option::is_some) {
        return Ok((rebuilt(), false));
    }
    let mut current: Option<Netlist> = None;
    for (i, np) in named.iter().flatten().enumerate() {
        let host = current.as_ref().unwrap_or(netlist);
        current = Some(host.insert_patch(&np.target_net, &np.patch, &format!("eco{i}"))?);
    }
    let current = current.unwrap_or_else(|| netlist.clone());
    if named.len() > 1 {
        match current.to_aig() {
            Ok(_) => {}
            Err(NetlistError::CombinationalCycle(_)) => return Ok((rebuilt(), false)),
            Err(e) => return Err(e),
        }
    }
    Ok((current, true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cec::{check_equivalence, CecResult};
    use crate::engine::{EcoEngine, EcoOptions};
    use crate::problem::EcoProblem;
    use eco_netlist::{parse_verilog, WeightTable};

    #[test]
    fn emitted_patches_splice_back_into_the_netlist() {
        let impl_src = "
            module m (a, b, c, y, z);
              input a, b, c;
              output y, z;
              wire s, t;
              // eco_target t
              xor g1 (s, a, b);
              and g2 (t, s, c);   // BUG: spec wants xor
              or  g3 (y, t, a);
              not g4 (z, s);
            endmodule";
        let spec_src = "
            module m (a, b, c, y, z);
              input a, b, c;
              output y, z;
              wire s, t;
              xor g1 (s, a, b);
              xor g2 (t, s, c);
              or  g3 (y, t, a);
              not g4 (z, s);
            endmodule";
        let parsed = parse_verilog(impl_src).expect("impl");
        let spec = parse_verilog(spec_src).expect("spec").netlist;
        let names: Vec<&str> = parsed.targets.iter().map(String::as_str).collect();
        let problem =
            EcoProblem::from_netlists(&parsed.netlist, &spec, &names, &WeightTable::new(), 5)
                .expect("problem");
        let outcome = EcoEngine::new(EcoOptions::default())
            .solve(&problem)
            .expect("run");
        assert!(outcome.verified);

        let conversion = parsed.netlist.to_aig().expect("valid");
        let named = netlist_patches(&outcome, &names, &parsed.netlist, &conversion);
        assert_eq!(named.len(), 1);
        let named = named[0].as_ref().expect("support is nameable");
        assert_eq!(named.target_net, "t");

        // Splice and check the netlist-level result against the spec.
        let patched = parsed
            .netlist
            .insert_patch(&named.target_net, &named.patch, "eco")
            .expect("insert");
        let patched_aig = patched.to_aig().expect("valid").aig;
        let spec_aig = spec.to_aig().expect("valid").aig;
        assert_eq!(
            check_equivalence(&patched_aig, &spec_aig, None),
            CecResult::Equivalent
        );
    }

    #[test]
    fn multi_target_patches_emit_in_order() {
        let impl_src = "
            module m (a, b, c, d, y);
              input a, b, c, d;
              output y;
              wire t1, t2, u;
              // eco_target t1
              // eco_target t2
              or  g1 (t1, a, b);   // BUG: spec wants and
              or  g2 (t2, c, d);   // BUG: spec wants xor
              and g3 (u, t1, t2);
              buf g4 (y, u);
            endmodule";
        let spec_src = "
            module m (a, b, c, d, y);
              input a, b, c, d;
              output y;
              wire t1, t2, u;
              and g1 (t1, a, b);
              xor g2 (t2, c, d);
              and g3 (u, t1, t2);
              buf g4 (y, u);
            endmodule";
        let parsed = parse_verilog(impl_src).expect("impl");
        let spec = parse_verilog(spec_src).expect("spec").netlist;
        let names: Vec<&str> = parsed.targets.iter().map(String::as_str).collect();
        let problem =
            EcoProblem::from_netlists(&parsed.netlist, &spec, &names, &WeightTable::new(), 5)
                .expect("problem");
        let outcome = EcoEngine::new(EcoOptions::default())
            .solve(&problem)
            .expect("run");
        assert!(outcome.verified);
        let conversion = parsed.netlist.to_aig().expect("valid");
        let named = netlist_patches(&outcome, &names, &parsed.netlist, &conversion);

        // Splice every nameable patch in order; the result must match.
        let mut current = parsed.netlist.clone();
        for (i, entry) in named.iter().enumerate() {
            let entry = entry
                .as_ref()
                .unwrap_or_else(|| panic!("patch {i} nameable"));
            current = current
                .insert_patch(&entry.target_net, &entry.patch, &format!("eco{i}"))
                .expect("insert");
        }
        let patched_aig = current.to_aig().expect("valid").aig;
        let spec_aig = spec.to_aig().expect("valid").aig;
        assert_eq!(
            check_equivalence(&patched_aig, &spec_aig, None),
            CecResult::Equivalent
        );
    }

    #[test]
    fn a_splice_that_closes_a_loop_falls_back_to_the_rebuilt_netlist() {
        // t1's patch is the constant 0, which removes the AIG path from
        // t2 through p and m to w. Solved after t1, t2 may then read the
        // cheap net w, whose original gates still pass through t2, so
        // splicing both patches in place closes t2 -> p -> m -> w -> t2.
        let impl_src = "
            module m (a, b, c, d, y1, y2, y3);
              input a, b, c, d;
              output y1, y2, y3;
              wire t1, t2, p, q, w;
              // eco_target t1
              // eco_target t2
              or  g1 (t1, a, b);   // BUG: spec wants constant 0
              xor g2 (t2, c, d);   // BUG: spec wants a & c
              and g3 (p, t1, t2);
              or  g4 (q, p, c);
              and g5 (w, a, q);
              buf g6 (y1, w);
              buf g7 (y2, t2);
              buf g8 (y3, t1);
            endmodule";
        let spec_src = "
            module m (a, b, c, d, y1, y2, y3);
              input a, b, c, d;
              output y1, y2, y3;
              wire na, t1, t2, p, q, w;
              not g0 (na, a);
              and g1 (t1, a, na);
              and g2 (t2, a, c);
              and g3 (p, t1, t2);
              or  g4 (q, p, c);
              and g5 (w, a, q);
              buf g6 (y1, w);
              buf g7 (y2, t2);
              buf g8 (y3, t1);
            endmodule";
        let parsed = parse_verilog(impl_src).expect("impl");
        let spec = parse_verilog(spec_src).expect("spec").netlist;
        let names: Vec<&str> = parsed.targets.iter().map(String::as_str).collect();
        let mut weights = WeightTable::new();
        weights.set("w", 1);
        let problem = EcoProblem::from_netlists(&parsed.netlist, &spec, &names, &weights, 10)
            .expect("problem");
        let outcome = EcoEngine::new(EcoOptions::default())
            .solve(&problem)
            .expect("run");
        assert!(outcome.verified);
        let conversion = parsed.netlist.to_aig().expect("valid");
        let named = netlist_patches(&outcome, &names, &parsed.netlist, &conversion);
        assert!(named.iter().all(Option::is_some), "both patches nameable");

        let (patched, spliced) = patched_netlist(&outcome, &named, &parsed.netlist).expect("emit");
        let patched_aig = patched.to_aig().expect("acyclic").aig;
        assert!(!spliced, "the looping splice must be replaced");
        let spec_aig = spec.to_aig().expect("valid").aig;
        assert_eq!(
            check_equivalence(&patched_aig, &spec_aig, None),
            CecResult::Equivalent
        );
    }
}
