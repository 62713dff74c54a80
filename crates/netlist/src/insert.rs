//! Patch insertion at the netlist level: splice a computed patch
//! network into a gate-level netlist at a target net, preserving all
//! other logic and names — the final step of the contest flow, where
//! the deliverable is the patched Verilog plus a standalone patch
//! module.

use crate::netlist::{GateKind, NetId, Netlist, NetlistError};
use eco_aig::{Aig, AigNode};
use std::sync::Arc;

/// A patch to splice: single-output logic over named support nets.
#[derive(Clone, Debug)]
pub struct NetlistPatch {
    /// Patch logic; input `i` binds to `support[i]`.
    pub aig: Aig,
    /// Support net names (must exist in the host netlist). An entry may
    /// be prefixed with `!` to use the net complemented.
    pub support: Vec<String>,
}

impl Netlist {
    /// Returns a copy of this netlist where `target_net`'s driver is
    /// replaced by the patch network. Patch gates are named
    /// `<prefix>_g<i>`; intermediate nets `<prefix>_n<i>`.
    ///
    /// # Errors
    ///
    /// - [`NetlistError::UnknownNet`] if the target or a support net
    ///   does not exist.
    /// - [`NetlistError::Undriven`] if the target net has no driver to
    ///   replace (patching a primary input is not meaningful at the
    ///   netlist level).
    pub fn insert_patch(
        &self,
        target_net: &str,
        patch: &NetlistPatch,
        prefix: &str,
    ) -> Result<Netlist, NetlistError> {
        assert_eq!(patch.aig.num_outputs(), 1, "patch must be single-output");
        let target = self
            .net(target_net)
            .ok_or_else(|| NetlistError::UnknownNet(target_net.to_string()))?;
        let mut support: Vec<(NetId, bool)> = Vec::with_capacity(patch.support.len());
        for name in &patch.support {
            let (bare, negated) = match name.strip_prefix('!') {
                Some(rest) => (rest, true),
                None => (name.as_str(), false),
            };
            let id = self
                .net(bare)
                .ok_or_else(|| NetlistError::UnknownNet(bare.to_string()))?;
            support.push((id, negated));
        }
        assert_eq!(
            support.len(),
            patch.aig.num_inputs(),
            "support arity must match the patch inputs"
        );

        // Rebuild the netlist without the target's old driver. A host net
        // keeps its name; `remap` caches its id in `out` once it has one
        // (a name, once added, keeps its id, so the cache is exact).
        let mut out = Netlist::new(self.name());
        out.reserve(
            self.num_nets(),
            self.gates().len() + 2 * patch.aig.num_nodes(),
        );
        let mut remap: Vec<Option<NetId>> = vec![None; self.num_nets()];
        for &i in self.inputs() {
            remap[i.index()] = Some(out.add_shared_input(self.shared_net_name(i)));
        }
        let mut host = |out: &mut Netlist, id: NetId| -> NetId {
            *remap[id.index()].get_or_insert_with(|| out.add_shared_net(self.shared_net_name(id)))
        };
        if self.inputs().contains(&target) {
            return Err(NetlistError::Undriven(target_net.to_string()));
        }
        let mut had_driver = false;
        for g in self.gates() {
            if g.output == target {
                had_driver = true;
                continue; // dropped: the patch takes over
            }
            let o = host(&mut out, g.output);
            let ins: Vec<NetId> = g.inputs.iter().map(|&i| host(&mut out, i)).collect();
            out.add_gate(g.kind, Arc::clone(&g.name), o, ins);
        }
        if !had_driver {
            return Err(NetlistError::Undriven(target_net.to_string()));
        }

        // Emit the patch gates.
        let mut net_of_lit: Vec<Option<NetId>> = vec![None; 2 * patch.aig.num_nodes()];
        let const0 = out.add_net(format!("{prefix}_const0"));
        out.add_gate(
            GateKind::Const0,
            format!("{prefix}_gconst0"),
            const0,
            vec![],
        );
        net_of_lit[eco_aig::AigLit::FALSE.code() as usize] = Some(const0);
        for (i, &node) in patch.aig.inputs().iter().enumerate() {
            let (net, negated) = support[i];
            let host = host(&mut out, net);
            let bound = if negated {
                let inv = out.add_net(format!("{prefix}_in{i}"));
                out.add_gate(GateKind::Not, format!("{prefix}_ginv{i}"), inv, vec![host]);
                inv
            } else {
                host
            };
            net_of_lit[node.lit().code() as usize] = Some(bound);
        }
        fn resolve(
            out: &mut Netlist,
            net_of_lit: &mut [Option<NetId>],
            lit: eco_aig::AigLit,
            prefix: &str,
            counter: &mut usize,
        ) -> NetId {
            if let Some(id) = net_of_lit[lit.code() as usize] {
                return id;
            }
            // Complement of a known literal: insert an inverter.
            let base = net_of_lit[(!lit).code() as usize].expect("base literal emitted");
            let inv = out.add_net(format!("{prefix}_n{counter}"));
            *counter += 1;
            out.add_gate(
                GateKind::Not,
                format!("{prefix}_g{counter}"),
                inv,
                vec![base],
            );
            net_of_lit[lit.code() as usize] = Some(inv);
            inv
        }
        let mut counter = 0usize;
        for id in patch.aig.iter_nodes() {
            if let AigNode::And { f0, f1 } = patch.aig.node(id) {
                let a = resolve(&mut out, &mut net_of_lit, f0, prefix, &mut counter);
                let b = resolve(&mut out, &mut net_of_lit, f1, prefix, &mut counter);
                let o = out.add_net(format!("{prefix}_n{counter}"));
                counter += 1;
                out.add_gate(GateKind::And, format!("{prefix}_g{counter}"), o, vec![a, b]);
                net_of_lit[id.lit().code() as usize] = Some(o);
            }
        }
        // Drive the target net from the patch output.
        let root = patch.aig.outputs()[0];
        let src = resolve(&mut out, &mut net_of_lit, root, prefix, &mut counter);
        let target_new = host(&mut out, target);
        out.add_gate(
            GateKind::Buf,
            format!("{prefix}_gout"),
            target_new,
            vec![src],
        );

        // Re-mark outputs in original order.
        for &o in self.outputs() {
            let id = host(&mut out, o);
            out.mark_output(id);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> Netlist {
        let mut nl = Netlist::new("host");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let w = nl.add_net("w");
        let y = nl.add_net("y");
        nl.add_gate(GateKind::And, "g1", w, vec![a, b]);
        nl.add_gate(GateKind::Or, "g2", y, vec![w, c]);
        nl.mark_output(y);
        nl
    }

    fn xor_patch(support: Vec<&str>) -> NetlistPatch {
        let mut aig = Aig::new();
        let x = aig.add_input();
        let y = aig.add_input();
        let o = aig.xor(x, y);
        aig.add_output(o);
        NetlistPatch {
            aig,
            support: support.into_iter().map(String::from).collect(),
        }
    }

    #[test]
    fn patch_replaces_driver_function() {
        let nl = host();
        let patched = nl
            .insert_patch("w", &xor_patch(vec!["a", "b"]), "eco")
            .expect("insert");
        let conv = patched.to_aig().expect("valid");
        for mask in 0..8u32 {
            let bits = [mask & 1 == 1, mask >> 1 & 1 == 1, mask >> 2 & 1 == 1];
            let expect = (bits[0] ^ bits[1]) || bits[2];
            assert_eq!(conv.aig.eval(&bits), vec![expect], "mask {mask}");
        }
    }

    #[test]
    fn complemented_support_entries() {
        let nl = host();
        let patched = nl
            .insert_patch("w", &xor_patch(vec!["!a", "b"]), "eco")
            .expect("insert");
        let conv = patched.to_aig().expect("valid");
        for mask in 0..8u32 {
            let bits = [mask & 1 == 1, mask >> 1 & 1 == 1, mask >> 2 & 1 == 1];
            let expect = (!bits[0] ^ bits[1]) || bits[2];
            assert_eq!(conv.aig.eval(&bits), vec![expect], "mask {mask}");
        }
    }

    #[test]
    fn unknown_nets_are_rejected() {
        let nl = host();
        assert!(matches!(
            nl.insert_patch("nope", &xor_patch(vec!["a", "b"]), "eco"),
            Err(NetlistError::UnknownNet(_))
        ));
        assert!(matches!(
            nl.insert_patch("w", &xor_patch(vec!["a", "zz"]), "eco"),
            Err(NetlistError::UnknownNet(_))
        ));
    }

    #[test]
    fn patching_an_input_is_rejected() {
        let nl = host();
        assert!(matches!(
            nl.insert_patch("a", &xor_patch(vec!["b", "c"]), "eco"),
            Err(NetlistError::Undriven(_))
        ));
    }

    #[test]
    fn emitted_verilog_reparses_equivalently() {
        let nl = host();
        let patched = nl
            .insert_patch("w", &xor_patch(vec!["a", "c"]), "eco")
            .expect("insert");
        let text = patched.to_verilog();
        let again = crate::parse::parse_verilog(&text).expect("reparse").netlist;
        let x = patched.to_aig().expect("valid").aig;
        let y = again.to_aig().expect("valid").aig;
        for mask in 0..8u32 {
            let bits = [mask & 1 == 1, mask >> 1 & 1 == 1, mask >> 2 & 1 == 1];
            assert_eq!(x.eval(&bits), y.eval(&bits));
        }
    }

    #[test]
    fn constant_patch() {
        let nl = host();
        let mut aig = Aig::new();
        aig.add_output(eco_aig::AigLit::TRUE);
        let patch = NetlistPatch {
            aig,
            support: vec![],
        };
        let patched = nl.insert_patch("w", &patch, "eco").expect("insert");
        let conv = patched.to_aig().expect("valid");
        for mask in 0..8u32 {
            let bits = [mask & 1 == 1, mask >> 1 & 1 == 1, mask >> 2 & 1 == 1];
            assert_eq!(conv.aig.eval(&bits), vec![true]);
        }
    }
}
