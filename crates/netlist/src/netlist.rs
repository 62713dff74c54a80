//! Gate-level netlist data model, validation, and conversion to/from
//! AIGs. This is the substrate standing in for the ICCAD'17 contest
//! netlists the paper evaluates on.

use eco_aig::{Aig, AigLit, AigNode};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Identifier of a net (wire) in a [`Netlist`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// Creates a net id from a dense index (pair with
    /// [`Netlist::num_nets`] for iteration).
    pub fn from_index(index: usize) -> NetId {
        NetId(index as u32)
    }

    /// Dense index of this net.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Supported primitive gate kinds (multi-input where applicable).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum GateKind {
    /// Multi-input AND.
    And,
    /// Multi-input OR.
    Or,
    /// Multi-input NAND.
    Nand,
    /// Multi-input NOR.
    Nor,
    /// Multi-input XOR (odd parity).
    Xor,
    /// Multi-input XNOR (even parity).
    Xnor,
    /// Single-input buffer.
    Buf,
    /// Single-input inverter.
    Not,
    /// Constant 0 driver (no inputs).
    Const0,
    /// Constant 1 driver (no inputs).
    Const1,
}

impl GateKind {
    /// The Verilog primitive name.
    pub fn name(self) -> &'static str {
        match self {
            GateKind::And => "and",
            GateKind::Or => "or",
            GateKind::Nand => "nand",
            GateKind::Nor => "nor",
            GateKind::Xor => "xor",
            GateKind::Xnor => "xnor",
            GateKind::Buf => "buf",
            GateKind::Not => "not",
            GateKind::Const0 => "const0",
            GateKind::Const1 => "const1",
        }
    }

    /// Parses a primitive name.
    pub fn from_name(name: &str) -> Option<GateKind> {
        Some(match name {
            "and" => GateKind::And,
            "or" => GateKind::Or,
            "nand" => GateKind::Nand,
            "nor" => GateKind::Nor,
            "xor" => GateKind::Xor,
            "xnor" => GateKind::Xnor,
            "buf" => GateKind::Buf,
            "not" => GateKind::Not,
            "const0" => GateKind::Const0,
            "const1" => GateKind::Const1,
            _ => return None,
        })
    }
}

/// One gate instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Gate {
    /// Primitive kind.
    pub kind: GateKind,
    /// Instance name (shared with netlists spliced from this one).
    pub name: Arc<str>,
    /// The single driven net.
    pub output: NetId,
    /// Input nets in connection order.
    pub inputs: Vec<NetId>,
}

/// Error raised by netlist validation or AIG conversion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetlistError {
    /// A net is driven by more than one gate (or a gate drives an input).
    MultipleDrivers(String),
    /// A non-input net has no driver.
    Undriven(String),
    /// The gate graph contains a combinational cycle through this net.
    CombinationalCycle(String),
    /// A gate has the wrong number of connections for its kind.
    BadArity {
        /// The offending gate instance.
        gate: String,
        /// What was found.
        found: usize,
    },
    /// A referenced net name does not exist.
    UnknownNet(String),
    /// A net id is out of range for this netlist (a [`NetId`] from
    /// another netlist, or a stale index).
    InvalidNetId(usize),
    /// A net is declared as a primary input more than once.
    DuplicateInput(String),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::MultipleDrivers(n) => write!(f, "net {n:?} has multiple drivers"),
            NetlistError::Undriven(n) => write!(f, "net {n:?} has no driver"),
            NetlistError::CombinationalCycle(n) => {
                write!(f, "combinational cycle through net {n:?}")
            }
            NetlistError::BadArity { gate, found } => {
                write!(f, "gate {gate:?} has invalid connection count {found}")
            }
            NetlistError::UnknownNet(n) => write!(f, "unknown net {n:?}"),
            NetlistError::InvalidNetId(i) => write!(f, "net id {i} is out of range"),
            NetlistError::DuplicateInput(n) => {
                write!(f, "net {n:?} declared as input more than once")
            }
        }
    }
}

impl Error for NetlistError {}

/// A combinational gate-level netlist with named nets.
///
/// # Examples
///
/// ```
/// use eco_netlist::{GateKind, Netlist};
///
/// let mut nl = Netlist::new("half_adder");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let s = nl.add_net("s");
/// let c = nl.add_net("c");
/// nl.add_gate(GateKind::Xor, "g0", s, vec![a, b]);
/// nl.add_gate(GateKind::And, "g1", c, vec![a, b]);
/// nl.mark_output(s);
/// nl.mark_output(c);
/// let conv = nl.to_aig().expect("valid netlist");
/// assert_eq!(conv.aig.eval(&[true, true]), vec![false, true]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Netlist {
    name: String,
    /// Net names by id. Each name is stored once and shared with
    /// `net_ids` and with every netlist spliced from this one.
    net_names: Vec<Arc<str>>,
    net_ids: HashMap<Arc<str>, NetId>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    gates: Vec<Gate>,
}

/// Result of [`Netlist::to_aig`]: the AIG plus net correspondence.
#[derive(Clone, Debug)]
pub struct AigConversion {
    /// The converted AIG; its input order matches the netlist's input
    /// order, its output order the netlist's output order.
    pub aig: Aig,
    /// AIG literal for each net (indexed by [`NetId`]).
    pub net_lits: Vec<AigLit>,
}

impl Netlist {
    /// Creates an empty netlist with a module name.
    pub fn new(name: impl Into<String>) -> Netlist {
        Netlist {
            name: name.into(),
            ..Netlist::default()
        }
    }

    /// The module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Reserves room for `nets` more nets and `gates` more gates.
    pub(crate) fn reserve(&mut self, nets: usize, gates: usize) {
        self.net_names.reserve(nets);
        self.net_ids.reserve(nets);
        self.gates.reserve(gates);
    }

    /// Adds (or finds) a net by name. The name is looked up first and
    /// only copied when the net is new.
    pub fn add_net(&mut self, name: impl AsRef<str>) -> NetId {
        let name = name.as_ref();
        if let Some(&id) = self.net_ids.get(name) {
            return id;
        }
        let name: Arc<str> = Arc::from(name);
        let id = NetId(self.net_names.len() as u32);
        self.net_ids.insert(Arc::clone(&name), id);
        self.net_names.push(name);
        id
    }

    /// Adds (or finds) a net named by a shared name, e.g. one taken from
    /// another netlist; a new net shares the name instead of copying it.
    pub(crate) fn add_shared_net(&mut self, name: &Arc<str>) -> NetId {
        let next = NetId(self.net_names.len() as u32);
        let id = *self.net_ids.entry(Arc::clone(name)).or_insert(next);
        if id == next {
            self.net_names.push(Arc::clone(name));
        }
        id
    }

    /// The shared name of a net.
    pub(crate) fn shared_net_name(&self, id: NetId) -> &Arc<str> {
        &self.net_names[id.index()]
    }

    /// Adds a net and marks it as a primary input.
    pub fn add_input(&mut self, name: impl AsRef<str>) -> NetId {
        let id = self.add_net(name);
        self.inputs.push(id);
        id
    }

    /// [`Netlist::add_input`] with a shared name.
    pub(crate) fn add_shared_input(&mut self, name: &Arc<str>) -> NetId {
        let id = self.add_shared_net(name);
        self.inputs.push(id);
        id
    }

    /// Marks an existing net as a primary output.
    pub fn mark_output(&mut self, net: NetId) {
        self.outputs.push(net);
    }

    /// Adds a gate instance driving `output` from `inputs`.
    pub fn add_gate(
        &mut self,
        kind: GateKind,
        name: impl Into<Arc<str>>,
        output: NetId,
        inputs: Vec<NetId>,
    ) {
        self.gates.push(Gate {
            kind,
            name: name.into(),
            output,
            inputs,
        });
    }

    /// Looks up a net id by name.
    pub fn net(&self, name: &str) -> Option<NetId> {
        self.net_ids.get(name).copied()
    }

    /// The name of a net.
    pub fn net_name(&self, id: NetId) -> &str {
        &self.net_names[id.index()]
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.net_names.len()
    }

    /// The primary inputs in declaration order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// The primary outputs in declaration order.
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// The gate instances.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Validates net-id ranges, drivers, duplicate input declarations,
    /// and arities (cycles are detected during [`Netlist::to_aig`]).
    ///
    /// # Errors
    ///
    /// Returns the first [`NetlistError`] found.
    pub fn validate(&self) -> Result<(), NetlistError> {
        let num_nets = self.net_names.len();
        let in_range = |id: NetId| -> Result<(), NetlistError> {
            if id.index() >= num_nets {
                return Err(NetlistError::InvalidNetId(id.index()));
            }
            Ok(())
        };
        for id in self.inputs.iter().chain(self.outputs.iter()) {
            in_range(*id)?;
        }
        for g in &self.gates {
            in_range(g.output)?;
            for &i in &g.inputs {
                in_range(i)?;
            }
        }
        let mut driver: Vec<Option<usize>> = vec![None; num_nets];
        for i in &self.inputs {
            if driver[i.index()].is_some() {
                return Err(NetlistError::DuplicateInput(self.net_name(*i).to_string()));
            }
            driver[i.index()] = Some(usize::MAX);
        }
        for (gi, g) in self.gates.iter().enumerate() {
            let arity_ok = match g.kind {
                GateKind::Buf | GateKind::Not => g.inputs.len() == 1,
                GateKind::Const0 | GateKind::Const1 => g.inputs.is_empty(),
                GateKind::Xor | GateKind::Xnor => !g.inputs.is_empty(),
                _ => !g.inputs.is_empty(),
            };
            if !arity_ok {
                return Err(NetlistError::BadArity {
                    gate: g.name.to_string(),
                    found: g.inputs.len(),
                });
            }
            if driver[g.output.index()].is_some() {
                return Err(NetlistError::MultipleDrivers(
                    self.net_name(g.output).to_string(),
                ));
            }
            driver[g.output.index()] = Some(gi);
        }
        // A dangling net used nowhere is tolerated; a net that is read
        // must be driven. The lowest such net id is reported.
        let mut read = vec![false; num_nets];
        for id in self
            .gates
            .iter()
            .flat_map(|g| &g.inputs)
            .chain(&self.outputs)
        {
            read[id.index()] = true;
        }
        match (0..num_nets).find(|&idx| read[idx] && driver[idx].is_none()) {
            Some(idx) => Err(NetlistError::Undriven(self.net_names[idx].to_string())),
            None => Ok(()),
        }
    }

    /// Converts to an AIG (inputs/outputs in declaration order).
    ///
    /// # Errors
    ///
    /// Returns a [`NetlistError`] on validation failure or a
    /// combinational cycle.
    pub fn to_aig(&self) -> Result<AigConversion, NetlistError> {
        self.validate()?;
        let mut aig = Aig::new();
        // Most gates become one AND node.
        aig.reserve(self.gates.len());
        let mut net_lits: Vec<Option<AigLit>> = vec![None; self.net_names.len()];
        for &i in &self.inputs {
            net_lits[i.index()] = Some(aig.add_input());
        }
        // gate index driving each net
        let mut driver: Vec<Option<usize>> = vec![None; self.net_names.len()];
        for (gi, g) in self.gates.iter().enumerate() {
            driver[g.output.index()] = Some(gi);
        }
        // Iterative DFS over gates.
        #[derive(Clone, Copy, PartialEq)]
        enum State {
            Fresh,
            Busy,
            Done,
        }
        let mut state = vec![State::Fresh; self.gates.len()];
        let roots = self
            .outputs
            .iter()
            .filter_map(|o| driver[o.index()])
            .chain(0..self.gates.len());
        let mut stack: Vec<(usize, bool)> = Vec::new();
        let mut ins: Vec<AigLit> = Vec::new();
        for root in roots {
            if state[root] == State::Done {
                continue;
            }
            stack.push((root, false));
            while let Some((gi, expanded)) = stack.pop() {
                if state[gi] == State::Done {
                    continue;
                }
                let g = &self.gates[gi];
                if !expanded {
                    if state[gi] == State::Busy {
                        return Err(NetlistError::CombinationalCycle(
                            self.net_name(g.output).to_string(),
                        ));
                    }
                    state[gi] = State::Busy;
                    stack.push((gi, true));
                    for &inp in &g.inputs {
                        if let Some(d) = driver[inp.index()] {
                            if state[d] == State::Busy {
                                return Err(NetlistError::CombinationalCycle(
                                    self.net_name(inp).to_string(),
                                ));
                            }
                            if state[d] == State::Fresh {
                                stack.push((d, false));
                            }
                        }
                    }
                } else {
                    ins.clear();
                    ins.extend(
                        g.inputs
                            .iter()
                            .map(|i| net_lits[i.index()].expect("input computed")),
                    );
                    let lit = match g.kind {
                        GateKind::And => aig.and_many(&ins),
                        GateKind::Nand => !aig.and_many(&ins),
                        GateKind::Or => aig.or_many(&ins),
                        GateKind::Nor => !aig.or_many(&ins),
                        GateKind::Xor => ins.iter().fold(AigLit::FALSE, |acc, &l| aig.xor(acc, l)),
                        GateKind::Xnor => {
                            !ins.iter().fold(AigLit::FALSE, |acc, &l| aig.xor(acc, l))
                        }
                        GateKind::Buf => ins[0],
                        GateKind::Not => !ins[0],
                        GateKind::Const0 => AigLit::FALSE,
                        GateKind::Const1 => AigLit::TRUE,
                    };
                    net_lits[g.output.index()] = Some(lit);
                    state[gi] = State::Done;
                }
            }
        }
        for &o in &self.outputs {
            let lit = net_lits[o.index()].expect("outputs validated as driven");
            aig.add_output(lit);
        }
        let net_lits: Vec<AigLit> = net_lits
            .into_iter()
            .map(|l| l.unwrap_or(AigLit::FALSE))
            .collect();
        Ok(AigConversion { aig, net_lits })
    }

    /// Builds a netlist from an AIG using `and`/`not` primitives, with
    /// generated net names (`pi<i>`, `po<i>`, `n<i>`).
    pub fn from_aig(name: impl Into<String>, aig: &Aig) -> Netlist {
        let mut nl = Netlist::new(name);
        nl.reserve(aig.num_nodes() + aig.num_outputs() + 1, aig.num_nodes());
        // Net of each AIG literal, indexed by literal code.
        let mut lit_net: Vec<Option<NetId>> = vec![None; 2 * aig.num_nodes()];
        let const0 = nl.add_net("const0_net");
        nl.add_gate(GateKind::Const0, "gconst0", const0, vec![]);
        lit_net[AigLit::FALSE.code() as usize] = Some(const0);
        for (i, &n) in aig.inputs().iter().enumerate() {
            let id = nl.add_input(format!("pi{i}"));
            lit_net[n.lit().code() as usize] = Some(id);
        }
        let mut inverter_count = 0usize;
        let mut net_of = |nl: &mut Netlist, lit: AigLit, lit_net: &mut [Option<NetId>]| -> NetId {
            if let Some(id) = lit_net[lit.code() as usize] {
                return id;
            }
            // Must be a complemented known literal: create an inverter.
            let base = lit_net[(!lit).code() as usize].expect("base literal exists");
            let id = nl.add_net(format!("inv{inverter_count}"));
            inverter_count += 1;
            nl.add_gate(
                GateKind::Not,
                format!("ginv{}", inverter_count),
                id,
                vec![base],
            );
            lit_net[lit.code() as usize] = Some(id);
            id
        };
        for id in aig.iter_nodes() {
            if let AigNode::And { f0, f1 } = aig.node(id) {
                let a = net_of(&mut nl, f0, &mut lit_net);
                let b = net_of(&mut nl, f1, &mut lit_net);
                let out = nl.add_net(format!("n{}", id.index()));
                nl.add_gate(GateKind::And, format!("g{}", id.index()), out, vec![a, b]);
                lit_net[id.lit().code() as usize] = Some(out);
            }
        }
        for (i, &o) in aig.outputs().iter().enumerate() {
            let src = net_of(&mut nl, o, &mut lit_net);
            let po = nl.add_net(format!("po{i}"));
            nl.add_gate(GateKind::Buf, format!("gpo{i}"), po, vec![src]);
            nl.mark_output(po);
        }
        nl
    }

    /// Serializes as a structural-Verilog module in the contest style.
    pub fn to_verilog(&self) -> String {
        let is_const_alias = |name: &str| name == "1'b0" || name == "1'b1";
        let mut is_port = vec![false; self.net_names.len()];
        for &id in self.inputs.iter().chain(&self.outputs) {
            is_port[id.index()] = true;
        }
        // Every net name appears about three times (declaration, driver,
        // readers) and every gate line adds its kind, name and
        // punctuation.
        let names: usize = self.net_names.iter().map(|n| n.len() + 2).sum();
        let gates: usize = self.gates.iter().map(|g| g.name.len() + 16).sum();
        let mut out = String::with_capacity(self.name.len() + 3 * names + gates + 64);
        let push_list = |out: &mut String, ids: &mut dyn Iterator<Item = NetId>| {
            for (k, id) in ids.enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                out.push_str(self.net_name(id));
            }
        };
        out.push_str("module ");
        out.push_str(&self.name);
        out.push_str(" (");
        push_list(
            &mut out,
            &mut self.inputs.iter().chain(&self.outputs).copied(),
        );
        out.push_str(");\n");
        if !self.inputs.is_empty() {
            out.push_str("  input ");
            push_list(&mut out, &mut self.inputs.iter().copied());
            out.push_str(";\n");
        }
        if !self.outputs.is_empty() {
            out.push_str("  output ");
            push_list(&mut out, &mut self.outputs.iter().copied());
            out.push_str(";\n");
        }
        let mut wires = (0..self.net_names.len())
            .filter(|&i| !is_port[i] && !is_const_alias(&self.net_names[i]))
            .map(NetId::from_index)
            .peekable();
        if wires.peek().is_some() {
            out.push_str("  wire ");
            push_list(&mut out, &mut wires);
            out.push_str(";\n");
        }
        for g in &self.gates {
            let constant = match g.kind {
                GateKind::Const0 => Some("1'b0"),
                GateKind::Const1 => Some("1'b1"),
                _ => None,
            };
            let driven = self.net_name(g.output);
            match constant {
                // Constant drivers of the literal alias nets `1'b0`/`1'b1`
                // are implicit in the emitted text; other constant nets get
                // an explicit buf from the literal.
                Some(_) if is_const_alias(driven) => continue,
                Some(literal) => {
                    out.push_str("  buf ");
                    out.push_str(&g.name);
                    out.push_str(" (");
                    out.push_str(driven);
                    out.push_str(", ");
                    out.push_str(literal);
                }
                None => {
                    out.push_str("  ");
                    out.push_str(g.kind.name());
                    out.push(' ');
                    out.push_str(&g.name);
                    out.push_str(" (");
                    out.push_str(driven);
                    for &i in &g.inputs {
                        out.push_str(", ");
                        out.push_str(self.net_name(i));
                    }
                }
            }
            out.push_str(");\n");
        }
        out.push_str("endmodule\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_adder() -> Netlist {
        let mut nl = Netlist::new("fa");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let cin = nl.add_input("cin");
        let s = nl.add_net("s");
        let cout = nl.add_net("cout");
        let t = nl.add_net("t");
        nl.add_gate(GateKind::Xor, "g0", t, vec![a, b]);
        nl.add_gate(GateKind::Xor, "g1", s, vec![t, cin]);
        let p = nl.add_net("p");
        let q = nl.add_net("q");
        nl.add_gate(GateKind::And, "g2", p, vec![a, b]);
        nl.add_gate(GateKind::And, "g3", q, vec![t, cin]);
        nl.add_gate(GateKind::Or, "g4", cout, vec![p, q]);
        nl.mark_output(s);
        nl.mark_output(cout);
        nl
    }

    #[test]
    fn full_adder_truth() {
        let conv = full_adder().to_aig().expect("valid");
        for mask in 0..8u32 {
            let bits = [mask & 1 == 1, mask >> 1 & 1 == 1, mask >> 2 & 1 == 1];
            let total = bits.iter().filter(|&&x| x).count();
            let out = conv.aig.eval(&bits);
            assert_eq!(out[0], total % 2 == 1, "sum {mask}");
            assert_eq!(out[1], total >= 2, "carry {mask}");
        }
    }

    #[test]
    fn multiple_drivers_rejected() {
        let mut nl = Netlist::new("bad");
        let a = nl.add_input("a");
        let w = nl.add_net("w");
        nl.add_gate(GateKind::Buf, "g0", w, vec![a]);
        nl.add_gate(GateKind::Not, "g1", w, vec![a]);
        assert!(matches!(
            nl.validate(),
            Err(NetlistError::MultipleDrivers(_))
        ));
    }

    #[test]
    fn undriven_read_net_rejected() {
        let mut nl = Netlist::new("bad");
        let w = nl.add_net("w");
        nl.mark_output(w);
        assert!(matches!(nl.validate(), Err(NetlistError::Undriven(_))));
    }

    #[test]
    fn cycle_detected() {
        let mut nl = Netlist::new("cyc");
        let a = nl.add_input("a");
        let x = nl.add_net("x");
        let y = nl.add_net("y");
        nl.add_gate(GateKind::And, "g0", x, vec![a, y]);
        nl.add_gate(GateKind::Not, "g1", y, vec![x]);
        nl.mark_output(x);
        assert!(matches!(
            nl.to_aig(),
            Err(NetlistError::CombinationalCycle(_))
        ));
    }

    #[test]
    fn bad_arity_rejected() {
        let mut nl = Netlist::new("bad");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let w = nl.add_net("w");
        nl.add_gate(GateKind::Not, "g0", w, vec![a, b]);
        assert!(matches!(nl.validate(), Err(NetlistError::BadArity { .. })));
    }

    #[test]
    fn constants_and_multi_input_gates() {
        let mut nl = Netlist::new("k");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let one = nl.add_net("one");
        nl.add_gate(GateKind::Const1, "g0", one, vec![]);
        let n3 = nl.add_net("n3");
        nl.add_gate(GateKind::Nand, "g1", n3, vec![a, b, c]);
        let x3 = nl.add_net("x3");
        nl.add_gate(GateKind::Xnor, "g2", x3, vec![a, b, c]);
        let o = nl.add_net("o");
        nl.add_gate(GateKind::And, "g3", o, vec![n3, x3, one]);
        nl.mark_output(o);
        let conv = nl.to_aig().expect("valid");
        for mask in 0..8u32 {
            let bits = [mask & 1 == 1, mask >> 1 & 1 == 1, mask >> 2 & 1 == 1];
            let nand = !(bits[0] && bits[1] && bits[2]);
            let xnor = bits.iter().filter(|&&x| x).count() % 2 == 0;
            assert_eq!(conv.aig.eval(&bits)[0], nand && xnor);
        }
    }

    #[test]
    fn from_aig_roundtrip() {
        let conv = full_adder().to_aig().expect("valid");
        let nl2 = Netlist::from_aig("fa2", &conv.aig);
        let conv2 = nl2.to_aig().expect("valid roundtrip");
        for mask in 0..8u32 {
            let bits = [mask & 1 == 1, mask >> 1 & 1 == 1, mask >> 2 & 1 == 1];
            assert_eq!(conv.aig.eval(&bits), conv2.aig.eval(&bits));
        }
    }

    #[test]
    fn verilog_emission_mentions_everything() {
        let nl = full_adder();
        let v = nl.to_verilog();
        assert!(v.contains("module fa"));
        assert!(v.contains("input a, b, cin;"));
        assert!(v.contains("output s, cout;"));
        assert!(v.contains("xor g0 (t, a, b);"));
        assert!(v.contains("endmodule"));
    }

    #[test]
    fn add_net_is_idempotent() {
        let mut nl = Netlist::new("m");
        let a = nl.add_net("a");
        let a2 = nl.add_net("a");
        assert_eq!(a, a2);
        assert_eq!(nl.num_nets(), 1);
    }
}
