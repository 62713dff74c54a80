//! Randomized and exact tests of the netlist layer: random netlists
//! round trip through Verilog text structure for structure, emission is
//! a fixpoint of parse → emit, every parse error names its message and
//! line, AIG conversion is stable, and weights resolve consistently.

use eco_netlist::{parse_verilog, GateKind, NetId, Netlist, WeightTable};
use eco_testutil::{cases, Rng};

/// A random netlist recipe: gate kinds plus input arities, wired to
/// randomly chosen earlier nets.
#[derive(Debug, Clone)]
struct Recipe {
    num_inputs: usize,
    gates: Vec<(u8, Vec<usize>)>, // (kind selector, fanin picks)
    num_outputs: usize,
}

fn random_recipe(rng: &mut Rng) -> Recipe {
    let num_inputs = rng.range(2, 6) as usize;
    let num_gates = rng.range(1, 20) as usize;
    let num_outputs = rng.range(1, 4) as usize;
    let gates = (0..num_gates)
        .map(|_| {
            let kind_sel = rng.below(8) as u8;
            let picks = (0..rng.range(1, 4)).map(|_| rng.index(64)).collect();
            (kind_sel, picks)
        })
        .collect();
    Recipe {
        num_inputs,
        gates,
        num_outputs,
    }
}

/// Everything a netlist's text carries, by name: net names in id
/// order, gates (kind, instance name, output, inputs) in order, inputs
/// and outputs.
type Structure = (
    Vec<String>,
    Vec<(GateKind, String, String, Vec<String>)>,
    Vec<String>,
    Vec<String>,
);

fn structure(nl: &Netlist) -> Structure {
    let name = |id: &NetId| nl.net_name(*id).to_string();
    (
        (0..nl.num_nets())
            .map(|i| name(&NetId::from_index(i)))
            .collect(),
        nl.gates()
            .iter()
            .map(|g| {
                (
                    g.kind,
                    g.name.to_string(),
                    name(&g.output),
                    g.inputs.iter().map(name).collect(),
                )
            })
            .collect(),
        nl.inputs().iter().map(name).collect(),
        nl.outputs().iter().map(name).collect(),
    )
}

fn build(recipe: &Recipe) -> Netlist {
    let mut nl = Netlist::new("rand");
    let mut nets: Vec<NetId> = (0..recipe.num_inputs)
        .map(|i| nl.add_input(format!("i{i}")))
        .collect();
    for (gi, (kind_sel, picks)) in recipe.gates.iter().enumerate() {
        let kind = match kind_sel % 8 {
            0 => GateKind::And,
            1 => GateKind::Or,
            2 => GateKind::Nand,
            3 => GateKind::Nor,
            4 => GateKind::Xor,
            5 => GateKind::Xnor,
            6 => GateKind::Buf,
            _ => GateKind::Not,
        };
        let arity = match kind {
            GateKind::Buf | GateKind::Not => 1,
            _ => picks.len().max(1),
        };
        let ins: Vec<NetId> = (0..arity)
            .map(|k| nets[picks[k % picks.len()] % nets.len()])
            .collect();
        let out = nl.add_net(format!("w{gi}"));
        nl.add_gate(kind, format!("g{gi}"), out, ins);
        nets.push(out);
    }
    for k in 0..recipe.num_outputs {
        let src = nets[nets.len() - 1 - (k % nets.len().min(4))];
        let po = nl.add_net(format!("o{k}"));
        nl.add_gate(GateKind::Buf, format!("gpo{k}"), po, vec![src]);
        nl.mark_output(po);
    }
    nl
}

#[test]
fn verilog_roundtrip_preserves_function() {
    cases(64, |case, rng| {
        let recipe = random_recipe(rng);
        let nl = build(&recipe);
        let conv = nl.to_aig().expect("generated netlists are valid");
        let text = nl.to_verilog();
        let again = parse_verilog(&text).expect("emitted text parses").netlist;
        let conv2 = again.to_aig().expect("reparsed netlist is valid");
        assert_eq!(conv.aig.num_inputs(), conv2.aig.num_inputs(), "case {case}");
        assert_eq!(
            conv.aig.num_outputs(),
            conv2.aig.num_outputs(),
            "case {case}"
        );
        let n = conv.aig.num_inputs();
        // 64 random-ish patterns via fixed words.
        let words: Vec<u64> = (0..n)
            .map(|i| 0x9E37_79B9u64.rotate_left(i as u32 * 7) ^ (i as u64))
            .collect();
        assert_eq!(
            conv.aig.simulate_outputs(&words),
            conv2.aig.simulate_outputs(&words),
            "case {case}: {recipe:?}"
        );
    });
}

#[test]
fn aig_conversion_is_deterministic() {
    cases(64, |case, rng| {
        let recipe = random_recipe(rng);
        let nl = build(&recipe);
        let a = nl.to_aig().expect("valid").aig.to_aag();
        let b = nl.to_aig().expect("valid").aig.to_aag();
        assert_eq!(a, b, "case {case}");
    });
}

#[test]
fn weight_resolution_defaults_consistently() {
    cases(64, |case, rng| {
        let recipe = random_recipe(rng);
        let default = rng.range(1, 100);
        let nl = build(&recipe);
        let mut table = WeightTable::new();
        table.set("w0", 7);
        let resolved = table.resolve(&nl, default);
        assert_eq!(resolved.len(), nl.num_nets(), "case {case}");
        for (idx, &got) in resolved.iter().enumerate() {
            let name = nl.net_name(NetId::from_index(idx));
            let expect = if name == "w0" { 7 } else { default };
            assert_eq!(got, expect, "case {case}: net {name}");
        }
    });
}

#[test]
fn verilog_roundtrip_preserves_structure() {
    cases(64, |case, rng| {
        let nl = build(&random_recipe(rng));
        let again = parse_verilog(&nl.to_verilog())
            .expect("emitted text parses")
            .netlist;
        let (names, gates, inputs, outputs) = structure(&nl);
        // The parser numbers the port list first (inputs, then outputs),
        // then the declared wires in emitted (id) order.
        let ports: Vec<String> = inputs.iter().chain(&outputs).cloned().collect();
        let wires = names.into_iter().filter(|n| !ports.contains(n));
        let expected_names: Vec<String> = ports.iter().cloned().chain(wires).collect();
        assert_eq!(
            structure(&again),
            (expected_names, gates, inputs, outputs),
            "case {case}"
        );
    });
}

#[test]
fn emission_is_a_fixpoint_of_parse_then_emit() {
    cases(64, |case, rng| {
        let mut nl = build(&random_recipe(rng));
        // Constant nets of both kinds, read by a fresh output.
        let zero = nl.add_net("k0");
        nl.add_gate(GateKind::Const0, "gk0", zero, vec![]);
        let one = nl.add_net("k1");
        nl.add_gate(GateKind::Const1, "gk1", one, vec![]);
        let k = nl.add_net("k");
        nl.add_gate(GateKind::Xor, "gk", k, vec![zero, one]);
        nl.mark_output(k);
        let text = nl.to_verilog();
        let parsed = parse_verilog(&text).expect("emitted text parses").netlist;
        assert_eq!(parsed.to_verilog(), text, "case {case}");
        let again = parse_verilog(&text).expect("parses twice").netlist;
        assert_eq!(structure(&again), structure(&parsed), "case {case}");
    });
}

/// The `(line, message)` of a parse error.
fn parse_error(src: &str) -> (usize, String) {
    let e = parse_verilog(src).expect_err(src);
    (e.line, e.message)
}

#[test]
fn every_parse_error_names_its_message_and_line() {
    let cases: [(&str, usize, &str); 16] = [
        ("module m (a);\n  @", 2, "unexpected character '@'"),
        (
            "module m (a);\n\n  a \u{20ac}",
            3,
            "unexpected character '\u{20ac}'",
        ),
        ("module m (a); / a", 1, "unexpected '/'"),
        ("module m (a);\n/", 2, "unexpected '/'"),
        ("module m (\na,\nb", 3, "unexpected end of file"),
        ("", 0, "unexpected end of file"),
        ("module m (a);\ninput a;\n", 0, "missing endmodule"),
        (
            "module m (a, b);\ninput a;\ninput b, a;\nendmodule",
            3,
            "net \"a\" declared 'input' more than once",
        ),
        (
            "module m (y);\noutput y,\n y;\nendmodule",
            2,
            "net \"y\" declared 'output' more than once",
        ),
        (
            "module m (a);\ninput a;\noutput a;\nendmodule",
            0,
            "net \"a\" declared both 'input' and 'output'",
        ),
        (
            "module m (a);\ninput a;\noutput y;\nendmodule",
            0,
            "output \"y\" never declared",
        ),
        (
            "module m (a);\ninput a;\n\nand g1 ();\nendmodule",
            4,
            "gate \"g1\" has no connections",
        ),
        (
            "module m (a); input a; or ( ); endmodule",
            1,
            "gate \"g_auto_10\" has no connections",
        ),
        (
            "module m (a, y);\ninput a;\ndff g (y, a);\nendmodule",
            3,
            "unsupported primitive or keyword \"dff\"",
        ),
        (
            "module m (a)\n;\n input a b;",
            3,
            "expected ',' or ';', found \"b\"",
        ),
        ("modul m (a);", 1, "expected \"module\", found \"modul\""),
    ];
    for (src, line, message) in cases {
        assert_eq!(
            parse_error(src),
            (line, message.to_string()),
            "source {src:?}"
        );
    }
}

#[test]
fn non_ascii_identifiers_and_separators_are_accepted() {
    // `ä`, `ý` and `日本` are alphanumeric; U+00A0 and U+2028 are
    // whitespace.
    let src = "module m\u{a0}(\u{e4}, \u{65e5}\u{672c}, \u{fd});\u{2028}input \u{e4}, \u{65e5}\u{672c};\n\
               output \u{fd};\n  and g\u{e4} (\u{fd}, \u{e4}, \u{65e5}\u{672c});\nendmodule";
    let nl = parse_verilog(src).expect("parses").netlist;
    let (names, gates, inputs, outputs) = structure(&nl);
    assert_eq!(names, ["\u{e4}", "\u{65e5}\u{672c}", "\u{fd}"]);
    assert_eq!(gates[0].1, "g\u{e4}");
    assert_eq!(inputs, ["\u{e4}", "\u{65e5}\u{672c}"]);
    assert_eq!(outputs, ["\u{fd}"]);
    // A non-alphanumeric, non-whitespace character is still an error.
    assert_eq!(
        parse_error("module m (a\u{301});"),
        (1, "unexpected character '\\u{301}'".to_string())
    );
}

#[test]
fn hex_constants_alias_the_binary_constant_nets() {
    let src = "module m (y, z);\noutput y, z;\nbuf g1 (y, 1'h0);\nbuf g2 (z, 1'h1);\n\
               and g3 (w, 1'b0, 1'h0);\nendmodule";
    let nl = parse_verilog(src).expect("parses").netlist;
    let (names, gates, _, _) = structure(&nl);
    assert_eq!(names, ["y", "z", "1'b0", "1'b1", "w"]);
    let drivers: Vec<(GateKind, &str, &str)> = gates
        .iter()
        .map(|(kind, name, out, _)| (*kind, name.as_str(), out.as_str()))
        .collect();
    assert_eq!(
        drivers,
        [
            (GateKind::Const0, "__gconst0", "1'b0"),
            (GateKind::Buf, "g1", "y"),
            (GateKind::Const1, "__gconst1", "1'b1"),
            (GateKind::Buf, "g2", "z"),
            (GateKind::And, "g3", "w"),
        ]
    );
    assert_eq!(gates[4].3, ["1'b0", "1'b0"]);
    assert_eq!(nl.to_aig().expect("valid").aig.eval(&[]), [false, true]);
}

#[test]
fn generated_instance_names_survive_a_round_trip() {
    // The generated name is the token index just past the primitive.
    let src = "module m (a, y); input a; output y; not (y, a); endmodule";
    let nl = parse_verilog(src).expect("parses").netlist;
    assert_eq!(&*nl.gates()[0].name, "g_auto_15");
    let again = parse_verilog(&nl.to_verilog()).expect("reparses").netlist;
    assert_eq!(structure(&again), structure(&nl));
}
