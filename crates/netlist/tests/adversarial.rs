//! Adversarial front-end tests: malformed and hostile inputs must come
//! back as typed errors from `parse_verilog`/`to_aig` — never a panic.

use eco_netlist::{parse_verilog, GateKind, NetId, Netlist, NetlistError};

const SAMPLE: &str = "\
module top (a, b, c, y, z);
  input a, b, c;
  output y, z;
  wire w1, w2;
  and g1 (w1, a, b);
  // eco_target w1
  xor g2 (w2, w1, c);
  not g3 (y, w2);
  buf g4 (z, 1'b1);
endmodule
";

/// Every byte-prefix truncation of a well-formed module either parses
/// (only the full text should) or returns a typed parse error; the
/// parser must never panic on an unexpected end of file.
#[test]
fn truncated_verilog_never_panics() {
    let full = SAMPLE;
    for cut in 0..full.len() {
        if !full.is_char_boundary(cut) {
            continue;
        }
        let prefix = &full[..cut];
        match parse_verilog(prefix) {
            Ok(parsed) => {
                // Anything that parses must also convert or fail typed.
                let _ = parsed.netlist.to_aig();
            }
            Err(e) => {
                assert!(!e.message.is_empty(), "cut at {cut}: empty message");
            }
        }
    }
    // The interesting cut points are hard errors, not silent successes.
    for (cut, what) in [
        (0, "empty file"),
        (7, "mid module keyword"),
        (20, "mid port list"),
        (55, "after input decl"),
        (100, "mid gate instance"),
        (full.len() - 10, "missing endmodule"),
    ] {
        assert!(
            parse_verilog(&full[..cut]).is_err(),
            "truncation at {cut} ({what}) must be an error"
        );
    }
}

#[test]
fn garbage_bytes_are_typed_errors() {
    for src in [
        "module m (a; %$#!",
        "module @ (a);",
        "mod|ule",
        "\u{0}\u{1}",
    ] {
        let e = parse_verilog(src);
        assert!(e.is_err(), "{src:?} must not parse");
    }
}

#[test]
fn undriven_output_is_typed_error_from_to_aig() {
    let src = "
module m (a, y);
  input a;
  output y;
  wire w;
  and g1 (w, a, a);
endmodule
";
    let parsed = parse_verilog(src).expect("parses; undriven is semantic");
    assert_eq!(
        parsed.netlist.to_aig().unwrap_err(),
        NetlistError::Undriven("y".to_string())
    );
}

#[test]
fn undriven_gate_input_is_typed_error() {
    let src = "
module m (a, y);
  input a;
  output y;
  wire ghost;
  and g1 (y, a, ghost);
endmodule
";
    let parsed = parse_verilog(src).expect("parses");
    assert_eq!(
        parsed.netlist.to_aig().unwrap_err(),
        NetlistError::Undriven("ghost".to_string())
    );
}

#[test]
fn combinational_cycle_is_typed_error() {
    let src = "
module m (a, y);
  input a;
  output y;
  wire x;
  and g1 (x, a, y);
  not g2 (y, x);
endmodule
";
    let parsed = parse_verilog(src).expect("parses; cycle is semantic");
    assert!(matches!(
        parsed.netlist.to_aig().unwrap_err(),
        NetlistError::CombinationalCycle(_)
    ));
}

#[test]
fn self_loop_gate_is_typed_error() {
    let src = "
module m (a, y);
  input a;
  output y;
  and g1 (y, y, a);
endmodule
";
    let parsed = parse_verilog(src).expect("parses");
    assert!(matches!(
        parsed.netlist.to_aig().unwrap_err(),
        NetlistError::CombinationalCycle(_)
    ));
}

#[test]
fn duplicate_net_drivers_are_typed_errors() {
    let src = "
module m (a, b, y);
  input a, b;
  output y;
  and g1 (y, a, b);
  or  g2 (y, a, b);
endmodule
";
    let parsed = parse_verilog(src).expect("parses; double drive is semantic");
    assert_eq!(
        parsed.netlist.to_aig().unwrap_err(),
        NetlistError::MultipleDrivers("y".to_string())
    );
}

#[test]
fn gate_driving_an_input_is_a_multiple_driver_error() {
    let src = "
module m (a, b, y);
  input a, b;
  output y;
  and g1 (a, a, b);
  buf g2 (y, a);
endmodule
";
    let parsed = parse_verilog(src).expect("parses");
    assert_eq!(
        parsed.netlist.to_aig().unwrap_err(),
        NetlistError::MultipleDrivers("a".to_string())
    );
}

#[test]
fn duplicate_input_declaration_is_a_parse_error() {
    for src in [
        "module m (a, y); input a, a; output y; buf g (y, a); endmodule",
        "module m (a, y); input a; input a; output y; buf g (y, a); endmodule",
    ] {
        let e = parse_verilog(src).unwrap_err();
        assert!(e.message.contains("more than once"), "{src:?}: {e}");
    }
}

#[test]
fn duplicate_output_declaration_is_a_parse_error() {
    let src = "module m (a, y); input a; output y, y; buf g (y, a); endmodule";
    let e = parse_verilog(src).unwrap_err();
    assert!(e.message.contains("more than once"), "{e}");
}

#[test]
fn input_also_declared_output_is_a_parse_error() {
    let src = "module m (a); input a; output a; endmodule";
    let e = parse_verilog(src).unwrap_err();
    assert!(e.message.contains("both"), "{e}");
}

#[test]
fn duplicate_input_via_api_is_caught_by_validate() {
    let mut nl = Netlist::new("m");
    let a = nl.add_input("a");
    nl.add_input("a"); // same net marked input twice
    let y = nl.add_net("y");
    nl.add_gate(GateKind::Buf, "g", y, vec![a]);
    nl.mark_output(y);
    assert_eq!(
        nl.validate().unwrap_err(),
        NetlistError::DuplicateInput("a".to_string())
    );
}

#[test]
fn foreign_net_ids_are_range_checked_not_panics() {
    let bogus = NetId::from_index(999);
    // As a gate output.
    let mut nl = Netlist::new("m");
    let a = nl.add_input("a");
    nl.add_gate(GateKind::Buf, "g", bogus, vec![a]);
    assert_eq!(nl.validate().unwrap_err(), NetlistError::InvalidNetId(999));
    // As a gate input.
    let mut nl = Netlist::new("m");
    nl.add_input("a");
    let y = nl.add_net("y");
    nl.add_gate(GateKind::Buf, "g", y, vec![bogus]);
    assert_eq!(nl.validate().unwrap_err(), NetlistError::InvalidNetId(999));
    // As a marked output.
    let mut nl = Netlist::new("m");
    nl.add_input("a");
    nl.mark_output(bogus);
    assert_eq!(nl.validate().unwrap_err(), NetlistError::InvalidNetId(999));
    assert!(matches!(
        nl.to_aig().unwrap_err(),
        NetlistError::InvalidNetId(999)
    ));
}

#[test]
fn gate_with_no_connections_is_a_parse_error() {
    let src = "module m (a, y); input a; output y; and g (); endmodule";
    let e = parse_verilog(src).unwrap_err();
    assert!(e.message.contains("no connections"), "{e}");
}

#[test]
fn wrong_arity_from_text_is_typed_error() {
    // `not` with two inputs.
    let src = "module m (a, b, y); input a, b; output y; not g (y, a, b); endmodule";
    let parsed = parse_verilog(src).expect("parses; arity is semantic");
    assert!(matches!(
        parsed.netlist.to_aig().unwrap_err(),
        NetlistError::BadArity { .. }
    ));
}

/// Two undriven nets are both read, the higher id first (by a gate) and
/// the lower one only as an output: validation names the lower id.
#[test]
fn undriven_read_nets_report_the_lowest_id() {
    let mut nl = Netlist::new("m");
    let a = nl.add_input("a");
    let lo = nl.add_net("lo");
    let hi = nl.add_net("hi");
    let y = nl.add_net("y");
    nl.add_gate(GateKind::And, "g", y, vec![hi, a]);
    nl.mark_output(y);
    nl.mark_output(lo);
    assert!(lo < hi);
    assert_eq!(
        nl.validate().unwrap_err(),
        NetlistError::Undriven("lo".to_string())
    );
    // Mirrored: the lower id read by a gate, the higher only as an output.
    let mut nl = Netlist::new("m");
    let a = nl.add_input("a");
    let lo = nl.add_net("lo");
    let hi = nl.add_net("hi");
    let y = nl.add_net("y");
    nl.add_gate(GateKind::And, "g", y, vec![a, lo]);
    nl.mark_output(hi);
    nl.mark_output(y);
    assert_eq!(
        nl.validate().unwrap_err(),
        NetlistError::Undriven("lo".to_string())
    );
}
