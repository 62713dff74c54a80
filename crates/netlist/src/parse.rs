//! Parser for the structural-Verilog subset used by the ICCAD'17
//! contest benchmarks: one module of primitive gate instances, plus
//! `// eco_target <net>` directives marking rectification points.

use crate::netlist::{GateKind, NetId, Netlist};
use std::collections::HashSet;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Error from [`parse_verilog`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseVerilogError {
    /// 1-based line of the offending token (best effort).
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for ParseVerilogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "verilog parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for ParseVerilogError {}

/// Result of parsing: the netlist and any `eco_target` directives found
/// (net names, in file order).
#[derive(Clone, Debug)]
pub struct ParsedModule {
    /// The parsed netlist.
    pub netlist: Netlist,
    /// Net names marked as ECO targets via `// eco_target <net>`.
    pub targets: Vec<String>,
}

/// One token: a slice of the source text and its 1-based line.
#[derive(Clone, Copy, Debug)]
struct Tok<'a> {
    text: &'a str,
    line: usize,
}

fn error(line: usize, message: impl Into<String>) -> ParseVerilogError {
    ParseVerilogError {
        line,
        message: message.into(),
    }
}

/// The ASCII characters `char::is_whitespace` accepts.
fn is_ascii_space(b: u8) -> bool {
    matches!(b, b'\t' | b'\n' | 0x0B | 0x0C | b'\r' | b' ')
}

/// ASCII characters that may continue an identifier (`\` may only
/// start one).
fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'\'' | b'[' | b']' | b'.')
}

/// The character starting at byte `i` of `src` (`i` is a char boundary).
fn char_at(src: &str, i: usize) -> char {
    src[i..].chars().next().expect("offset inside the text")
}

/// Byte offset just past the identifier continuing at `i`.
fn word_end(src: &str, mut i: usize) -> usize {
    let bytes = src.as_bytes();
    while let Some(&b) = bytes.get(i) {
        if b.is_ascii() {
            if !is_word_byte(b) {
                break;
            }
            i += 1;
        } else {
            let c = char_at(src, i);
            if !c.is_alphanumeric() {
                break;
            }
            i += c.len_utf8();
        }
    }
    i
}

/// Tokens (slices of `src`), the `// eco_target` net names in file
/// order, and the number of `;` tokens (a sizing hint).
type Lexed<'a> = (Vec<Tok<'a>>, Vec<String>, usize);

/// Splits `src` into tokens in one pass. ASCII bytes are classified
/// directly; any other character is decoded and classified with
/// `char::is_alphanumeric` / `char::is_whitespace`.
fn tokenize(src: &str) -> Result<Lexed<'_>, ParseVerilogError> {
    let bytes = src.as_bytes();
    // Contest netlists run a little under one token per four bytes.
    let mut toks = Vec::with_capacity(src.len() / 4);
    let mut targets = Vec::new();
    let mut statements = 0;
    let mut line = 1;
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b'(' | b')' | b',' | b';' => {
                statements += usize::from(b == b';');
                toks.push(Tok {
                    text: &src[i..i + 1],
                    line,
                });
                i += 1;
            }
            b'/' => match bytes.get(i + 1) {
                Some(b'/') => {
                    let start = i + 2;
                    let end = bytes[start..]
                        .iter()
                        .position(|&c| c == b'\n')
                        .map_or(bytes.len(), |p| start + p);
                    if let Some(rest) = src[start..end].trim().strip_prefix("eco_target") {
                        targets.push(rest.trim().to_string());
                    }
                    if end < bytes.len() {
                        line += 1;
                    }
                    i = end + 1;
                }
                Some(b'*') => {
                    i += 2;
                    let mut prev = b' ';
                    while let Some(&c) = bytes.get(i) {
                        i += 1;
                        if c == b'\n' {
                            line += 1;
                        }
                        if prev == b'*' && c == b'/' {
                            break;
                        }
                        prev = c;
                    }
                }
                _ => return Err(error(line, "unexpected '/'")),
            },
            _ if is_ascii_space(b) => i += 1,
            _ if is_word_byte(b) || b == b'\\' => {
                let end = word_end(src, i + 1);
                toks.push(Tok {
                    text: &src[i..end],
                    line,
                });
                i = end;
            }
            _ => {
                let c = char_at(src, i);
                if c.is_whitespace() {
                    i += c.len_utf8();
                } else if c.is_alphanumeric() {
                    let end = word_end(src, i + c.len_utf8());
                    toks.push(Tok {
                        text: &src[i..end],
                        line,
                    });
                    i = end;
                } else {
                    return Err(error(line, format!("unexpected character {c:?}")));
                }
            }
        }
    }
    Ok((toks, targets, statements))
}

/// Read position in the token list.
struct Cursor<'a> {
    toks: Vec<Tok<'a>>,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<Tok<'a>> {
        self.toks.get(self.pos).copied()
    }

    fn next(&mut self) -> Result<Tok<'a>, ParseVerilogError> {
        let t = self.peek().ok_or_else(|| {
            error(
                self.toks.last().map_or(0, |t| t.line),
                "unexpected end of file",
            )
        })?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, text: &str) -> Result<(), ParseVerilogError> {
        let t = self.next()?;
        if t.text != text {
            return Err(error(
                t.line,
                format!("expected {text:?}, found {:?}", t.text),
            ));
        }
        Ok(())
    }

    /// Reads `name, name, ... ;` into `names` (cleared first).
    fn name_list(&mut self, names: &mut Vec<&'a str>) -> Result<(), ParseVerilogError> {
        names.clear();
        loop {
            names.push(self.next()?.text);
            let sep = self.next()?;
            match sep.text {
                "," => continue,
                ";" => return Ok(()),
                other => {
                    return Err(error(
                        sep.line,
                        format!("expected ',' or ';', found {other:?}"),
                    ))
                }
            }
        }
    }
}

/// Resolves connection tokens to net ids, mapping the constants
/// `1'b0`/`1'b1` (alias `1'h0`/`1'h1`) to the nets literally named
/// `1'b0`/`1'b1`. `to_verilog` prints those back verbatim, so their
/// driver gates are implicit; each is added on the constant's first
/// use.
#[derive(Default)]
struct Connections {
    const0_driven: bool,
    const1_driven: bool,
}

impl Connections {
    fn net(&mut self, nl: &mut Netlist, token: &str) -> NetId {
        let (name, driven, kind, gate) = match token {
            "1'b0" | "1'h0" => (
                "1'b0",
                &mut self.const0_driven,
                GateKind::Const0,
                "__gconst0",
            ),
            "1'b1" | "1'h1" => (
                "1'b1",
                &mut self.const1_driven,
                GateKind::Const1,
                "__gconst1",
            ),
            name => return nl.add_net(name),
        };
        let id = nl.add_net(name);
        if !std::mem::replace(driven, true) {
            nl.add_gate(kind, gate, id, vec![]);
        }
        id
    }
}

/// Parses a single structural-Verilog module.
///
/// Supported constructs: `module name (ports);`, `input`/`output`/`wire`
/// declarations, primitive instances
/// (`and`/`or`/`nand`/`nor`/`xor`/`xnor`/`buf`/`not`), the constants
/// `1'b0`/`1'b1` as connections, comments, and `// eco_target <net>`
/// directives.
///
/// # Errors
///
/// Returns [`ParseVerilogError`] on any unsupported or malformed
/// construct.
///
/// # Examples
///
/// ```
/// use eco_netlist::parse_verilog;
///
/// let src = "
/// module top (a, b, y);
///   input a, b;
///   output y;
///   wire w;
///   // eco_target w
///   and g1 (w, a, b);
///   not g2 (y, w);
/// endmodule";
/// let parsed = parse_verilog(src)?;
/// assert_eq!(parsed.targets, vec!["w"]);
/// assert_eq!(parsed.netlist.gates().len(), 2);
/// # Ok::<(), eco_netlist::ParseVerilogError>(())
/// ```
pub fn parse_verilog(src: &str) -> Result<ParsedModule, ParseVerilogError> {
    let (toks, targets, statements) = tokenize(src)?;
    let mut p = Cursor { toks, pos: 0 };
    p.expect("module")?;
    let mut nl = Netlist::new(p.next()?.text);
    // Nearly every statement is a gate driving a net of its own.
    nl.reserve(statements, statements);
    // Port list (names recorded; direction comes from declarations).
    p.expect("(")?;
    loop {
        match p.next()?.text {
            ")" => break,
            "," => continue,
            name => {
                nl.add_net(name);
            }
        }
    }
    p.expect(";")?;
    let mut outputs: Vec<&str> = Vec::new();
    let mut declared_outputs: HashSet<&str> = HashSet::new();
    let mut declared_inputs: HashSet<&str> = HashSet::new();
    let mut connections = Connections::default();
    // Scratch list of the current declaration's names or gate's
    // connections.
    let mut names: Vec<&str> = Vec::new();
    loop {
        let t = p.peek().ok_or_else(|| error(0, "missing endmodule"))?;
        p.pos += 1;
        match t.text {
            "endmodule" => break,
            "input" => {
                p.name_list(&mut names)?;
                for &n in &names {
                    if !declared_inputs.insert(n) {
                        return Err(error(
                            t.line,
                            format!("net {n:?} declared 'input' more than once"),
                        ));
                    }
                    nl.add_input(n);
                }
            }
            "output" => {
                p.name_list(&mut names)?;
                for &n in &names {
                    if !declared_outputs.insert(n) {
                        return Err(error(
                            t.line,
                            format!("net {n:?} declared 'output' more than once"),
                        ));
                    }
                    outputs.push(n);
                }
            }
            "wire" => {
                p.name_list(&mut names)?;
                for &n in &names {
                    nl.add_net(n);
                }
            }
            prim => {
                let kind = GateKind::from_name(prim).ok_or_else(|| {
                    error(t.line, format!("unsupported primitive or keyword {prim:?}"))
                })?;
                // Optional instance name.
                let inst = match p.peek() {
                    Some(tok) if tok.text != "(" => {
                        p.pos += 1;
                        Arc::from(tok.text)
                    }
                    _ => Arc::from(format!("g_auto_{}", p.pos)),
                };
                p.expect("(")?;
                names.clear();
                loop {
                    match p.next()?.text {
                        ")" => break,
                        "," => continue,
                        conn => names.push(conn),
                    }
                }
                p.expect(";")?;
                let Some((&out, ins)) = names.split_first() else {
                    return Err(error(t.line, format!("gate {inst:?} has no connections")));
                };
                let out = connections.net(&mut nl, out);
                let ins = ins.iter().map(|c| connections.net(&mut nl, c)).collect();
                nl.add_gate(kind, inst, out, ins);
            }
        }
    }
    for o in outputs {
        if declared_inputs.contains(o) {
            return Err(error(
                0,
                format!("net {o:?} declared both 'input' and 'output'"),
            ));
        }
        let id = nl
            .net(o)
            .ok_or_else(|| error(0, format!("output {o:?} never declared")))?;
        nl.mark_output(id);
    }
    Ok(ParsedModule {
        netlist: nl,
        targets,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "
// A sample contest-style module.
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

    #[test]
    fn parses_sample_module() {
        let parsed = parse_verilog(SAMPLE).expect("parse");
        let nl = &parsed.netlist;
        assert_eq!(nl.name(), "top");
        assert_eq!(nl.inputs().len(), 3);
        assert_eq!(nl.outputs().len(), 2);
        assert_eq!(parsed.targets, vec!["w1"]);
        let conv = nl.to_aig().expect("valid");
        for mask in 0..8u32 {
            let bits = [mask & 1 == 1, mask >> 1 & 1 == 1, mask >> 2 & 1 == 1];
            let w1 = bits[0] && bits[1];
            let w2 = w1 ^ bits[2];
            assert_eq!(conv.aig.eval(&bits), vec![!w2, true]);
        }
    }

    #[test]
    fn roundtrip_through_to_verilog() {
        let parsed = parse_verilog(SAMPLE).expect("parse");
        let text = parsed.netlist.to_verilog();
        let again = parse_verilog(&text).expect("reparse");
        let a = parsed.netlist.to_aig().expect("valid").aig;
        let b = again.netlist.to_aig().expect("valid").aig;
        for mask in 0..8u32 {
            let bits = [mask & 1 == 1, mask >> 1 & 1 == 1, mask >> 2 & 1 == 1];
            assert_eq!(a.eval(&bits), b.eval(&bits));
        }
    }

    #[test]
    fn block_comments_are_skipped() {
        let src = "module m (a, y); /* multi\nline */ input a; output y; buf g (y, a); endmodule";
        let parsed = parse_verilog(src).expect("parse");
        assert_eq!(parsed.netlist.gates().len(), 1);
    }

    #[test]
    fn unnamed_instances_get_generated_names() {
        let src = "module m (a, y); input a; output y; not (y, a); endmodule";
        let parsed = parse_verilog(src).expect("parse");
        assert_eq!(parsed.netlist.gates().len(), 1);
        assert!(parsed.netlist.gates()[0].name.starts_with("g_auto"));
    }

    #[test]
    fn unsupported_primitive_is_an_error() {
        let src = "module m (a, y); input a; output y; dff g (y, a); endmodule";
        let e = parse_verilog(src).unwrap_err();
        assert!(e.message.contains("unsupported"));
    }

    #[test]
    fn undeclared_output_is_an_error() {
        let src = "module m (a); input a; output y; endmodule";
        assert!(parse_verilog(src).is_err());
    }

    #[test]
    fn missing_endmodule_is_an_error() {
        let src = "module m (a); input a;";
        assert!(parse_verilog(src).is_err());
    }

    #[test]
    fn constants_create_single_driver() {
        let src = "module m (y, z); output y, z; buf g1 (y, 1'b0); buf g2 (z, 1'b0); endmodule";
        let parsed = parse_verilog(src).expect("parse");
        let consts = parsed
            .netlist
            .gates()
            .iter()
            .filter(|g| g.kind == GateKind::Const0)
            .count();
        assert_eq!(consts, 1, "constant net must be driven once");
        let conv = parsed.netlist.to_aig().expect("valid");
        assert_eq!(conv.aig.eval(&[]), vec![false, false]);
    }
}
