//! End-to-end tests of the `eco_patch` command-line binary.

use std::io::Write;
use std::process::Command;

const IMPLEMENTATION: &str = "
module adder (a, b, cin, sum, cout);
  input a, b, cin;
  output sum, cout;
  wire s1, c1, c2;
  // eco_target c1
  xor g1 (s1, a, b);
  xor g2 (sum, s1, cin);
  or  g3 (c1, a, b);
  and g4 (c2, s1, cin);
  or  g5 (cout, c1, c2);
endmodule
";

const SPECIFICATION: &str = "
module adder (a, b, cin, sum, cout);
  input a, b, cin;
  output sum, cout;
  wire s1, c1, c2;
  xor g1 (s1, a, b);
  xor g2 (sum, s1, cin);
  and g3 (c1, a, b);
  and g4 (c2, s1, cin);
  or  g5 (cout, c1, c2);
endmodule
";

struct TempFiles {
    dir: std::path::PathBuf,
}

impl TempFiles {
    fn new(tag: &str) -> TempFiles {
        let dir = std::env::temp_dir().join(format!("eco_cli_test_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        TempFiles { dir }
    }

    fn write(&self, name: &str, content: &str) -> String {
        let path = self.dir.join(name);
        let mut f = std::fs::File::create(&path).expect("create");
        f.write_all(content.as_bytes()).expect("write");
        path.to_string_lossy().into_owned()
    }

    fn path(&self, name: &str) -> String {
        self.dir.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for TempFiles {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_eco_patch"))
}

#[test]
fn patches_with_directive_targets() {
    let tmp = TempFiles::new("directives");
    let f = tmp.write("F.v", IMPLEMENTATION);
    let g = tmp.write("G.v", SPECIFICATION);
    let w = tmp.write("W.txt", "a 10\nb 10\ns1 1\ncin 3\n");
    let out = tmp.path("patched.v");
    let status = bin()
        .args([
            "--impl",
            &f,
            "--spec",
            &g,
            "--weights",
            &w,
            "--method",
            "prune",
            "--out",
            &out,
        ])
        .output()
        .expect("run");
    assert!(
        status.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&status.stderr)
    );
    let stderr = String::from_utf8_lossy(&status.stderr);
    assert!(stderr.contains("verified=true"), "{stderr}");
    // The emitted netlist must parse and be equivalent to the spec.
    let text = std::fs::read_to_string(&out).expect("read output");
    let patched = eco_patch::netlist::parse_verilog(&text)
        .expect("parse")
        .netlist;
    let spec = eco_patch::netlist::parse_verilog(SPECIFICATION)
        .expect("parse")
        .netlist;
    let a = patched.to_aig().expect("valid").aig;
    let b = spec.to_aig().expect("valid").aig;
    assert_eq!(
        eco_patch::core::check_equivalence(&a, &b, None),
        eco_patch::core::CecResult::Equivalent
    );
}

#[test]
fn detects_targets_without_directives() {
    let tmp = TempFiles::new("detect");
    let f = tmp.write("F.v", &IMPLEMENTATION.replace("// eco_target c1\n", ""));
    let g = tmp.write("G.v", SPECIFICATION);
    let output = bin()
        .args(["--impl", &f, "--spec", &g, "--detect"])
        .output()
        .expect("run");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("detected targets"), "{stderr}");
}

#[test]
fn missing_targets_is_a_clear_error() {
    let tmp = TempFiles::new("notargets");
    let f = tmp.write("F.v", &IMPLEMENTATION.replace("// eco_target c1\n", ""));
    let g = tmp.write("G.v", SPECIFICATION);
    let output = bin()
        .args(["--impl", &f, "--spec", &g])
        .output()
        .expect("run");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("no targets"), "{stderr}");
}

#[test]
fn bad_flags_print_usage() {
    let output = bin().args(["--nope"]).output().expect("run");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn stats_json_has_the_documented_schema() {
    let tmp = TempFiles::new("statsjson");
    let f = tmp.write("F.v", IMPLEMENTATION);
    let g = tmp.write("G.v", SPECIFICATION);
    let stats = tmp.path("stats.json");
    let out = tmp.path("patched.v");
    let output = bin()
        .args([
            "--impl",
            &f,
            "--spec",
            &g,
            "--stats-json",
            &stats,
            "--out",
            &out,
        ])
        .output()
        .expect("run");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let json = std::fs::read_to_string(&stats).expect("stats file written");
    for key in [
        "\"schema_version\":12",
        "\"num_targets\":1",
        "\"phases\":[",
        "\"targets\":[",
        "\"sat_calls\":{",
        "\"by_kind\":{",
        "\"latency_histogram\":[",
        "\"counters\":{",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
    for gone in ["\"jobs\"", "\"workers\""] {
        assert!(!json.contains(gone), "schema 12 has no {gone}: {json}");
    }
}

#[test]
fn stdout_is_pure_json_with_stats_dash() {
    let tmp = TempFiles::new("statsdash");
    let f = tmp.write("F.v", IMPLEMENTATION);
    let g = tmp.write("G.v", SPECIFICATION);
    let out = tmp.path("patched.v");
    let output = bin()
        .args([
            "--impl",
            &f,
            "--spec",
            &g,
            "--stats-json",
            "-",
            "--out",
            &out,
            "--progress",
        ])
        .output()
        .expect("run");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    // Stream discipline: with --out and --stats-json -, stdout must be
    // exactly one parseable JSON document, nothing else.
    let stdout = String::from_utf8(output.stdout).expect("utf8 stdout");
    let value = eco_patch::core::json::parse_json(&stdout).expect("stdout parses as JSON");
    assert_eq!(
        value.get("schema_version").and_then(|v| v.as_u64()),
        Some(12),
        "stdout: {stdout}"
    );
}

#[test]
fn stats_dash_without_out_is_a_usage_error() {
    let tmp = TempFiles::new("statsdashnoout");
    let f = tmp.write("F.v", IMPLEMENTATION);
    let g = tmp.write("G.v", SPECIFICATION);
    let output = bin()
        .args(["--impl", &f, "--spec", &g, "--stats-json", "-"])
        .output()
        .expect("run");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("requires --out"), "{stderr}");
}

#[test]
fn trace_out_writes_chrome_and_report_reads_it() {
    let tmp = TempFiles::new("tracereport");
    let f = tmp.write("F.v", IMPLEMENTATION);
    let g = tmp.write("G.v", SPECIFICATION);
    let out = tmp.path("patched.v");
    let trace = tmp.path("trace.json");
    let output = bin()
        .args([
            "--impl",
            &f,
            "--spec",
            &g,
            "--out",
            &out,
            "--trace-out",
            &trace,
        ])
        .output()
        .expect("run");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(&trace).expect("trace written");
    eco_patch::core::json::parse_json(&text).expect("the trace parses as one JSON document");
    assert!(text.contains("\"event\":\"run_started\""), "{text}");
    assert!(text.contains("\"event\":\"run_finished\""), "{text}");

    let report = bin().args(["report", &trace]).output().expect("run report");
    assert!(
        report.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&report.stderr)
    );
    let stdout = String::from_utf8_lossy(&report.stdout);
    assert!(stdout.contains("phases:"), "{stdout}");
    assert!(stdout.contains("sat calls:"), "{stdout}");
    assert!(stdout.contains("most expensive calls"), "{stdout}");
}

#[test]
fn chrome_trace_is_valid_json() {
    let tmp = TempFiles::new("tracechrome");
    let f = tmp.write("F.v", IMPLEMENTATION);
    let g = tmp.write("G.v", SPECIFICATION);
    let out = tmp.path("patched.v");
    let trace = tmp.path("trace.json");
    let output = bin()
        .args([
            "--impl",
            &f,
            "--spec",
            &g,
            "--out",
            &out,
            "--trace-out",
            &trace,
        ])
        .output()
        .expect("run");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let value = eco_patch::core::json::parse_json(&text).expect("chrome trace parses as JSON");
    let events = value
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
}

#[test]
fn report_on_missing_file_errors_cleanly() {
    let output = bin()
        .args(["report", "/nonexistent/trace.json"])
        .output()
        .expect("run");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn progress_traces_phases_and_quiet_silences_reports() {
    let tmp = TempFiles::new("progress");
    let f = tmp.write("F.v", IMPLEMENTATION);
    let g = tmp.write("G.v", SPECIFICATION);
    let out = tmp.path("patched.v");
    let output = bin()
        .args([
            "--impl",
            &f,
            "--spec",
            &g,
            "--progress",
            "--quiet",
            "--out",
            &out,
        ])
        .output()
        .expect("run");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("[eco] sufficiency_check"), "{stderr}");
    assert!(stderr.contains("[eco] verification done"), "{stderr}");
    assert!(
        !stderr.contains("solved:"),
        "--quiet must drop the report: {stderr}"
    );
}

#[test]
fn unknown_method_is_a_usage_error() {
    let tmp = TempFiles::new("badmethod");
    let f = tmp.write("F.v", IMPLEMENTATION);
    let g = tmp.write("G.v", SPECIFICATION);
    let output = bin()
        .args(["--impl", &f, "--spec", &g, "--method", "magic"])
        .output()
        .expect("run");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown method"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn insufficient_targets_exit_code() {
    // y0 = t and y1 = !t cannot both become `a` with one patch on t.
    let implementation = "
module m (a, b, y0, y1);
  input a, b;
  output y0, y1;
  wire t;
  // eco_target t
  and g1 (t, a, b);
  buf g2 (y0, t);
  not g3 (y1, t);
endmodule
";
    let specification = "
module m (a, b, y0, y1);
  input a, b;
  output y0, y1;
  buf g1 (y0, a);
  buf g2 (y1, a);
endmodule
";
    let tmp = TempFiles::new("insufficient");
    let f = tmp.write("F.v", implementation);
    let g = tmp.write("G.v", specification);
    let output = bin()
        .args(["--impl", &f, "--spec", &g])
        .output()
        .expect("run");
    assert_eq!(
        output.status.code(),
        Some(3),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn budget_exhaustion_exit_code_without_fallback() {
    let tmp = TempFiles::new("budget");
    let f = tmp.write("F.v", IMPLEMENTATION);
    let g = tmp.write("G.v", SPECIFICATION);
    let output = bin()
        .args(["--impl", &f, "--spec", &g, "--budget", "0", "--no-fallback"])
        .output()
        .expect("run");
    assert_eq!(
        output.status.code(),
        Some(4),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("budget"), "{stderr}");
}

#[test]
fn expired_deadline_exit_code_with_anytime_output() {
    let tmp = TempFiles::new("deadline");
    let f = tmp.write("F.v", IMPLEMENTATION);
    let g = tmp.write("G.v", SPECIFICATION);
    let out = tmp.path("patched.v");
    let output = bin()
        .args([
            "--impl",
            &f,
            "--spec",
            &g,
            "--timeout-ms",
            "0",
            "--out",
            &out,
        ])
        .output()
        .expect("run");
    assert_eq!(
        output.status.code(),
        Some(5),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("governor tripped (deadline"), "{stderr}");
    assert!(stderr.contains("skipped: deadline"), "{stderr}");
    // The anytime netlist is still written before exiting.
    assert!(
        std::path::Path::new(&out).exists(),
        "output must be written even on deadline"
    );
}

#[test]
fn deadline_error_exit_code_without_fallback() {
    let tmp = TempFiles::new("deadline_nofb");
    let f = tmp.write("F.v", IMPLEMENTATION);
    let g = tmp.write("G.v", SPECIFICATION);
    let output = bin()
        .args([
            "--impl",
            &f,
            "--spec",
            &g,
            "--timeout-ms",
            "0",
            "--no-fallback",
        ])
        .output()
        .expect("run");
    assert_eq!(
        output.status.code(),
        Some(5),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("deadline"), "{stderr}");
}

#[test]
fn missing_files_error_cleanly() {
    let output = bin()
        .args(["--impl", "/nonexistent/F.v", "--spec", "/nonexistent/G.v"])
        .output()
        .expect("run");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("cannot read"), "{stderr}");
}
