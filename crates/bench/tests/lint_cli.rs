//! End-to-end tests for the `elp2im-lint` binary: exit codes, exact
//! diagnostic text per violation class, and the `--json` document.

use elp2im_dram::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_elp2im-lint")).args(args).output().expect("elp2im-lint runs")
}

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/lint_fixtures").join(name);
    assert!(path.exists(), "missing fixture {}", path.display());
    path.to_string_lossy().into_owned()
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn each_invalid_fixture_fails_with_its_exact_diagnostic() {
    let cases = [
        ("invalid_out_of_range.prmt", "primitive #0: row r9 out of range"),
        (
            "invalid_same_decoder.prmt",
            "primitive #0: overlapped activation of r0 and r1 in one decoder domain",
        ),
        (
            "invalid_destroyed_read.prmt",
            "primitive #2: reads r0, destroyed by the trimmed restore at #0",
        ),
        (
            "invalid_undefined_read.prmt",
            "primitive #0: reads r7, which is neither live-in nor written",
        ),
        (
            "invalid_dangling_regulation.prmt",
            "program ends with the regulation from primitive #0 still pending",
        ),
    ];
    for (file, expected) in cases {
        let out = lint(&[&fixture(file)]);
        assert_eq!(out.status.code(), Some(2), "{file} should exit 2");
        let text = stdout_of(&out);
        assert!(text.contains("FAIL"), "{file}: {text}");
        assert!(text.contains(expected), "{file} missing {expected:?} in:\n{text}");
    }
}

#[test]
fn warning_fixtures_pass_unless_denied() {
    let cases = [
        (
            "warn_dead_store.prmt",
            "primitive #0: stores r2, overwritten at #1 without an intervening read (dead store)",
        ),
        (
            "warn_live_in_destroyed.prmt",
            "live-in row r0 is destroyed at #0 and never rewritten (clobbered operand)",
        ),
    ];
    for (file, expected) in cases {
        let out = lint(&[&fixture(file)]);
        assert_eq!(out.status.code(), Some(0), "{file} is legal, exit 0");
        assert!(stdout_of(&out).contains(expected), "{file} missing {expected:?}");
        let denied = lint(&["--deny-warnings", &fixture(file)]);
        assert_eq!(denied.status.code(), Some(1), "{file} under --deny-warnings");
    }
}

#[test]
fn clean_fixture_and_corpus_lint_clean() {
    let out = lint(&[&fixture("clean.prmt")]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout_of(&out).contains("clean: ok"));

    // The golden corpus produces no warnings; the Fig. 8 trimmable-restore
    // notes are expected and not denied here.
    let out = lint(&["--corpus", "--deny-warnings"]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout_of(&out));
    let text = stdout_of(&out);
    assert!(text.contains("0 errors, 0 warnings"), "{text}");
    assert!(text.contains("restore of !R0 is dead"), "seq2's Fig. 8 trim note: {text}");
}

#[test]
fn json_output_is_machine_readable() {
    let out = lint(&["--corpus", "--json", &fixture("invalid_out_of_range.prmt")]);
    assert_eq!(out.status.code(), Some(2));
    let doc = Json::parse(&stdout_of(&out)).expect("stdout is valid JSON");
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("elp2im-lint-v1"));
    let programs = doc.get("programs").and_then(Json::as_array).expect("programs array");
    let bad = programs
        .iter()
        .find(|p| p.get("name").and_then(Json::as_str) == Some("out-of-range"))
        .expect("fixture program present");
    assert_eq!(bad.get("accepted"), Some(&Json::Bool(false)));
    let diags = bad.get("diagnostics").and_then(Json::as_array).unwrap();
    assert_eq!(diags[0].get("kind").and_then(Json::as_str), Some("row-out-of-range"));
    assert_eq!(diags[0].get("severity").and_then(Json::as_str), Some("error"));
    let summary = doc.get("summary").expect("summary");
    assert_eq!(summary.get("errors").and_then(Json::as_f64), Some(1.0));
}

#[test]
fn self_test_discharges_all_obligations() {
    let out = lint(&["--self-test"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("translation-validation obligations discharged"), "{err}");
    assert!(err.contains("3 seeded mutations rejected"), "{err}");
}

#[test]
fn usage_errors_exit_3() {
    let out = lint(&[]);
    assert_eq!(out.status.code(), Some(3));
    let out = lint(&["--bogus-flag"]);
    assert_eq!(out.status.code(), Some(3));
    let out = lint(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout_of(&out).contains("usage"));
}

#[test]
fn degenerate_plan_refresh_is_a_usage_error() {
    let dir = std::env::temp_dir().join("elp2im-lint-test");
    std::fs::create_dir_all(&dir).unwrap();
    for (name, window) in [("zero-interval", "0x350"), ("all-blackout", "350x350")] {
        let plan = dir.join(format!("refresh-{name}.prmt"));
        std::fs::write(
            &plan,
            format!("# plan-refresh: {window}\n# plan-live: b0.s0: r0\nstep b0.s0: AP(r0)\n"),
        )
        .unwrap();
        let out = lint(&["--plan", plan.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(3), "{window}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("plan-refresh"), "{window}");
        let _ = std::fs::remove_file(&plan);
    }
}

#[test]
fn missing_and_malformed_files_exit_2() {
    let out = lint(&["/nonexistent/no-such-file.prmt"]);
    assert_eq!(out.status.code(), Some(2));

    let dir = std::env::temp_dir().join("elp2im-lint-test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("malformed.prmt");
    std::fs::write(&bad, "ZAP(r0)\n").unwrap();
    let out = lint(&[bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown primitive mnemonic"));
    let _ = std::fs::remove_file(Path::new(&bad));
}

#[test]
fn each_invalid_plan_fixture_fails_with_its_exact_diagnostic() {
    let cases = [
        (
            "plan_invalid_row_clobber.prmt",
            "step #0 (b0.s0): destroys live row r0 (cross-program operand clobber)",
        ),
        (
            "plan_invalid_temp_reuse.prmt",
            "step #1 (b0.s0): reads R0, destroyed by step #0 and never redefined (recycled temp)",
        ),
        (
            "plan_invalid_cross_stream_raw.prmt",
            "step #1: RAW hazard on r1 (b0.s0): step #0 writes it on stream c0.r0.b0, \
             step #1 reads it on stream c0.r0.b1 (bank isolation violated)",
        ),
        (
            "plan_invalid_bus_order.prmt",
            "timing: channel 0: claim #1 (c0.r0.b1 command #0) starts at 0 ps, \
             before claim #0 at 100000 ps (in-order bus issue violated)",
        ),
        (
            "plan_invalid_tfaw.prmt",
            "timing: rank c0.r0: claim #4 (c0.r0.b4 command #0) at 4000 ps overdraws \
             the charge-pump window (earliest legal start 40000 ps)",
        ),
        (
            "plan_invalid_refresh.prmt",
            "timing: claim #0 (c0.r0.b0 command #0) at 0 ps lands in a refresh \
             blackout until 350000 ps",
        ),
    ];
    for (file, expected) in cases {
        let out = lint(&["--plan", &fixture(file)]);
        assert_eq!(out.status.code(), Some(2), "{file} should exit 2");
        let text = stdout_of(&out);
        assert!(text.contains("FAIL"), "{file}: {text}");
        assert!(text.contains(expected), "{file} missing {expected:?} in:\n{text}");
    }
}

#[test]
fn clean_plan_fixture_and_plan_corpus_certify_clean() {
    let out = lint(&["--plan", &fixture("plan_clean.prmt")]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout_of(&out));
    let text = stdout_of(&out);
    assert!(text.contains("ok, proven makespan"), "{text}");

    // The plan corpus (every compiled program as a one-step plan plus the
    // batch plans DeviceArray prepares) has no errors or warnings; the
    // Fig. 8 trimmable-restore notes pass through and are allowed.
    let out = lint(&["--plan", "--corpus", "--deny-warnings"]);
    assert_eq!(out.status.code(), Some(0), "{}", stdout_of(&out));
    let text = stdout_of(&out);
    assert!(text.contains("0 errors, 0 warnings"), "{text}");
    assert!(text.contains("batch:module:LowLatency:and"), "{text}");
    assert!(text.contains("batch:2x2:HighThroughput:xor"), "{text}");
}

#[test]
fn plan_json_output_is_machine_readable() {
    let out = lint(&["--plan", "--json", &fixture("plan_invalid_tfaw.prmt")]);
    assert_eq!(out.status.code(), Some(2));
    let doc = Json::parse(&stdout_of(&out)).expect("stdout is valid JSON");
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("elp2im-lint-v1"));
    let plans = doc.get("plans").and_then(Json::as_array).expect("plans array");
    assert_eq!(plans.len(), 1);
    assert_eq!(plans[0].get("accepted"), Some(&Json::Bool(false)));
    assert_eq!(plans[0].get("makespan_ns"), Some(&Json::Null));
    let diags = plans[0].get("diagnostics").and_then(Json::as_array).unwrap();
    assert_eq!(diags[0].get("kind").and_then(Json::as_str), Some("plan-pump-overrun"));
    assert_eq!(diags[0].get("severity").and_then(Json::as_str), Some("error"));
    let summary = doc.get("summary").expect("summary");
    assert_eq!(summary.get("errors").and_then(Json::as_f64), Some(1.0));

    // An accepted plan carries its proven makespan.
    let out = lint(&["--plan", "--json", &fixture("plan_clean.prmt")]);
    assert_eq!(out.status.code(), Some(0));
    let doc = Json::parse(&stdout_of(&out)).expect("stdout is valid JSON");
    let plans = doc.get("plans").and_then(Json::as_array).expect("plans array");
    assert!(plans[0].get("makespan_ns").and_then(Json::as_f64).unwrap() > 0.0);
}
