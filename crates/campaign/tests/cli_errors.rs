//! Negative-path coverage of the `campaign` CLI: a rejected spec must
//! name the offending axis or key and list the accepted values, so a typo
//! in a 40-line sweep file is a ten-second fix rather than an archaeology
//! dig, a failed file operation must name its path, and a flag the binary
//! does not read, or a value it cannot take, exits 2 naming the flag.

use std::path::PathBuf;
use std::process::Command;

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmhew-cli-errors-{name}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Writes `spec` to a temp file and runs `campaign --spec` on it,
/// returning (stderr, success).
fn run_spec(name: &str, spec: &str) -> (String, bool) {
    let dir = fresh_dir(name);
    let path = dir.join("spec.json");
    std::fs::write(&path, spec).expect("write spec");
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args([
            "--spec",
            path.to_str().expect("utf8 path"),
            "--out",
            dir.join("out").to_str().expect("utf8 path"),
        ])
        .output()
        .expect("spawn campaign");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    std::fs::remove_dir_all(&dir).ok();
    (stderr, out.status.success())
}

#[test]
fn unknown_protocol_name_is_rejected_with_the_accepted_list() {
    let (stderr, ok) = run_spec(
        "unknown-protocol",
        r#"{
            "name": "t",
            "engine": "sync",
            "axes": {"protocol": ["mc-dsi"], "nodes": [4]}
        }"#,
    );
    assert!(!ok, "misspelled protocol must fail");
    assert!(stderr.contains("invalid spec"), "{stderr}");
    assert!(stderr.contains("axis \"protocol\""), "{stderr}");
    assert!(
        stderr.contains("\"mc-dsi\""),
        "names the offender: {stderr}"
    );
    assert!(
        stderr.contains("mc-dis") && stderr.contains("s-nihao"),
        "lists the accepted values: {stderr}"
    );
}

#[test]
fn sync_protocol_on_the_async_engine_is_rejected() {
    let (stderr, ok) = run_spec(
        "sync-on-async",
        r#"{
            "name": "t",
            "engine": "async",
            "algorithm": "frame-based",
            "axes": {"protocol": ["mc-dis"], "nodes": [4]}
        }"#,
    );
    assert!(!ok, "sync-only protocol on async must fail");
    assert!(stderr.contains("axis \"protocol\""), "{stderr}");
    assert!(
        stderr.contains("runs on the sync engine only"),
        "says which engine the entry needs: {stderr}"
    );
    assert!(
        stderr.contains("frame-based"),
        "lists what this engine accepts: {stderr}"
    );
}

#[test]
fn sync_only_axis_on_the_async_engine_is_rejected() {
    let (stderr, ok) = run_spec(
        "jam-on-async",
        r#"{
            "name": "t",
            "engine": "async",
            "algorithm": "frame-based",
            "axes": {"jam": [1], "nodes": [4]}
        }"#,
    );
    assert!(!ok, "sync-only axis on async must fail");
    assert!(stderr.contains("axis \"jam\""), "{stderr}");
    assert!(stderr.contains("slot-synchronous only"), "{stderr}");
}

#[test]
fn valid_protocol_axis_spec_runs_end_to_end() {
    // The mirror-image positive path: a protocol axis through the real
    // CLI produces one manifest line per (protocol, point).
    let dir = fresh_dir("protocol-ok");
    let path = dir.join("spec.json");
    std::fs::write(
        &path,
        r#"{
            "name": "cli-protocol",
            "engine": "sync",
            "topology": "complete",
            "reps": 2,
            "seed": 9,
            "budget": 200000,
            "axes": {"protocol": ["staged", "mc-dis"], "nodes": [4], "universe": [5]}
        }"#,
    )
    .expect("write spec");
    let out_dir = dir.join("out");
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args([
            "--spec",
            path.to_str().expect("utf8 path"),
            "--out",
            out_dir.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("spawn campaign");
    assert!(
        out.status.success(),
        "campaign failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let manifest = std::fs::read_to_string(out_dir.join("cli-protocol.manifest.jsonl"))
        .expect("manifest written");
    let lines: Vec<&str> = manifest.lines().collect();
    assert_eq!(lines.len(), 3, "header + one line per (protocol, point)");
    assert!(lines[1].contains("\"protocol\":\"staged\""), "{}", lines[1]);
    assert!(lines[2].contains("\"protocol\":\"mc-dis\""), "{}", lines[2]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn out_dir_that_is_a_file_is_named_in_the_error() {
    let file = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(["--smoke", "--out", file])
        .output()
        .expect("spawn campaign");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a file is no output directory");
    assert!(stderr.contains(file), "error names the path: {stderr}");
    assert!(
        !stderr.contains("panicked"),
        "named error, no panic: {stderr}"
    );
}

#[test]
fn unknown_spec_key_is_rejected_with_the_accepted_keys() {
    let (stderr, ok) = run_spec(
        "unknown-key",
        r#"{"name": "typo", "budjet": 5, "axes": {"nodes": [4]}}"#,
    );
    assert!(!ok, "a misspelled key must not run with the default budget");
    assert!(stderr.contains("unknown spec key \"budjet\""), "{stderr}");
    assert!(
        stderr.contains("budget") && stderr.contains("axes"),
        "lists the accepted keys: {stderr}"
    );
}

/// Runs the campaign binary, returning (stdout, stderr, exit code).
fn campaign(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(args)
        .output()
        .expect("spawn campaign");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn unread_flags_and_bad_flag_values_exit_2_naming_the_flag() {
    for (args, named) in [
        (&["--smoke", "--full"][..], "--full: unknown flag"),
        (&["--smoke", "--quick"], "--quick: unknown flag"),
        (&["explore", "--manifest", "x", "--smoke"], "\"explore\""),
        (&["--smoke", "--point", "999999"], "--point 999999"),
        (&["--smoke", "--point", "4"], "--point 4"),
        (&["--smoke", "--point", "x"], "--point x"),
        (&["--smoke", "--jobs", "0"], "--jobs: 0 is out of range"),
    ] {
        let (stdout, stderr, code) = campaign(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(named),
            "{args:?} must say {named:?}: {stderr}"
        );
        assert!(stdout.is_empty(), "{args:?}: nothing runs first: {stdout}");
    }
}

#[test]
fn point_replay_and_job_count_reproduce_the_campaign() {
    // `--point N` prints the line the manifest holds for N, and the
    // artifact does not depend on the worker count.
    let dir = fresh_dir("replay");
    let mut artifacts = Vec::new();
    for jobs in ["1", "2"] {
        let out_dir = dir.join(jobs);
        let (_, stderr, code) = campaign(&[
            "--smoke",
            "--jobs",
            jobs,
            "--out",
            out_dir.to_str().expect("utf8 path"),
        ]);
        assert_eq!(code, Some(0), "{stderr}");
        artifacts.push(std::fs::read(out_dir.join("smoke.campaign.json")).expect("artifact"));
    }
    assert_eq!(artifacts[0], artifacts[1], "--jobs 1 and --jobs 2 agree");
    let manifest =
        std::fs::read_to_string(dir.join("1").join("smoke.manifest.jsonl")).expect("manifest");
    for (id, line) in manifest.lines().skip(1).enumerate() {
        let (stdout, stderr, code) = campaign(&["--smoke", "--point", &id.to_string()]);
        assert_eq!(code, Some(0), "{stderr}");
        assert_eq!(stdout, format!("{line}\n"), "point {id}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
