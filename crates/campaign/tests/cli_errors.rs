//! Negative-path coverage of the `campaign` CLI: a rejected spec must
//! name the offending axis and list the accepted values, so a typo in a
//! 40-line sweep file is a ten-second fix rather than an archaeology dig,
//! and a failed file operation must name its path.

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
