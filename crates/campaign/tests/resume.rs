//! Checkpoint/resume contract: an interrupted-then-resumed campaign must
//! produce a byte-identical artifact to an uninterrupted run, and must
//! report the resumed points as skipped.

use mmhew_campaign::{
    manifest_header, run_campaign, CampaignError, CampaignOptions, SweepSpec,
    MANIFEST_SCHEMA_VERSION,
};
use std::path::PathBuf;

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mmhew-campaign-{name}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn interrupted_then_resumed_artifact_is_byte_identical() {
    let spec = SweepSpec::smoke();

    // Reference: one uninterrupted run.
    let straight = fresh_dir("straight");
    let outcome = run_campaign(&spec, &CampaignOptions::new(&straight)).expect("runs");
    assert_eq!(outcome.completed, 4);
    assert_eq!(outcome.skipped, 0);
    let reference = std::fs::read(outcome.artifact.expect("artifact written")).expect("read");

    // Interrupted: stop after 2 points — simulates a kill between chunks.
    let resumed = fresh_dir("resumed");
    let mut opts = CampaignOptions::new(&resumed);
    opts.max_points = Some(2);
    let partial = run_campaign(&spec, &opts).expect("partial run");
    assert_eq!(partial.completed, 2);
    assert!(partial.artifact.is_none(), "no artifact while incomplete");
    let manifest = resumed.join("smoke.manifest.jsonl");
    let checkpoint = std::fs::read_to_string(&manifest).expect("manifest");
    assert_eq!(
        checkpoint.lines().count(),
        3,
        "checkpoint holds the spec-echo header plus exactly the finished points"
    );
    assert_eq!(
        checkpoint.lines().next().expect("header"),
        manifest_header(&spec),
        "manifest opens with the spec-echo header"
    );

    // Resume: the finished points are skipped, not re-run.
    let mut opts = CampaignOptions::new(&resumed);
    opts.resume = true;
    let finished = run_campaign(&spec, &opts).expect("resume");
    assert_eq!(finished.skipped, 2, "resume reports the skipped points");
    assert_eq!(finished.completed, 2);
    let bytes = std::fs::read(finished.artifact.expect("artifact written")).expect("read");
    assert_eq!(bytes, reference, "resumed artifact is byte-identical");

    std::fs::remove_dir_all(&straight).ok();
    std::fs::remove_dir_all(&resumed).ok();
}

#[test]
fn rerun_without_resume_starts_over_but_matches() {
    // Not resuming discards the manifest; determinism still makes the
    // fresh artifact byte-identical.
    let spec = SweepSpec::smoke();
    let dir = fresh_dir("restart");
    let first = run_campaign(&spec, &CampaignOptions::new(&dir)).expect("first");
    let a = std::fs::read(first.artifact.expect("artifact")).expect("read");
    let second = run_campaign(&spec, &CampaignOptions::new(&dir)).expect("second");
    assert_eq!(second.skipped, 0, "non-resume runs everything again");
    let b = std::fs::read(second.artifact.expect("artifact")).expect("read");
    assert_eq!(a, b);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_tolerates_a_torn_spec_echo_header() {
    // A crash during the very first manifest write can tear the header
    // line itself. Resume must rewrite it and carry on — and because no
    // data line survived, the repaired run is byte-identical to an
    // uninterrupted one.
    let spec = SweepSpec::smoke();

    let straight = fresh_dir("header-straight");
    let outcome = run_campaign(&spec, &CampaignOptions::new(&straight)).expect("runs");
    let reference_manifest =
        std::fs::read(straight.join("smoke.manifest.jsonl")).expect("manifest");
    let reference_artifact =
        std::fs::read(outcome.artifact.expect("artifact written")).expect("read");

    let repaired = fresh_dir("header-torn");
    let manifest = repaired.join("smoke.manifest.jsonl");
    let header = manifest_header(&spec);
    std::fs::write(&manifest, &header.as_bytes()[..header.len() / 2]).expect("write torn header");

    let mut opts = CampaignOptions::new(&repaired);
    opts.resume = true;
    let finished = run_campaign(&spec, &opts).expect("resume over torn header");
    assert_eq!(finished.skipped, 0, "no data line survived the tear");
    assert_eq!(finished.completed, 4);
    assert_eq!(
        std::fs::read(&manifest).expect("manifest"),
        reference_manifest,
        "repaired manifest is byte-identical"
    );
    assert_eq!(
        std::fs::read(finished.artifact.expect("artifact written")).expect("read"),
        reference_artifact,
        "repaired artifact is byte-identical"
    );

    // A torn final *data* line on top of an intact header: the header is
    // kept, the torn line dropped, and the campaign resumes cleanly.
    let torn_data = fresh_dir("data-torn");
    let manifest = torn_data.join("smoke.manifest.jsonl");
    let mut opts = CampaignOptions::new(&torn_data);
    opts.max_points = Some(2);
    run_campaign(&spec, &opts).expect("partial run");
    let mut bytes = std::fs::read(&manifest).expect("manifest");
    bytes.extend_from_slice(
        format!("{{\"schema_version\":{MANIFEST_SCHEMA_VERSION},\"point\":2,\"par").as_bytes(),
    );
    std::fs::write(&manifest, bytes).expect("tear");
    let mut opts = CampaignOptions::new(&torn_data);
    opts.resume = true;
    let finished = run_campaign(&spec, &opts).expect("resume over torn data line");
    assert_eq!(finished.skipped, 2);
    assert_eq!(finished.completed, 2);
    assert_eq!(
        std::fs::read(&manifest).expect("manifest"),
        reference_manifest
    );

    std::fs::remove_dir_all(&straight).ok();
    std::fs::remove_dir_all(&repaired).ok();
    std::fs::remove_dir_all(&torn_data).ok();
}

#[test]
fn protocol_axis_resume_is_byte_identical() {
    // The categorical `protocol` axis goes through the same
    // checkpoint/resume machinery as numeric axes: interrupting between
    // protocols and resuming reproduces the uninterrupted bytes.
    let spec = SweepSpec::from_json(
        r#"{
            "name": "rivals-resume",
            "engine": "sync",
            "topology": "complete",
            "reps": 2,
            "seed": 13,
            "budget": 200000,
            "axes": {"protocol": ["staged", "mc-dis", "s-nihao"], "nodes": [4], "universe": [5]}
        }"#,
    )
    .expect("valid spec");

    let straight = fresh_dir("rivals-straight");
    let outcome = run_campaign(&spec, &CampaignOptions::new(&straight)).expect("runs");
    assert_eq!(outcome.completed, 3, "one point per protocol");
    let reference = std::fs::read(outcome.artifact.expect("artifact written")).expect("read");

    let resumed = fresh_dir("rivals-resumed");
    let mut opts = CampaignOptions::new(&resumed);
    opts.max_points = Some(1);
    let partial = run_campaign(&spec, &opts).expect("partial run");
    assert_eq!(partial.completed, 1);
    let mut opts = CampaignOptions::new(&resumed);
    opts.resume = true;
    let finished = run_campaign(&spec, &opts).expect("resume");
    assert_eq!(finished.skipped, 1);
    assert_eq!(finished.completed, 2);
    let bytes = std::fs::read(finished.artifact.expect("artifact written")).expect("read");
    assert_eq!(bytes, reference, "resumed protocol-axis artifact matches");

    std::fs::remove_dir_all(&straight).ok();
    std::fs::remove_dir_all(&resumed).ok();
}

#[test]
fn artifact_echoes_the_spec_in_the_form_specs_are_read() {
    let spec = SweepSpec::smoke();
    let dir = fresh_dir("echo");
    let outcome = run_campaign(&spec, &CampaignOptions::new(&dir)).expect("runs");
    let text = std::fs::read_to_string(outcome.artifact.expect("artifact")).expect("read");
    let (echoed, _) = text
        .strip_prefix("{\"spec\":")
        .and_then(|rest| rest.split_once(",\"points\":"))
        .expect("the spec leads the artifact");
    assert_eq!(echoed, spec.to_json());
    assert_eq!(SweepSpec::from_json(echoed).expect("readable"), spec);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_on_finished_campaign_skips_everything() {
    let spec = SweepSpec::smoke();
    let dir = fresh_dir("noop");
    run_campaign(&spec, &CampaignOptions::new(&dir)).expect("first");
    let mut opts = CampaignOptions::new(&dir);
    opts.resume = true;
    let again = run_campaign(&spec, &opts).expect("noop resume");
    assert_eq!(again.completed, 0);
    assert_eq!(again.skipped, 4);
    assert!(again.artifact.is_some(), "artifact still (re)rendered");
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs the smoke campaign for its first `points` points, then appends
/// point 0's line renumbered to 999, an id outside the 4-point grid.
fn manifest_with_point_999(name: &str, points: usize) -> (PathBuf, PathBuf) {
    let dir = fresh_dir(name);
    let mut opts = CampaignOptions::new(&dir);
    opts.max_points = Some(points);
    run_campaign(&SweepSpec::smoke(), &opts).expect("partial run");
    let manifest = dir.join("smoke.manifest.jsonl");
    let text = std::fs::read_to_string(&manifest).expect("manifest");
    let first = text.lines().nth(1).expect("point 0");
    let stray = first.replacen("\"point\":0", "\"point\":999", 1);
    std::fs::write(&manifest, format!("{text}{stray}\n")).expect("append");
    (dir, manifest)
}

#[test]
fn out_of_grid_point_ids_are_refused_by_name() {
    let spec = SweepSpec::smoke();
    for (points, max_points) in [(2, None), (1, Some(2))] {
        let (dir, manifest) = manifest_with_point_999(&format!("stray-{points}"), points);
        let mut opts = CampaignOptions::new(&dir);
        opts.resume = true;
        opts.max_points = max_points;
        let err = run_campaign(&spec, &opts).expect_err("a stray id must not count");
        let msg = err.to_string();
        assert!(
            matches!(err, CampaignError::Manifest { line, .. } if line == points + 2),
            "{msg}"
        );
        assert!(
            msg.contains("point 999 is outside the grid of 4 points"),
            "{msg}"
        );
        assert!(msg.contains(&manifest.display().to_string()), "{msg}");
        assert!(!dir.join("smoke.campaign.json").exists(), "no artifact");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn older_schema_manifest_is_refused_by_its_version() {
    // A manifest as the previous schema wrote it: version 1 on every line
    // and a `hist-bins` key in the spec echo.
    let spec = SweepSpec::smoke();
    let dir = fresh_dir("schema-v1");
    let mut opts = CampaignOptions::new(&dir);
    opts.max_points = Some(2);
    run_campaign(&spec, &opts).expect("partial run");
    let manifest = dir.join("smoke.manifest.jsonl");
    let text = std::fs::read_to_string(&manifest).expect("manifest");
    let current = format!("\"schema_version\":{MANIFEST_SCHEMA_VERSION}");
    let v1 = text.replace(&current, "\"schema_version\":1").replacen(
        "\"budget\"",
        "\"hist-bins\":20,\"budget\"",
        1,
    );
    std::fs::write(&manifest, &v1).expect("write");
    let mut opts = CampaignOptions::new(&dir);
    opts.resume = true;
    let msg = run_campaign(&spec, &opts)
        .expect_err("v1 refused")
        .to_string();
    assert!(msg.contains("line 1: schema_version 1"), "{msg}");
    assert!(!msg.contains("different spec"), "{msg}");
    assert_eq!(
        std::fs::read_to_string(&manifest).expect("read"),
        v1,
        "left as it was"
    );
    std::fs::remove_dir_all(&dir).ok();
}
