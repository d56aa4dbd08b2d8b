//! End-to-end smoke tests of the harness binaries, driven through their
//! real command-line interfaces. Single experiments run through
//! `run_all --only <id>`.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (String, String, bool) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// Runs one experiment at seed 3 through `run_all --only`.
fn only(id: &str) -> (String, String, bool) {
    run(
        env!("CARGO_BIN_EXE_run_all"),
        &["--only", id, "--seed", "3"],
    )
}

#[test]
fn simulate_sync_happy_path() {
    let (stdout, stderr, ok) = run(
        env!("CARGO_BIN_EXE_simulate"),
        &[
            "--topology",
            "ring",
            "--nodes",
            "8",
            "--universe",
            "4",
            "--availability",
            "full",
            "--algorithm",
            "alg3",
            "--reps",
            "2",
            "--seed",
            "5",
        ],
    );
    assert!(ok, "simulate failed: {stderr}");
    assert!(stdout.contains("network: N=8"));
    assert!(stdout.contains("connected=yes"), "{stdout}");
    assert!(stdout.contains("completed in"));
    assert!(stdout.contains("all completed runs exact ✓"), "{stdout}");
}

/// The header line costs one graph traversal, so a 10 000-node network
/// reaches its first slot at once.
#[test]
fn simulate_reports_connectivity_of_a_large_grid() {
    let (stdout, stderr, ok) = run(
        env!("CARGO_BIN_EXE_simulate"),
        &[
            "--topology",
            "grid",
            "--width",
            "100",
            "--height",
            "100",
            "--reps",
            "1",
            "--budget",
            "1",
        ],
    );
    assert!(ok, "simulate failed: {stderr}");
    assert!(stdout.contains("network: N=10000"), "{stdout}");
    assert!(stdout.contains("connected=yes"), "{stdout}");
}

#[test]
fn simulate_async_happy_path() {
    let (stdout, _, ok) = run(
        env!("CARGO_BIN_EXE_simulate"),
        &[
            "--topology",
            "line",
            "--nodes",
            "4",
            "--universe",
            "2",
            "--availability",
            "full",
            "--algorithm",
            "alg4",
            "--drift-den",
            "7",
            "--reps",
            "1",
        ],
    );
    assert!(ok);
    assert!(stdout.contains("Algorithm 4 (async)"));
    assert!(stdout.contains("frames after T_s"));
}

#[test]
fn simulate_rejects_bad_flags() {
    let (_, stderr, ok) = run(env!("CARGO_BIN_EXE_simulate"), &["--algorithm", "bogus"]);
    assert!(!ok, "bogus algorithm must fail");
    assert!(stderr.contains("--algorithm"), "names the flag: {stderr}");
    assert!(stderr.contains("\"bogus\""), "names the value: {stderr}");
    assert!(
        stderr.contains("alg1") && stderr.contains("baseline"),
        "lists the allowed values: {stderr}"
    );
}

/// Every flag value a builder or engine would panic on, or that would
/// allocate past the storage cap, exits 2 with a message naming the flag,
/// before any network is built.
#[test]
fn bad_flag_values_fail_by_name() {
    let simulate = env!("CARGO_BIN_EXE_simulate");
    let run_all = env!("CARGO_BIN_EXE_run_all");
    let cases: &[(&str, &str, &[&str])] = &[
        (
            simulate,
            "--frame-len",
            &["--algorithm", "alg4", "--frame-len", "1000"],
        ),
        (
            simulate,
            "--frame-len",
            &["--algorithm", "alg4", "--frame-len", "0"],
        ),
        (
            simulate,
            "--frame-len",
            &["--algorithm", "alg4", "--frame-len", "3000000000000000000"],
        ),
        (
            simulate,
            "--drift-den",
            &["--algorithm", "alg4", "--drift-den", "1"],
        ),
        (simulate, "--width", &["--width", "0"]),
        (simulate, "--height", &["--height", "0"]),
        (simulate, "--nodes", &["--topology", "star", "--nodes", "1"]),
        (simulate, "--nodes", &["--topology", "ring", "--nodes", "2"]),
        (
            simulate,
            "--edge-prob",
            &["--topology", "er", "--edge-prob", "2"],
        ),
        (
            simulate,
            "--edge-prob",
            &["--topology", "er", "--edge-prob", "NaN"],
        ),
        (
            simulate,
            "--radius",
            &["--topology", "disk", "--radius", "-1"],
        ),
        (simulate, "--side", &["--topology", "disk", "--side", "0"]),
        (
            simulate,
            "--pu-radius",
            &["--availability", "spatial", "--pu-radius", "-1"],
        ),
        (
            simulate,
            "--pu-radius",
            &["--availability", "spatial", "--pu-radius", "NaN"],
        ),
        (simulate, "--epsilon", &["--epsilon", "0"]),
        (simulate, "--epsilon", &["--epsilon", "2"]),
        (
            simulate,
            "--width × --height",
            &["--width", "100000", "--height", "100000"],
        ),
        (
            simulate,
            "--primaries",
            &["--availability", "spatial", "--primaries", "4000000000"],
        ),
        (simulate, "--delta-est", &["--delta-est", "0"]),
        (simulate, "--universe", &["--universe", "0"]),
        (simulate, "--set-size", &["--set-size", "0"]),
        (simulate, "--set-size", &["--set-size", "9"]),
        (
            simulate,
            "--shared/--private",
            &["--availability", "overlap", "--shared", "65535"],
        ),
        (
            simulate,
            "--pu-channels",
            &["--availability", "spatial", "--pu-channels", "9"],
        ),
        (
            simulate,
            "--timeline-slots",
            &["--timeline", "--timeline-slots", "0"],
        ),
        (simulate, "--trace", &["--trace"]),
        (simulate, "--metrics", &["--metrics", "5"]),
        (run_all, "--only", &["--only"]),
        (run_all, "--full", &["--full", "3"]),
    ];
    for (bin, flag, args) in cases {
        let out = Command::new(bin)
            .args(*args)
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
        assert!(
            !stderr.contains("panicked") && !stderr.contains("memory allocation"),
            "{args:?}: {stderr}"
        );
        assert!(
            !stderr.contains("unknown flag"),
            "{args:?} is a known flag: {stderr}"
        );
    }
}

/// Each binary accepts only the flags it reads: `--quick` and `--full`
/// mean something to `run_all` alone. `--jobs` takes 1 to 256 worker
/// threads; only a value that starts no thread is launched here, and the
/// cap itself is tested on the parsed value in `cli.rs`.
#[test]
fn unread_flags_and_jobs_outside_the_cap_fail_by_name() {
    let simulate = env!("CARGO_BIN_EXE_simulate");
    let run_all = env!("CARGO_BIN_EXE_run_all");
    let cases: &[(&str, &[&str], &str)] = &[
        (simulate, &["--quick"], "--quick: unknown flag"),
        (simulate, &["--full"], "--full: unknown flag"),
        (simulate, &["--jobs", "0"], "--jobs: 0 is out of range"),
        (simulate, &["--engine", "event"], "--engine: unknown flag"),
        (simulate, &["--engine", "slotted"], "--engine: unknown flag"),
        (
            run_all,
            &["--only", "E7", "--jobs", "0"],
            "--jobs: 0 is out of range",
        ),
    ];
    for (bin, args, named) in cases {
        let out = Command::new(bin)
            .args(*args)
            .output()
            .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(named),
            "{args:?} must say {named:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: nothing runs first");
    }
}

#[test]
fn simulate_checks_output_paths_before_it_runs() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/x");
    for flag in ["--trace", "--perfetto"] {
        let (stdout, stderr, ok) = run(env!("CARGO_BIN_EXE_simulate"), &[flag, path]);
        assert!(!ok, "{flag} under a file must fail");
        assert!(
            stderr.contains(flag) && stderr.contains(path),
            "names the flag and the path: {stderr}"
        );
        assert!(!stderr.contains("Os {"), "no Debug dump: {stderr}");
        assert!(!stdout.contains("rep 0:"), "nothing runs first: {stdout}");
    }
}

#[test]
fn experiment_binary_writes_csv() {
    let dir = std::env::temp_dir().join("mmhew-bin-smoke");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let csv = dir.join("e1.csv");
    let (stdout, stderr, ok) = run(
        env!("CARGO_BIN_EXE_run_all"),
        &[
            "--only",
            "E1",
            "--seed",
            "7",
            "--csv-dir",
            dir.to_str().expect("utf8 path"),
        ],
    );
    assert!(ok, "e1 failed: {stderr}");
    assert!(stdout.contains("=== E1:"));
    let content = std::fs::read_to_string(&csv).expect("csv written");
    assert!(content.starts_with("N,"));
    assert!(content.lines().count() >= 5);
    std::fs::remove_file(&csv).ok();
}

#[test]
fn run_all_rejects_an_unknown_only_id() {
    let (stdout, stderr, ok) = run(env!("CARGO_BIN_EXE_run_all"), &["--only", "E7,E99"]);
    assert!(!ok, "unknown id must fail");
    assert!(stderr.contains("\"E99\""), "error names the id: {stderr}");
    assert!(stdout.is_empty(), "nothing runs before the error: {stdout}");
}

#[test]
fn run_all_rejects_a_csv_dir_that_is_a_file() {
    let file = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
    let (stdout, stderr, ok) = run(
        env!("CARGO_BIN_EXE_run_all"),
        &["--only", "E7", "--csv-dir", file],
    );
    assert!(!ok, "a file is no csv dir");
    assert!(stderr.contains(file), "error names the path: {stderr}");
    assert!(
        !stderr.contains("panicked"),
        "named error, no panic: {stderr}"
    );
    assert!(stdout.is_empty(), "nothing runs before the error: {stdout}");
}

#[test]
fn run_all_csv_dir_writes_every_table() {
    // Running the full quick suite here would be slow; instead verify the
    // registry's structural invariants so the check never goes stale when
    // an experiment is added: ids are unique and resolvable, the E-series
    // is contiguous from E1, and the F-CDF figure experiment is present.
    let all = mmhew_harness::registry::all();
    let ids: Vec<&str> = all.iter().map(|(id, _)| *id).collect();
    let unique: std::collections::BTreeSet<&str> = ids.iter().copied().collect();
    assert_eq!(unique.len(), ids.len(), "duplicate experiment ids: {ids:?}");
    let e_count = ids.iter().filter(|id| id.starts_with('E')).count();
    for k in 1..=e_count {
        let id = format!("E{k}");
        assert!(
            ids.iter().any(|i| *i == id),
            "E-series not contiguous: missing {id} in {ids:?}"
        );
    }
    assert!(ids.contains(&"F-CDF"), "{ids:?}");
    assert_eq!(all.len(), e_count + 1, "unexpected non-E entries: {ids:?}");
    for (id, _) in &all {
        assert!(
            mmhew_harness::registry::by_id(id).is_some(),
            "{id} not resolvable by_id"
        );
    }
}

#[test]
fn simulate_protocol_runs_catalog_entries() {
    let (stdout, stderr, ok) = run(
        env!("CARGO_BIN_EXE_simulate"),
        &[
            "--topology",
            "complete",
            "--nodes",
            "6",
            "--universe",
            "5",
            "--availability",
            "full",
            "--protocol",
            "mc-dis",
            "--reps",
            "2",
            "--seed",
            "5",
        ],
    );
    assert!(ok, "simulate --protocol failed: {stderr}");
    assert!(stdout.contains("protocol: mc-dis"), "{stdout}");
    assert!(stdout.contains("completed in"), "{stdout}");
    assert!(stdout.contains("all completed runs exact ✓"), "{stdout}");
}

#[test]
fn simulate_protocol_flag_conflicts_and_unknown_names_fail() {
    let (_, stderr, ok) = run(
        env!("CARGO_BIN_EXE_simulate"),
        &["--protocol", "mc-dis", "--algorithm", "alg1"],
    );
    assert!(!ok, "conflicting flags must fail");
    assert!(stderr.contains("mutually exclusive"), "{stderr}");

    let (_, stderr, ok) = run(env!("CARGO_BIN_EXE_simulate"), &["--protocol", "bogus"]);
    assert!(!ok, "unknown protocol must fail");
    assert!(stderr.contains("not in the catalog"), "{stderr}");
    assert!(
        stderr.contains("mc-dis"),
        "error lists known names: {stderr}"
    );

    let (_, stderr, ok) = run(
        env!("CARGO_BIN_EXE_simulate"),
        &["--protocol", "frame-based"],
    );
    assert!(!ok, "async catalog entry must be redirected");
    assert!(stderr.contains("--algorithm alg4"), "{stderr}");
}

#[test]
fn e21_smoke() {
    let (stdout, stderr, ok) = only("E21");
    assert!(ok, "e21 failed: {stderr}");
    assert!(stdout.contains("=== E21:"), "{stdout}");
    assert!(stdout.contains("Thm3 bound"), "{stdout}");
}

#[test]
fn e22_smoke() {
    let (stdout, stderr, ok) = only("E22");
    assert!(ok, "e22 failed: {stderr}");
    assert!(stdout.contains("=== E22:"), "{stdout}");
    assert!(stdout.contains("mean ghosts"), "{stdout}");
}

#[test]
fn e23_smoke() {
    let (stdout, stderr, ok) = only("E23");
    assert!(ok, "e23 failed: {stderr}");
    assert!(stdout.contains("=== E23:"), "{stdout}");
    assert!(stdout.contains("mean re-est"), "{stdout}");
}

#[test]
fn e24_smoke() {
    let (stdout, stderr, ok) = only("E24");
    assert!(ok, "e24 failed: {stderr}");
    assert!(stdout.contains("=== E24:"), "{stdout}");
    assert!(stdout.contains("gilbert-elliott"), "{stdout}");
}

#[test]
fn e25_smoke() {
    let (stdout, stderr, ok) = only("E25");
    assert!(ok, "e25 failed: {stderr}");
    assert!(stdout.contains("=== E25:"), "{stdout}");
    assert!(stdout.contains("slowdown at"), "{stdout}");
}

#[test]
fn e26_smoke() {
    let (stdout, stderr, ok) = only("E26");
    assert!(ok, "e26 failed: {stderr}");
    assert!(stdout.contains("=== E26:"), "{stdout}");
    assert!(stdout.contains("calibrated budget"), "{stdout}");
}

#[test]
fn e27_smoke() {
    let (stdout, stderr, ok) = only("E27");
    assert!(ok, "e27 failed: {stderr}");
    assert!(stdout.contains("=== E27:"), "{stdout}");
    assert!(stdout.contains("mc-dis"), "{stdout}");
    assert!(stdout.contains("energy/node/slot"), "{stdout}");
}

#[test]
fn e28_smoke() {
    let (stdout, stderr, ok) = only("E28");
    assert!(ok, "e28 failed: {stderr}");
    assert!(stdout.contains("=== E28:"), "{stdout}");
    assert!(stdout.contains("slowdown"), "{stdout}");
}

#[test]
fn e29_smoke() {
    let (stdout, stderr, ok) = only("E29");
    assert!(ok, "e29 failed: {stderr}");
    assert!(stdout.contains("=== E29:"), "{stdout}");
    assert!(stdout.contains("s-nihao"), "{stdout}");
}
