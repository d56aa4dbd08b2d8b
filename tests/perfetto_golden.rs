//! Perfetto export guarantees: the live tee's `.pftrace` is byte-stable
//! for a fixed seed on both engines, and the emitted protobuf is
//! structurally sound (unique track uuids, nondecreasing timestamps)
//! under an independent in-test decoder. A run depends only on its seed,
//! so re-running it with the tee is the one way to a Perfetto view.
//!
//! The golden `.pftrace` files under `tests/golden/` are committed and pin
//! the encoding: any byte drift in the converter fails here. Two of them
//! run under churn, primary users, mobility, loss, a jammer, a crash
//! outage, capture and impairments, so every instant marker is pinned on
//! both the slotted and the continuous-time path. A golden never blesses
//! itself. When one is missing, the test writes what the current build
//! produced to `<name>.new` next to it and fails; review that file and
//! rename it to bless it.

use mmhew::prelude::*;
use std::path::PathBuf;

fn net(seed: &SeedTree) -> Network {
    NetworkBuilder::complete(5)
        .universe(4)
        .availability(AvailabilityModel::UniformSubset { size: 3 })
        .build(seed.branch("net"))
        .expect("build")
}

fn sync_alg(network: &Network) -> SyncAlgorithm {
    let delta = network.max_degree().max(1) as u64;
    SyncAlgorithm::Staged(SyncParams::new(delta).expect("positive"))
}

fn async_alg(network: &Network) -> AsyncAlgorithm {
    let delta = network.max_degree().max(1) as u64;
    AsyncAlgorithm::FrameBased(AsyncParams::new(delta).expect("positive"))
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mmhew-perfetto-golden");
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join(name)
}

/// Runs the fixed-seed sync scenario with a Perfetto tee and returns the
/// `.pftrace` bytes.
fn sync_pftrace(seed: u64, file: &str) -> Vec<u8> {
    let tree = SeedTree::new(seed);
    let network = net(&tree);
    let path = temp_path(file);
    Scenario::sync(&network, sync_alg(&network))
        .config(SyncRunConfig::until_complete(50_000))
        .with_perfetto(&path)
        .run(tree.branch("run"))
        .expect("run");
    let bytes = std::fs::read(&path).expect("tee file written");
    std::fs::remove_file(&path).ok();
    bytes
}

fn async_pftrace(seed: u64, file: &str) -> Vec<u8> {
    let tree = SeedTree::new(seed);
    let network = net(&tree);
    let path = temp_path(file);
    Scenario::asynchronous(&network, async_alg(&network))
        .config(AsyncRunConfig::until_complete(200_000))
        .with_perfetto(&path)
        .run(tree.branch("run"))
        .expect("run");
    let bytes = std::fs::read(&path).expect("tee file written");
    std::fs::remove_file(&path).ok();
    bytes
}

/// A six-node unit disk under churn, Markov primary users and mobility,
/// with bursty loss, a sweeping jammer, one crash outage and lossy
/// impairments: every instant marker the converter draws, on both
/// engines. `horizon` is in the engine's time unit (slots or nanoseconds).
fn adversity(seed: &SeedTree, network: &Network, horizon: u64) -> (DynamicsSchedule, FaultPlan) {
    let step = horizon / 20;
    let dynamics = DynamicsSchedule::merged([
        poisson_churn(
            network,
            horizon,
            &ChurnConfig {
                rate: 4.0 / horizon as f64,
                mean_downtime: (horizon / 8) as f64,
            },
            seed.branch("churn"),
        ),
        markov_primary_users(
            network,
            horizon,
            &SpectrumChurnConfig {
                p_occupy: 0.2,
                p_vacate: 0.5,
                step,
            },
            seed.branch("pu"),
        ),
        random_waypoint(
            network,
            horizon,
            &MobilityConfig {
                side: 5.0,
                radius: 3.0,
                speed: 1.0,
                step,
            },
            seed.branch("mobility"),
        ),
    ]);
    let faults = FaultPlan::new()
        .with_default_loss(LinkLossModel::GilbertElliott(GilbertElliott::bursty(
            0.2, 4.0,
        )))
        .with_jamming(JamSchedule::sweeping(
            network.universe_size(),
            step,
            horizon,
        ))
        .with_crashes(CrashSchedule::outage(
            NodeId::new(1),
            horizon / 4,
            horizon / 2,
        ));
    (dynamics, faults)
}

fn adverse_net(seed: &SeedTree) -> Network {
    NetworkBuilder::unit_disk(6, 5.0, 3.0)
        .universe(4)
        .availability(AvailabilityModel::UniformSubset { size: 3 })
        .build(seed.branch("net"))
        .expect("build")
}

/// [`sync_pftrace`] under [`adversity`] plus capture, for a fixed
/// 200 slots.
fn sync_adverse_pftrace(seed: u64, file: &str) -> Vec<u8> {
    let tree = SeedTree::new(seed);
    let network = adverse_net(&tree);
    let (dynamics, faults) = adversity(&tree, &network, 200);
    let path = temp_path(file);
    Scenario::sync(&network, sync_alg(&network))
        .config(
            SyncRunConfig::fixed(200).with_impairments(Impairments::with_delivery_probability(0.8)),
        )
        .with_dynamics(dynamics)
        .with_faults(faults.with_capture(0.5))
        .with_perfetto(&path)
        .run(tree.branch("run"))
        .expect("run");
    let bytes = std::fs::read(&path).expect("tee file written");
    std::fs::remove_file(&path).ok();
    bytes
}

/// [`async_pftrace`] under [`adversity`], for at most 60 frames of the
/// default 3 µs.
fn async_adverse_pftrace(seed: u64, file: &str) -> Vec<u8> {
    let tree = SeedTree::new(seed);
    let network = adverse_net(&tree);
    let (dynamics, faults) = adversity(&tree, &network, 180_000);
    let path = temp_path(file);
    Scenario::asynchronous(&network, async_alg(&network))
        .config(
            AsyncRunConfig::until_complete(60)
                .with_impairments(Impairments::with_delivery_probability(0.8)),
        )
        .with_dynamics(dynamics)
        .with_faults(faults)
        .with_perfetto(&path)
        .run(tree.branch("run"))
        .expect("run");
    let bytes = std::fs::read(&path).expect("tee file written");
    std::fs::remove_file(&path).ok();
    bytes
}

#[test]
fn same_seed_pftrace_is_byte_identical_on_both_engines() {
    let a = sync_pftrace(0x51, "sync-a.pftrace");
    let b = sync_pftrace(0x51, "sync-b.pftrace");
    assert!(!a.is_empty());
    assert_eq!(a, b, "sync: same seed must reproduce the .pftrace exactly");
    let c = sync_pftrace(0x52, "sync-c.pftrace");
    assert_ne!(a, c, "sync: different seeds should diverge");

    let a = async_pftrace(0x51, "async-a.pftrace");
    let b = async_pftrace(0x51, "async-b.pftrace");
    assert!(!a.is_empty());
    assert_eq!(a, b, "async: same seed must reproduce the .pftrace exactly");
}

#[test]
fn golden_files_pin_the_encoding() {
    let goldens = [
        (
            "tests/golden/perfetto_sync_seed66.pftrace",
            sync_pftrace(0x66, "g-sync.pftrace"),
        ),
        (
            "tests/golden/perfetto_async_seed66.pftrace",
            async_pftrace(0x66, "g-async.pftrace"),
        ),
        (
            "tests/golden/perfetto_sync_adverse_seed67.pftrace",
            sync_adverse_pftrace(0x67, "g-sync-adverse.pftrace"),
        ),
        (
            "tests/golden/perfetto_async_adverse_seed67.pftrace",
            async_adverse_pftrace(0x67, "g-async-adverse.pftrace"),
        ),
    ];
    let mut missing = Vec::new();
    for (path, bytes) in goldens {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
        match std::fs::read(&path) {
            Ok(golden) => assert_eq!(
                golden,
                bytes,
                "{} drifted — the converter's encoding changed; if intentional, \
                 delete the golden, re-run, and review the `.new` file it writes",
                path.display()
            ),
            Err(_) => {
                let candidate = path.with_extension("pftrace.new");
                std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
                std::fs::write(&candidate, &bytes).expect("write candidate golden");
                missing.push(format!(
                    "{} is missing; wrote {} ({} bytes) for review",
                    path.display(),
                    candidate.display(),
                    bytes.len()
                ));
            }
        }
    }
    assert!(missing.is_empty(), "{}", missing.join("\n"));
}

// ---------------------------------------------------------------------
// Independent protobuf reader — deliberately NOT using mmhew::perfetto's
// writer helpers, so an encoding bug cannot hide behind its own inverse.
// ---------------------------------------------------------------------

fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

/// One pass over a protobuf message, yielding `(field, wire, payload)`
/// where payload is the varint value or the length-delimited slice range.
fn fields(bytes: &[u8]) -> Vec<(u32, u32, u64, std::ops::Range<usize>)> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < bytes.len() {
        let key = read_varint(bytes, &mut pos);
        let field = (key >> 3) as u32;
        let wire = (key & 7) as u32;
        match wire {
            0 => {
                let v = read_varint(bytes, &mut pos);
                out.push((field, wire, v, 0..0));
            }
            1 => {
                out.push((field, wire, 0, pos..pos + 8));
                pos += 8;
            }
            2 => {
                let len = read_varint(bytes, &mut pos) as usize;
                out.push((field, wire, len as u64, pos..pos + len));
                pos += len;
            }
            other => panic!("unexpected wire type {other} at {pos}"),
        }
    }
    out
}

fn varint_field(msg: &[u8], want: u32) -> Option<u64> {
    fields(msg)
        .into_iter()
        .find(|(f, w, _, _)| *f == want && *w == 0)
        .map(|(_, _, v, _)| v)
}

#[test]
fn decoded_trace_has_unique_tracks_and_monotonic_timestamps() {
    for (engine, bytes) in [
        ("sync", sync_pftrace(0x55, "d-sync.pftrace")),
        ("async", async_pftrace(0x55, "d-async.pftrace")),
    ] {
        let mut track_uuids = Vec::new();
        let mut referenced = Vec::new();
        let mut last_ts = 0u64;
        let mut track_events = 0u64;
        for (field, wire, _, range) in fields(&bytes) {
            assert_eq!((field, wire), (1, 2), "{engine}: Trace has only packet=1");
            let packet = &bytes[range];
            // trusted_packet_sequence_id = 10 on every packet.
            assert_eq!(
                varint_field(packet, 10),
                Some(1),
                "{engine}: packet missing sequence id"
            );
            let descriptor = fields(packet)
                .into_iter()
                .find(|(f, w, _, _)| (*f, *w) == (60, 2));
            if let Some((_, _, _, d)) = descriptor {
                // TrackDescriptor.uuid = 1.
                let uuid = varint_field(&packet[d], 1).expect("descriptor has uuid");
                track_uuids.push(uuid);
                continue;
            }
            let event = fields(packet)
                .into_iter()
                .find(|(f, w, _, _)| (*f, *w) == (11, 2))
                .expect("packet is a descriptor or a track event");
            // TracePacket.timestamp = 8 must never decrease.
            let ts = varint_field(packet, 8).expect("event packet has timestamp");
            assert!(
                ts >= last_ts,
                "{engine}: timestamp went backwards ({ts} < {last_ts})"
            );
            last_ts = ts;
            track_events += 1;
            // TrackEvent.track_uuid = 11 must reference a declared track.
            referenced.push(varint_field(&packet[event.3], 11).expect("event has track uuid"));
        }
        assert!(track_events > 0, "{engine}: no events decoded");
        let declared = track_uuids.len();
        track_uuids.sort_unstable();
        track_uuids.dedup();
        assert_eq!(
            declared,
            track_uuids.len(),
            "{engine}: duplicate track uuid"
        );
        for uuid in referenced {
            assert!(
                track_uuids.binary_search(&uuid).is_ok(),
                "{engine}: event references undeclared track {uuid}"
            );
        }
    }
}
