//! Steady-state allocation audit of the synchronous engine's slot loop.
//!
//! The bar: after warm-up (scratch buffers grown to the network size) a
//! slot with no attached sink must perform **zero** heap allocation —
//! transmitter-centric resolution, beacon delivery from the per-node
//! cache, the receiver's `table.record(sender, A(v) ∩ A(u))`, and
//! coverage recording all run out of persistent buffers or in-place
//! channel sets. The
//! same bar applies to the event executor: an `EventCursor::advance`
//! (slots decided in place into the engine's reused action buffer, dead
//! air tallied, then one stepped slot) allocates nothing.
//!
//! Two byte-counting checks ride along: attaching a fault plan allocates
//! per node, not per node pair, and finishing a run holds at most one
//! extra neighbor table at a time while it copies the tables out.
//!
//! A process-global counting allocator cannot distinguish threads, and
//! libtest's main thread allocates while a test runs on its own thread.
//! So this file opts out of the libtest harness (`harness = false` in
//! `Cargo.toml`) and runs the audit from `main`, the only thread alive.

use mmhew_dynamics::{DynamicsSchedule, TimedEvent};
use mmhew_engine::{
    CoverageTracker, EventCursor, FaultPlan, NeighborTable, SyncEngine, SyncProtocol, SyncRunConfig,
};
use mmhew_faults::{CrashSchedule, GilbertElliott, JamSchedule, LinkLossModel};
use mmhew_radio::{Beacon, Impairments, SlotAction};
use mmhew_spectrum::{AvailabilityModel, ChannelId, ChannelSet};
use mmhew_topology::{Network, NetworkBuilder, NodeId};
use mmhew_util::{SeedTree, Xoshiro256StarStar};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation (fresh, zeroed, or growing) since startup, and
/// the bytes live now and at the peak since [`reset_peak`].
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
}

/// Bytes allocated and not yet freed.
fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Restarts the peak from the bytes live now.
fn reset_peak() {
    PEAK_BYTES.store(live_bytes(), Ordering::Relaxed);
}

/// The most bytes live at once since [`reset_peak`].
fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        new
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Periodic protocol: node `i` transmits every `period`-th slot
/// (staggered by `i`) on a fixed channel, listens on a rotating channel
/// otherwise, and records each beacon as every protocol in the paper
/// does: `⟨v, A(v) ∩ A(u)⟩`. The point is to keep the *medium* busy —
/// deliveries, collisions, and silence all occur — while the protocol
/// layer's only work is the delivery path the paper's algorithms share.
struct Metronome {
    offset: u64,
    period: u64,
    universe: u16,
    /// This node's available set `A(u)`.
    own: ChannelSet,
    table: NeighborTable,
}

impl SyncProtocol for Metronome {
    fn on_slot(&mut self, slot: u64, _rng: &mut Xoshiro256StarStar) -> SlotAction {
        let tick = slot + self.offset;
        if tick.is_multiple_of(self.period) {
            SlotAction::Transmit {
                channel: ChannelId::new((self.offset % self.universe as u64) as u16),
            }
        } else {
            SlotAction::Listen {
                channel: ChannelId::new((tick % self.universe as u64) as u16),
            }
        }
    }

    // Deterministic and draw-free, but the listen channel rotates every
    // slot, so there is no repeat window to declare: the bound is always
    // "now" (scan slot by slot — the buffered listens still reveal the
    // dead air for the executor to skip).
    fn next_transmission_bound(&self, now: u64) -> Option<u64> {
        Some(now)
    }

    fn on_beacon(&mut self, beacon: &Beacon, _channel: ChannelId) {
        self.table
            .record(beacon.sender(), beacon.available().intersection(&self.own));
    }

    fn table(&self) -> &NeighborTable {
        &self.table
    }
}

/// One [`Metronome`] per node of `net` (a 3-channel universe), each
/// transmitting every `period`-th slot.
fn metronomes(net: &Network, period: u64) -> Vec<Box<dyn SyncProtocol>> {
    (0..net.node_count())
        .map(|i| {
            Box::new(Metronome {
                offset: i as u64,
                period,
                universe: 3,
                own: net.available(NodeId::new(i as u32)).to_owned(),
                table: NeighborTable::new(),
            }) as Box<dyn SyncProtocol>
        })
        .collect()
}

fn main() {
    warm_engine_slot_loop_allocates_nothing();
    println!("test warm_engine_slot_loop_allocates_nothing ... ok");
    attaching_faults_allocates_per_node_not_per_pair();
    println!("test attaching_faults_allocates_per_node_not_per_pair ... ok");
    finishing_a_run_copies_one_table_at_a_time();
    println!("test finishing_a_run_copies_one_table_at_a_time ... ok");
}

/// A Gilbert–Elliott default covers every directed link, but the fault
/// runtime holds a link's chain only once the link is heard: attaching
/// the plan to a 4 096-node ring costs per-node tally buffers, not a
/// state for each of the 16.8 million node pairs.
fn attaching_faults_allocates_per_node_not_per_pair() {
    let net = NetworkBuilder::ring(4_096)
        .universe(3)
        .availability(AvailabilityModel::UniformSubset { size: 2 })
        .build(SeedTree::new(0xFA17))
        .expect("build network");
    let n = net.node_count();
    let plan = FaultPlan::new().with_default_loss(LinkLossModel::GilbertElliott(
        GilbertElliott::bursty(0.3, 8.0),
    ));
    let engine = SyncEngine::new(&net, metronomes(&net, 4), vec![0; n], SeedTree::new(11));
    let before = live_bytes();
    reset_peak();
    let mut engine = engine.with_faults(plan);
    let attached = peak_bytes() - before;
    assert!(
        attached < 1 << 20,
        "attaching a Gilbert–Elliott plan to a {n}-node ring allocated {attached} bytes"
    );
    // The attached plan is live: beacons are heard and some are lost.
    let config = SyncRunConfig::fixed(u64::MAX);
    let delivered: usize = (0..200)
        .map(|_| engine.step(&config).deliveries.len())
        .sum();
    assert!(delivered > 0, "the faulted ring must still deliver");
}

/// Building the outcome copies every neighbor table out of its protocol.
/// Each protocol is dropped as soon as its copy is made, so while the
/// outcome is built the live bytes rise by the outcome's own vectors and
/// at most one table, not by a second copy of every table.
fn finishing_a_run_copies_one_table_at_a_time() {
    // One transmitter per slot on a complete graph with every channel
    // available: within 3 periods every node has heard every other.
    let n = 64;
    let net = NetworkBuilder::complete(n)
        .universe(3)
        .availability(AvailabilityModel::Full)
        .build(SeedTree::new(0x7AB1E))
        .expect("build network");
    let mut engine = SyncEngine::new(
        &net,
        metronomes(&net, n as u64),
        vec![0; n],
        SeedTree::new(12),
    );
    let config = SyncRunConfig::fixed(u64::MAX);
    for _ in 0..4 * n {
        engine.step(&config);
    }
    // As the benchmark's `finish` does: run to the slot already reached.
    let slot = engine.current_slot();
    let before = live_bytes();
    reset_peak();
    let outcome = engine.run(SyncRunConfig::fixed(slot));
    let rise = peak_bytes() - before;
    assert!(outcome.completed(), "every table must be full");
    // What one copy of each table costs, measured by cloning it.
    let table_bytes: Vec<u64> = outcome
        .tables()
        .iter()
        .map(|table| {
            let before = live_bytes();
            let copy = table.clone();
            let bytes = live_bytes() - before;
            drop(copy);
            bytes
        })
        .collect();
    let largest = table_bytes.iter().copied().max().unwrap_or(0);
    let every_table: u64 = table_bytes.iter().sum();
    let vectors =
        std::mem::size_of_val(outcome.link_coverage()) + std::mem::size_of_val(outcome.tables());
    let allowed = vectors as u64 + largest;
    assert!(
        every_table > 4 * largest,
        "the tables must outweigh one table for the check to mean anything"
    );
    assert!(
        rise <= allowed,
        "building the outcome raised live bytes by {rise}, over the outcome's vectors \
         ({vectors}) plus one table ({largest}); every table together is {every_table}"
    );
}

fn warm_engine_slot_loop_allocates_nothing() {
    let net = NetworkBuilder::grid(3, 3)
        .universe(3)
        .availability(AvailabilityModel::UniformSubset { size: 2 })
        .build(SeedTree::new(0xA110C))
        .expect("build network");
    let n = net.node_count();
    for q in [1.0f64, 0.9] {
        let config = if q >= 1.0 {
            SyncRunConfig::fixed(u64::MAX)
        } else {
            SyncRunConfig::fixed(u64::MAX)
                .with_impairments(Impairments::with_delivery_probability(q))
        };
        let mut engine = SyncEngine::new(&net, metronomes(&net, 4), vec![0; n], SeedTree::new(7));
        // Warm-up: grow every lazily-sized scratch buffer (resolver,
        // reused action vector) and fault in the allocator bookkeeping.
        for _ in 0..500 {
            engine.step(&config);
        }
        let mut delivered = 0usize;
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..2_000 {
            delivered += engine.step(&config).deliveries.len();
        }
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        assert!(
            delivered > 0,
            "medium must stay busy for the audit to mean anything"
        );
        assert_eq!(
            after - before,
            0,
            "steady-state slot loop allocated (q={q})"
        );
    }

    // A dense fault plan must preserve the zero-allocation steady state:
    // per-link Gilbert–Elliott chains (each created when warm-up first
    // hears its link), a permanent jammer on channel 0, and a crash outage
    // that transitions *during* the audited window all run out of state
    // built before the audited window.
    let plan = FaultPlan::new()
        .with_default_loss(LinkLossModel::GilbertElliott(GilbertElliott::bursty(
            0.3, 8.0,
        )))
        .with_jamming(JamSchedule::fixed([0u16].into_iter().collect()))
        .with_crashes(CrashSchedule::outage(NodeId::new(0), 600, 700));
    let config = SyncRunConfig::fixed(u64::MAX);
    let mut engine =
        SyncEngine::new(&net, metronomes(&net, 4), vec![0; n], SeedTree::new(8)).with_faults(plan);
    for _ in 0..500 {
        engine.step(&config);
    }
    let mut delivered = 0usize;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..2_000 {
        delivered += engine.step(&config).deliveries.len();
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(
        delivered > 0,
        "faulted medium must still deliver for the audit to mean anything"
    );
    assert_eq!(
        after - before,
        0,
        "steady-state slot loop allocated under a dense fault plan"
    );

    // The event executor's steady state is held to the same bar. Period 64
    // leaves long dead-air gaps (9 transmission-bearing slots per 64), so
    // every advance exercises the full cycle: several dead-air slots
    // decided and tallied in place, then one stepped slot — all out of
    // buffers grown during warm-up.
    let config = SyncRunConfig::fixed(u64::MAX);
    let mut engine = SyncEngine::new(&net, metronomes(&net, 64), vec![0; n], SeedTree::new(9));
    let mut cursor = EventCursor::new(n);
    for _ in 0..200 {
        // Every advance steps a slot with a transmission (the metronome
        // guarantees one), so a `true` return is the busy-medium witness.
        assert!(cursor.advance(&mut engine, &config), "budget is unbounded");
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..2_000 {
        assert!(cursor.advance(&mut engine, &config), "budget is unbounded");
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state event-executor advance allocated"
    );

    // Churn-heavy dynamics: `Network::apply`'s incremental CSR patching
    // is held to the same bar. One warm cycle grows the persistent
    // `ApplyScratch` buffers (and settles edge re-insertion order to its
    // fixed point); from then on a full leave/rejoin + edge flap +
    // spectrum flap cycle allocates nothing and restores the network
    // bit-for-bit.
    use mmhew_topology::NetworkEvent;
    let mut churned = NetworkBuilder::grid(3, 3)
        .universe(3)
        .availability(AvailabilityModel::UniformSubset { size: 2 })
        .build(SeedTree::new(0xA110C))
        .expect("build network");
    let center = NodeId::new(4);
    let rejoin = NetworkEvent::NodeJoin {
        node: center,
        position: churned.topology().position(center),
        available: churned.available(center).to_owned(),
    };
    let flapped = churned
        .available(NodeId::new(0))
        .iter()
        .next()
        .expect("node 0 holds a channel");
    let mut cycle = vec![NetworkEvent::NodeLeave { node: center }, rejoin];
    for &nb in &[1u32, 3, 5, 7] {
        cycle.push(NetworkEvent::EdgeAdd {
            from: center,
            to: NodeId::new(nb),
        });
        cycle.push(NetworkEvent::EdgeAdd {
            from: NodeId::new(nb),
            to: center,
        });
    }
    cycle.push(NetworkEvent::ChannelLost {
        node: NodeId::new(0),
        channel: flapped,
    });
    cycle.push(NetworkEvent::ChannelGained {
        node: NodeId::new(0),
        channel: flapped,
    });
    cycle.push(NetworkEvent::EdgeRemove {
        from: NodeId::new(0),
        to: NodeId::new(1),
    });
    cycle.push(NetworkEvent::EdgeAdd {
        from: NodeId::new(0),
        to: NodeId::new(1),
    });
    for _ in 0..3 {
        for event in &cycle {
            churned.apply(event).expect("valid churn event");
        }
    }
    let snapshot = churned.clone();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..200 {
        for event in &cycle {
            churned.apply(event).expect("valid churn event");
        }
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "churn-heavy apply cycle allocated in steady state"
    );
    assert_eq!(churned, snapshot, "each churn cycle is state-restoring");

    // The engines apply each dynamics boundary as one `apply_all` batch and
    // then resync the coverage tracker; that pair is held to the same bar.
    // Every link carries a stamp, so the merge has stamps to keep.
    let mut tracker: CoverageTracker<u64> = CoverageTracker::new(&churned);
    for (i, &link) in churned.links().iter().enumerate() {
        tracker.record(link, i as u64);
    }
    for _ in 0..3 {
        churned.apply_all(&cycle).expect("valid churn batch");
        tracker.resync(&churned);
    }
    let tracker_snapshot = tracker.clone();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..200 {
        churned.apply_all(&cycle).expect("valid churn batch");
        tracker.resync(&churned);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "churn batch + tracker resync allocated in steady state"
    );
    assert_eq!(churned, snapshot, "each churn batch is state-restoring");
    assert_eq!(tracker, tracker_snapshot, "resync keeps surviving stamps");
    assert!(tracker.is_complete());

    // The same pair run by the engine itself: a periodic edge flap puts a
    // dynamics boundary on every fifth slot, and a warm engine gathers each
    // boundary's due events into a batch buffer it keeps.
    let (a, b) = (NodeId::new(0), NodeId::new(1));
    let flaps = (0..300u64).flat_map(|k| {
        let (forward, backward) = if k % 2 == 0 {
            (
                NetworkEvent::EdgeRemove { from: a, to: b },
                NetworkEvent::EdgeRemove { from: b, to: a },
            )
        } else {
            (
                NetworkEvent::EdgeAdd { from: a, to: b },
                NetworkEvent::EdgeAdd { from: b, to: a },
            )
        };
        [
            TimedEvent::new(5 * k + 1, forward),
            TimedEvent::new(5 * k + 1, backward),
        ]
    });
    let config = SyncRunConfig::fixed(u64::MAX);
    let mut engine = SyncEngine::new(&net, metronomes(&net, 4), vec![0; n], SeedTree::new(10))
        .with_dynamics(DynamicsSchedule::new(flaps.collect()));
    for _ in 0..500 {
        engine.step(&config);
    }
    let mut expected = engine.tracker().expected();
    let mut boundaries = 0;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..1_000 {
        engine.step(&config);
        let now = engine.tracker().expected();
        boundaries += usize::from(now != expected);
        expected = now;
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "a warm engine allocated at its dynamics boundaries"
    );
    assert_eq!(boundaries, 200, "every fifth slot flips the edge");
}
