//! Run configuration: start schedules, clock populations, and stop
//! conditions.

use mmhew_radio::Impairments;
use mmhew_time::{DriftModel, DriftedClock, LocalDuration, LocalTime, RealDuration, RealTime};
use mmhew_util::SeedTree;
use rand::Rng;
use serde::Serialize;

/// When each node begins executing the protocol, in slots (synchronous
/// engines).
///
/// Algorithms 1–2 assume [`StartSchedule::Identical`]; Algorithm 3 is
/// designed precisely to tolerate the other two.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum StartSchedule {
    /// All nodes start at slot 0.
    Identical,
    /// Each node starts at a slot drawn uniformly from `[0, window]`.
    Staggered {
        /// Largest possible start slot.
        window: u64,
    },
    /// Explicit per-node start slots.
    Explicit(Vec<u64>),
}

impl StartSchedule {
    /// Produces the per-node start slots.
    ///
    /// # Panics
    ///
    /// Panics if an `Explicit` schedule has the wrong length.
    pub fn materialize(&self, n: usize, seed: SeedTree) -> Vec<u64> {
        match self {
            StartSchedule::Identical => vec![0; n],
            StartSchedule::Staggered { window } => (0..n)
                .map(|i| {
                    let mut rng = seed.branch("start-slot").index(i as u64).rng();
                    rng.gen_range(0..=*window)
                })
                .collect(),
            StartSchedule::Explicit(slots) => {
                assert_eq!(slots.len(), n, "explicit schedule length mismatch");
                slots.clone()
            }
        }
    }

    /// The latest possible start slot (`T_s` of Theorem 3) for a
    /// materialized schedule.
    pub fn latest(starts: &[u64]) -> u64 {
        starts.iter().copied().max().unwrap_or(0)
    }
}

/// Stop conditions for a synchronous run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SyncRunConfig {
    /// Hard slot budget: the run aborts (incomplete) after this many slots.
    pub max_slots: u64,
    /// Stop as soon as every link is covered (the usual mode). When false,
    /// runs the full budget — useful for failure-probability estimation.
    pub stop_when_complete: bool,
    /// Stop once every protocol reports local termination (see
    /// [`crate::SyncProtocol::is_terminated`]).
    pub stop_when_all_terminated: bool,
    /// Channel impairments.
    pub impairments: Impairments,
}

impl SyncRunConfig {
    /// Runs until complete, giving up after `max_slots`.
    pub fn until_complete(max_slots: u64) -> Self {
        Self {
            max_slots,
            stop_when_complete: true,
            stop_when_all_terminated: false,
            impairments: Impairments::reliable(),
        }
    }

    /// Runs exactly `slots` slots regardless of completion.
    pub fn fixed(slots: u64) -> Self {
        Self {
            max_slots: slots,
            stop_when_complete: false,
            stop_when_all_terminated: false,
            impairments: Impairments::reliable(),
        }
    }

    /// Runs until every node terminates locally (or the budget runs out):
    /// the engine no longer peeks at global coverage, so the run length is
    /// decided by the nodes themselves, as it would be in a real
    /// deployment.
    pub fn until_all_terminated(max_slots: u64) -> Self {
        Self {
            max_slots,
            stop_when_complete: false,
            stop_when_all_terminated: true,
            impairments: Impairments::reliable(),
        }
    }

    /// Replaces the impairment model.
    pub fn with_impairments(mut self, impairments: Impairments) -> Self {
        self.impairments = impairments;
        self
    }
}

/// When each node begins executing, in real time (asynchronous engine).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum AsyncStartSchedule {
    /// All nodes start at real time 0.
    Identical,
    /// Each node starts at a real time drawn uniformly from `[0, window]`.
    Staggered {
        /// Largest possible start time after 0.
        window: RealDuration,
    },
    /// Explicit per-node start times.
    Explicit(Vec<RealTime>),
}

impl AsyncStartSchedule {
    /// Produces the per-node start times.
    ///
    /// # Panics
    ///
    /// Panics if an `Explicit` schedule has the wrong length.
    pub fn materialize(&self, n: usize, seed: SeedTree) -> Vec<RealTime> {
        match self {
            AsyncStartSchedule::Identical => vec![RealTime::ZERO; n],
            AsyncStartSchedule::Staggered { window } => (0..n)
                .map(|i| {
                    let mut rng = seed.branch("start-time").index(i as u64).rng();
                    RealTime::from_nanos(rng.gen_range(0..=window.as_nanos()))
                })
                .collect(),
            AsyncStartSchedule::Explicit(times) => {
                assert_eq!(times.len(), n, "explicit schedule length mismatch");
                times.clone()
            }
        }
    }
}

/// How the population of node clocks is generated.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClockConfig {
    /// Drift behaviour shared by all clocks (each gets independent
    /// randomness).
    pub drift: DriftModel,
    /// Clock offsets are drawn uniformly from `[0, offset_window]` — the
    /// paper allows arbitrary offsets between clocks.
    pub offset_window: LocalDuration,
}

impl ClockConfig {
    /// Ideal clocks, zero offsets.
    pub fn ideal() -> Self {
        Self {
            drift: DriftModel::Ideal,
            offset_window: LocalDuration::ZERO,
        }
    }

    /// Produces one clock per node.
    pub fn materialize(&self, n: usize, seed: SeedTree) -> Vec<DriftedClock> {
        (0..n)
            .map(|i| {
                let node_seed = seed.branch("clock").index(i as u64);
                let offset = if self.offset_window.is_zero() {
                    LocalTime::ZERO
                } else {
                    let mut rng = node_seed.branch("offset").rng();
                    LocalTime::from_nanos(rng.gen_range(0..=self.offset_window.as_nanos()))
                };
                DriftedClock::new(self.drift.clone(), offset, node_seed)
            })
            .collect()
    }
}

/// How a transmitting frame is laid out on the air — an ablation knob for
/// Algorithm 4's design choice of repeating the beacon in every slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub enum BurstPlan {
    /// The paper's design: repeat the beacon in each of the three slots,
    /// so an *aligned* listener frame always contains a complete copy.
    #[default]
    EverySlot,
    /// Ablation: transmit in only one slot of the frame (index 0–2).
    SingleSlot {
        /// Which slot carries the beacon.
        slot: u64,
    },
    /// Ablation: one long beacon spanning the whole frame. A misaligned
    /// listener frame of equal length can never contain it — discovery
    /// relies entirely on drift-induced nesting.
    WholeFrame,
}

/// Full configuration of an asynchronous run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AsyncRunConfig {
    /// Local frame length `L` (must be divisible by 3).
    pub frame_len: LocalDuration,
    /// Per-node frame budget: the run aborts once every node has executed
    /// this many frames.
    pub max_frames: u64,
    /// Stop as soon as every link is covered.
    pub stop_when_complete: bool,
    /// Channel impairments.
    pub impairments: Impairments,
    /// Clock population.
    pub clocks: ClockConfig,
    /// Start-time schedule.
    pub starts: AsyncStartSchedule,
    /// On-air layout of transmitting frames (ablation; the paper's design
    /// is [`BurstPlan::EverySlot`]).
    pub burst_plan: BurstPlan,
}

impl AsyncRunConfig {
    /// A sensible default: 3 µs frames, ideal clocks, identical starts,
    /// reliable channels, stop on completion.
    pub fn until_complete(max_frames: u64) -> Self {
        Self {
            frame_len: LocalDuration::from_nanos(3_000),
            max_frames,
            stop_when_complete: true,
            impairments: Impairments::reliable(),
            clocks: ClockConfig::ideal(),
            starts: AsyncStartSchedule::Identical,
            burst_plan: BurstPlan::EverySlot,
        }
    }

    /// Replaces the clock configuration.
    pub fn with_clocks(mut self, clocks: ClockConfig) -> Self {
        self.clocks = clocks;
        self
    }

    /// Replaces the start schedule.
    pub fn with_starts(mut self, starts: AsyncStartSchedule) -> Self {
        self.starts = starts;
        self
    }

    /// Replaces the frame length.
    pub fn with_frame_len(mut self, frame_len: LocalDuration) -> Self {
        self.frame_len = frame_len;
        self
    }

    /// Replaces the impairment model.
    pub fn with_impairments(mut self, impairments: Impairments) -> Self {
        self.impairments = impairments;
        self
    }

    /// Replaces the on-air burst plan (ablations only).
    pub fn with_burst_plan(mut self, burst_plan: BurstPlan) -> Self {
        self.burst_plan = burst_plan;
        self
    }

    /// An upper bound on every real instant and every local clock
    /// reading of a run under this configuration, or `None` when it does
    /// not fit the `u64` nanosecond clock.
    ///
    /// The bound is the offset window, the latest start and `max_frames`
    /// frames of `frame_len`, stretched by `1/(1 − δ)` for the clocks'
    /// drift bound `δ`: a clock at the slowest admitted rate takes that
    /// long to run them, and no clock reads faster. It costs O(1), apart
    /// from one scan of an explicit start schedule.
    pub fn horizon(&self) -> Option<RealTime> {
        let latest_start = match &self.starts {
            AsyncStartSchedule::Identical => RealTime::ZERO,
            AsyncStartSchedule::Staggered { window } => RealTime::from_nanos(window.as_nanos()),
            AsyncStartSchedule::Explicit(times) => {
                times.iter().copied().max().unwrap_or(RealTime::ZERO)
            }
        };
        let bound = self.clocks.drift.bound();
        let local = u128::from(self.max_frames) * u128::from(self.frame_len.as_nanos())
            + u128::from(self.clocks.offset_window.as_nanos())
            + u128::from(latest_start.as_nanos());
        let real = local
            .checked_mul(u128::from(bound.den()))?
            .div_ceil(u128::from(bound.den() - bound.num()));
        u64::try_from(real).ok().map(RealTime::from_nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmhew_time::DriftBound;

    #[test]
    fn horizon_stretches_offsets_starts_and_frames_by_the_drift_bound() {
        let frames = |max_frames, frame_len| {
            AsyncRunConfig::until_complete(max_frames)
                .with_frame_len(LocalDuration::from_nanos(frame_len))
        };
        assert_eq!(
            frames(1_000, 3_000).horizon(),
            Some(RealTime::from_nanos(3_000_000))
        );
        // (10 offset + 10 start + 100 frames) × 3 µs, stretched by 1/(1 − 1/7).
        let drifting = frames(100, 3_000)
            .with_clocks(ClockConfig {
                drift: DriftModel::RandomPiecewise {
                    bound: DriftBound::PAPER,
                    segment: RealDuration::from_nanos(15_000),
                },
                offset_window: LocalDuration::from_nanos(30_000),
            })
            .with_starts(AsyncStartSchedule::Staggered {
                window: RealDuration::from_nanos(30_000),
            });
        assert_eq!(drifting.horizon(), Some(RealTime::from_nanos(420_000)));
        let late = frames(1, 3).with_starts(AsyncStartSchedule::Explicit(vec![
            RealTime::ZERO,
            RealTime::from_nanos(97),
        ]));
        assert_eq!(late.horizon(), Some(RealTime::from_nanos(100)));
        // Past the u64 clock, by the frames alone or by the stretch.
        assert_eq!(frames(u64::MAX, u64::MAX).horizon(), None);
        assert_eq!(frames(4_000_000, 3_000_000_000_000_000_000).horizon(), None);
        assert_eq!(frames(1, u64::MAX).horizon(), Some(RealTime::MAX));
        let stretched = frames(1, u64::MAX).with_clocks(ClockConfig {
            drift: DriftModel::Constant(mmhew_time::Rate::new(8, 7)),
            offset_window: LocalDuration::ZERO,
        });
        assert_eq!(stretched.horizon(), None);
    }

    #[test]
    fn identical_schedule() {
        let s = StartSchedule::Identical.materialize(4, SeedTree::new(0));
        assert_eq!(s, vec![0, 0, 0, 0]);
        assert_eq!(StartSchedule::latest(&s), 0);
    }

    #[test]
    fn staggered_schedule_in_window_and_deterministic() {
        let sched = StartSchedule::Staggered { window: 100 };
        let a = sched.materialize(50, SeedTree::new(1));
        let b = sched.materialize(50, SeedTree::new(1));
        assert_eq!(a, b);
        assert!(a.iter().all(|&s| s <= 100));
        assert!(a.iter().any(|&s| s > 0), "some node should start late");
        assert_eq!(
            StartSchedule::latest(&a),
            *a.iter().max().expect("nonempty")
        );
    }

    #[test]
    fn explicit_schedule_round_trip() {
        let s = StartSchedule::Explicit(vec![5, 0, 9]).materialize(3, SeedTree::new(0));
        assert_eq!(s, vec![5, 0, 9]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn explicit_wrong_length_panics() {
        StartSchedule::Explicit(vec![1]).materialize(2, SeedTree::new(0));
    }

    #[test]
    fn async_schedules() {
        let ident = AsyncStartSchedule::Identical.materialize(3, SeedTree::new(0));
        assert!(ident.iter().all(|&t| t == RealTime::ZERO));
        let stag = AsyncStartSchedule::Staggered {
            window: RealDuration::from_nanos(1_000),
        }
        .materialize(20, SeedTree::new(2));
        assert!(stag.iter().all(|&t| t.as_nanos() <= 1_000));
        assert!(stag.iter().any(|&t| t.as_nanos() > 0));
    }

    #[test]
    fn clock_config_materializes_population() {
        let cfg = ClockConfig {
            drift: DriftModel::RandomPiecewise {
                bound: DriftBound::PAPER,
                segment: RealDuration::from_micros(10),
            },
            offset_window: LocalDuration::from_nanos(500),
        };
        let clocks = cfg.materialize(10, SeedTree::new(3));
        assert_eq!(clocks.len(), 10);
        let offsets: Vec<u64> = clocks.iter().map(|c| c.offset().as_nanos()).collect();
        assert!(offsets.iter().all(|&o| o <= 500));
        assert!(
            offsets
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len()
                > 1,
            "offsets should vary"
        );
        for c in &clocks {
            assert!(c.rates_within(DriftBound::PAPER));
        }
    }

    #[test]
    fn ideal_clock_config() {
        let clocks = ClockConfig::ideal().materialize(3, SeedTree::new(0));
        for mut c in clocks {
            assert_eq!(
                c.local_at(RealTime::from_nanos(777)),
                mmhew_time::LocalTime::from_nanos(777)
            );
        }
    }

    #[test]
    fn run_config_builders() {
        let s = SyncRunConfig::until_complete(100);
        assert!(s.stop_when_complete);
        assert_eq!(s.max_slots, 100);
        let f =
            SyncRunConfig::fixed(50).with_impairments(Impairments::with_delivery_probability(0.5));
        assert!(!f.stop_when_complete);
        assert_eq!(f.impairments.delivery_probability(), 0.5);

        let a = AsyncRunConfig::until_complete(1_000)
            .with_frame_len(LocalDuration::from_nanos(600))
            .with_starts(AsyncStartSchedule::Identical);
        assert_eq!(a.frame_len.as_nanos(), 600);
        assert_eq!(a.max_frames, 1_000);
    }
}
