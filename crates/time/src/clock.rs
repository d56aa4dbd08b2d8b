//! Drifting clocks: lazy piecewise-linear maps between real and local time.

use crate::drift::{DriftBound, DriftModel};
use crate::duration::{LocalTime, RealTime};
use crate::rate::Rate;
use mmhew_util::SeedTree;

/// One constant-rate span of a clock's real→local mapping. Segment `k`
/// spans real time `[k·len, (k+1)·len)`, `len` being the clock's segment
/// length, so its real bounds are derived rather than stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Segment {
    /// Local reading at the segment's real start.
    local_start: u64,
    /// Local reading at the segment's real end, computed once when the
    /// segment is generated.
    local_end: u64,
    /// Rate over this segment.
    rate: Rate,
}

impl Segment {
    /// A segment whose end lies past the `u64` clock ends at `u64::MAX`: it
    /// then covers every reading the clock can take. A drift-free clock's
    /// single segment is half the clock long, so an offset past the other
    /// half gets there.
    fn new(local_start: u64, rate: Rate, len: u64) -> Self {
        Self {
            local_start,
            local_end: local_start.saturating_add(rate.local_elapsed(len)),
            rate,
        }
    }
}

/// A node's clock: a monotone map from real time to local time with bounded
/// drift rate, per the paper's system model (Eq. 1).
///
/// The map is piecewise linear with exact rational slopes, generated lazily
/// from a [`DriftModel`] as the simulation advances; evaluation uses exact
/// integer arithmetic (`u64` when the product fits, `u128` otherwise), so
/// two runs with the same seed order events identically on every platform.
///
/// Clocks of different nodes may have arbitrary offsets (the `offset`
/// argument is the local reading at real time zero) and drift rates that
/// change over time in magnitude and sign — exactly the adversary admitted
/// by Assumption 1.
///
/// # Examples
///
/// ```
/// use mmhew_time::{DriftedClock, DriftModel, LocalTime, Rate, RealTime};
/// use mmhew_util::SeedTree;
///
/// // A clock running fast at the paper's drift limit 1/7.
/// let mut clock = DriftedClock::new(
///     DriftModel::Constant(Rate::new(8, 7)),
///     LocalTime::from_nanos(1_000),
///     SeedTree::new(0),
/// );
/// assert_eq!(clock.local_at(RealTime::ZERO), LocalTime::from_nanos(1_000));
/// assert_eq!(
///     clock.local_at(RealTime::from_nanos(7_000)),
///     LocalTime::from_nanos(9_000),
/// );
/// // Inverse: earliest real instant at which the clock reads ≥ 9_000.
/// assert_eq!(
///     clock.real_when_local_reaches(LocalTime::from_nanos(9_000)),
///     RealTime::from_nanos(7_000),
/// );
/// ```
#[derive(Debug, Clone)]
pub struct DriftedClock {
    model: DriftModel,
    seed: SeedTree,
    /// Real-time length of every segment, `model.segment_len()`.
    len: u64,
    segments: Vec<Segment>,
}

impl DriftedClock {
    /// Creates a clock that reads `offset` at real time zero and follows
    /// `model` thereafter. `seed` drives any randomness in the model.
    pub fn new(model: DriftModel, offset: LocalTime, seed: SeedTree) -> Self {
        let len = model.segment_len().as_nanos();
        let first = Segment::new(offset.as_nanos(), model.segment_rate(0, seed), len);
        Self {
            model,
            seed,
            len,
            segments: vec![first],
        }
    }

    /// Convenience constructor for an ideal (drift-free) clock.
    pub fn ideal(offset: LocalTime) -> Self {
        Self::new(DriftModel::Ideal, offset, SeedTree::new(0))
    }

    /// The drift model driving this clock.
    pub fn model(&self) -> &DriftModel {
        &self.model
    }

    /// Local reading at real time zero.
    pub fn offset(&self) -> LocalTime {
        LocalTime::from_nanos(self.segments[0].local_start)
    }

    /// The clock's reading at real time `real`.
    pub fn local_at(&mut self, real: RealTime) -> LocalTime {
        let r = real.as_nanos();
        let (k, within) = (r / self.len, r % self.len);
        while self.segments.len() as u64 <= k {
            self.push_segment();
        }
        let seg = &self.segments[k as usize];
        LocalTime::from_nanos(seg.local_start + seg.rate.local_elapsed(within))
    }

    /// The earliest real instant at which the clock reads at least `local`.
    ///
    /// Local readings before the clock's initial offset map to
    /// [`RealTime::ZERO`].
    pub fn real_when_local_reaches(&mut self, local: LocalTime) -> RealTime {
        let l = local.as_nanos();
        if l <= self.segments[0].local_start {
            return RealTime::ZERO;
        }
        while self.last().local_end < l {
            self.push_segment();
        }
        // The first segment whose end reaches l (ends never decrease); the
        // last segment's end reaches it, so the index is in range.
        let k = self.segments.partition_point(|seg| seg.local_end < l);
        let seg = &self.segments[k];
        debug_assert!(seg.local_start < l || k == 0);
        let within = seg.rate.real_elapsed_to_reach(l - seg.local_start);
        RealTime::from_nanos(k as u64 * self.len + within.min(self.len))
    }

    /// True if every rate generated so far respects `bound` — used by the
    /// engine to validate model configuration against Assumption 1.
    pub fn rates_within(&self, bound: DriftBound) -> bool {
        self.segments.iter().all(|s| bound.admits(s.rate))
    }

    /// Number of constant-rate segments materialized so far (diagnostics).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    fn last(&self) -> &Segment {
        self.segments.last().expect("at least one segment")
    }

    fn push_segment(&mut self) {
        let index = self.segments.len() as u64;
        let rate = self.model.segment_rate(index, self.seed);
        let next = Segment::new(self.last().local_end, rate, self.len);
        self.segments.push(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::duration::{LocalDuration, RealDuration, RealInterval};
    use crate::frame::{FrameSchedule, SLOTS_PER_FRAME};
    use rand::Rng;

    fn lt(ns: u64) -> LocalTime {
        LocalTime::from_nanos(ns)
    }

    fn rt(ns: u64) -> RealTime {
        RealTime::from_nanos(ns)
    }

    #[test]
    fn ideal_clock_is_identity_plus_offset() {
        let mut c = DriftedClock::ideal(lt(500));
        assert_eq!(c.local_at(rt(0)), lt(500));
        assert_eq!(c.local_at(rt(123)), lt(623));
        assert_eq!(c.real_when_local_reaches(lt(623)), rt(123));
        assert_eq!(c.real_when_local_reaches(lt(500)), rt(0));
        assert_eq!(c.real_when_local_reaches(lt(10)), rt(0), "before offset");
    }

    #[test]
    fn slow_clock() {
        let mut c = DriftedClock::new(
            DriftModel::Constant(Rate::new(6, 7)),
            lt(0),
            SeedTree::new(0),
        );
        assert_eq!(c.local_at(rt(7_000)), lt(6_000));
        assert_eq!(c.real_when_local_reaches(lt(6_000)), rt(7_000));
    }

    #[test]
    fn alternating_clock_crosses_segments() {
        let period = RealDuration::from_nanos(700);
        let model = DriftModel::Alternating {
            first: Rate::new(8, 7),
            second: Rate::new(6, 7),
            period,
        };
        let mut c = DriftedClock::new(model, lt(0), SeedTree::new(0));
        // Segment 0: 700 real ns at 8/7 -> 800 local ns.
        assert_eq!(c.local_at(rt(700)), lt(800));
        // Segment 1: next 700 real ns at 6/7 -> +600 local ns.
        assert_eq!(c.local_at(rt(1_400)), lt(1_400));
        // Inverse across the boundary.
        assert_eq!(c.real_when_local_reaches(lt(800)), rt(700));
        assert_eq!(c.real_when_local_reaches(lt(1_400)), rt(1_400));
        // Mid-segment inverse.
        assert_eq!(c.real_when_local_reaches(lt(1_100)), rt(1_050));
        assert!(c.segment_count() >= 2);
    }

    #[test]
    fn monotone_over_random_model() {
        let model = DriftModel::RandomPiecewise {
            bound: DriftBound::PAPER,
            segment: RealDuration::from_nanos(1_000),
        };
        let mut c = DriftedClock::new(model, lt(42), SeedTree::new(9));
        let mut prev = c.local_at(rt(0));
        for step in 1..5_000u64 {
            let now = c.local_at(rt(step * 37));
            assert!(now >= prev, "clock went backwards at step {step}");
            prev = now;
        }
    }

    #[test]
    fn drift_bound_holds_over_long_spans() {
        let model = DriftModel::RandomPiecewise {
            bound: DriftBound::PAPER,
            segment: RealDuration::from_nanos(10_000),
        };
        let mut c = DriftedClock::new(model, lt(0), SeedTree::new(4));
        let horizon = 2_000_000u64;
        let l0 = c.local_at(rt(0)).as_nanos();
        let l1 = c.local_at(rt(horizon)).as_nanos();
        let elapsed = l1 - l0;
        // (1-δ)Δt ≤ ΔC ≤ (1+δ)Δt with δ=1/7, allowing floor slack per segment.
        let segments = c.segment_count() as u64;
        let lo = horizon * 6 / 7 - segments;
        let hi = horizon * 8 / 7 + segments;
        assert!(
            (lo..=hi).contains(&elapsed),
            "elapsed {elapsed} outside [{lo}, {hi}]"
        );
        assert!(c.rates_within(DriftBound::PAPER));
    }

    #[test]
    fn inverse_is_least_preimage_across_random_segments() {
        let model = DriftModel::RandomPiecewise {
            bound: DriftBound::PAPER,
            segment: RealDuration::from_nanos(997),
        };
        let mut c = DriftedClock::new(model, lt(10), SeedTree::new(13));
        for target in (11..40_000u64).step_by(509) {
            let r = c.real_when_local_reaches(lt(target));
            assert!(c.local_at(r) >= lt(target), "local_at({r:?}) < {target}");
            if r.as_nanos() > 0 {
                let before = c.local_at(rt(r.as_nanos() - 1));
                assert!(
                    before < lt(target),
                    "real {r:?} not minimal for local {target}"
                );
            }
        }
    }

    #[test]
    fn rates_within_detects_violation() {
        let c = DriftedClock::new(
            DriftModel::Constant(Rate::new(6, 5)), // drift 1/5 > 1/7
            lt(0),
            SeedTree::new(0),
        );
        assert!(!c.rates_within(DriftBound::PAPER));
        assert!(c.rates_within(DriftBound::new(1, 5)));
    }

    #[test]
    fn clone_preserves_behaviour() {
        let model = DriftModel::RandomPiecewise {
            bound: DriftBound::PAPER,
            segment: RealDuration::from_nanos(500),
        };
        let mut a = DriftedClock::new(model, lt(0), SeedTree::new(21));
        let mut b = a.clone();
        for step in 0..100u64 {
            assert_eq!(a.local_at(rt(step * 333)), b.local_at(rt(step * 333)));
        }
    }

    /// Brute-force clock: walks the segments from zero on every query and
    /// recomputes each segment end in `u128`.
    struct Reference {
        offset: u64,
        len: u64,
        rates: Vec<Rate>,
        model: DriftModel,
        seed: SeedTree,
    }

    impl Reference {
        fn new(model: &DriftModel, offset: u64, seed: SeedTree) -> Self {
            Self {
                offset,
                len: model.segment_len().as_nanos(),
                rates: Vec::new(),
                model: model.clone(),
                seed,
            }
        }

        fn elapsed(rate: Rate, real: u64) -> u64 {
            (real as u128 * rate.num() as u128 / rate.den() as u128) as u64
        }

        fn reach(rate: Rate, local: u64) -> u64 {
            (local as u128 * rate.den() as u128).div_ceil(rate.num() as u128) as u64
        }

        fn rate(&mut self, k: usize) -> Rate {
            while self.rates.len() <= k {
                let index = self.rates.len() as u64;
                self.rates.push(self.model.segment_rate(index, self.seed));
            }
            self.rates[k]
        }

        fn local_at(&mut self, real: u64) -> u64 {
            let mut start = self.offset;
            for k in 0.. {
                let rate = self.rate(k);
                let real_start = k as u64 * self.len;
                if real - real_start < self.len {
                    return start + Self::elapsed(rate, real - real_start);
                }
                start += Self::elapsed(rate, self.len);
            }
            unreachable!()
        }

        fn real_when_local_reaches(&mut self, local: u64) -> u64 {
            if local <= self.offset {
                return 0;
            }
            let mut start = self.offset;
            for k in 0.. {
                let rate = self.rate(k);
                let end = start + Self::elapsed(rate, self.len);
                if end >= local {
                    let within = Self::reach(rate, local - start).min(self.len);
                    return k as u64 * self.len + within;
                }
                start = end;
            }
            unreachable!()
        }

        fn interval(&mut self, (from, to): (LocalTime, LocalTime)) -> RealInterval {
            RealInterval::new(
                rt(self.real_when_local_reaches(from.as_nanos())),
                rt(self.real_when_local_reaches(to.as_nanos())),
            )
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Query {
        LocalAt(u64),
        Reaches(u64),
        Frame(u64),
        Slot(u64, u64),
    }

    /// A seeded random drift model and the real-time horizon its queries
    /// span (a few hundred segments, or a wide range for one-segment
    /// models).
    fn random_model(rng: &mut impl Rng, family: u64) -> (DriftModel, u64) {
        let len = if rng.gen_bool(0.5) {
            rng.gen_range(1..=20u64)
        } else {
            rng.gen_range(1..=20_000u64)
        };
        let piecewise = |num, den| DriftModel::RandomPiecewise {
            bound: DriftBound::new(num, den),
            segment: RealDuration::from_nanos(len),
        };
        let model = match family {
            0 => DriftModel::Ideal,
            1 => DriftModel::Constant(Rate::new(8, 7)),
            2 => DriftModel::Constant(Rate::new(6, 7)),
            3 => DriftModel::Constant(Rate::new(1_000_001, 1_000_000)),
            4 => DriftModel::Alternating {
                first: Rate::new(8, 7),
                second: Rate::new(6, 7),
                period: RealDuration::from_nanos(len),
            },
            5 => piecewise(1, 100),
            6 => piecewise(1, 7),
            _ => piecewise(1, 2),
        };
        let horizon = match family {
            0..=3 => 1 << rng.gen_range(10..=62u64),
            _ => len * rng.gen_range(1..=300u64),
        };
        (model, horizon)
    }

    #[test]
    fn reference_model_matches_the_clock_in_any_query_order() {
        let mut rng = SeedTree::new(0x5eed).branch("clock-reference").rng();
        for case in 0..400u64 {
            let (model, horizon) = random_model(&mut rng, case % 8);
            let seed = SeedTree::new(case);
            let offset = rng.gen_range(0..=horizon);
            let mut reference = Reference::new(&model, offset, seed);
            let slot_len = rng.gen_range(1..=(horizon / 60).max(1));
            let sched = FrameSchedule::new(
                lt(offset + rng.gen_range(0..=horizon / 4)),
                LocalDuration::from_nanos(slot_len * SLOTS_PER_FRAME),
            );
            let frames = (horizon / 2 / (slot_len * SLOTS_PER_FRAME)).max(1);
            let frame_bounds =
                |f: u64| (sched.frame_start_local(f), sched.frame_start_local(f + 1));
            let slot_bounds = |f: u64, k: u64| {
                let end = if k + 1 == SLOTS_PER_FRAME {
                    sched.frame_start_local(f + 1)
                } else {
                    sched.slot_start_local(f, k + 1)
                };
                (sched.slot_start_local(f, k), end)
            };
            let mut queries: Vec<Query> = (0..60)
                .map(|_| match rng.gen_range(0..4u64) {
                    0 => Query::LocalAt(rng.gen_range(0..=horizon)),
                    1 => Query::Reaches(rng.gen_range(0..=offset + horizon)),
                    2 => Query::Frame(rng.gen_range(0..frames)),
                    _ => Query::Slot(rng.gen_range(0..frames), rng.gen_range(0..SLOTS_PER_FRAME)),
                })
                .collect();
            // Increasing, decreasing, then random order, each on a fresh
            // clock: answers must not depend on which segments exist yet.
            let key = |q: &Query, reference: &mut Reference| match *q {
                Query::LocalAt(r) => r,
                Query::Reaches(l) => reference.real_when_local_reaches(l),
                Query::Frame(f) | Query::Slot(f, _) => {
                    reference.real_when_local_reaches(sched.frame_start_local(f).as_nanos())
                }
            };
            let mut keyed: Vec<(u64, Query)> = queries
                .iter()
                .map(|q| (key(q, &mut reference), *q))
                .collect();
            keyed.sort_by_key(|&(k, _)| k);
            let increasing: Vec<Query> = keyed.iter().map(|&(_, q)| q).collect();
            let decreasing: Vec<Query> = increasing.iter().rev().copied().collect();
            for i in (1..queries.len()).rev() {
                queries.swap(i, rng.gen_range(0..=i as u64) as usize);
            }
            for order in [increasing, decreasing, queries] {
                let mut clock = DriftedClock::new(model.clone(), lt(offset), seed);
                for q in order {
                    let context = format!("case {case} {model:?} offset {offset} {q:?}");
                    match q {
                        Query::LocalAt(r) => assert_eq!(
                            clock.local_at(rt(r)),
                            lt(reference.local_at(r)),
                            "{context}"
                        ),
                        Query::Reaches(l) => assert_eq!(
                            clock.real_when_local_reaches(lt(l)),
                            rt(reference.real_when_local_reaches(l)),
                            "{context}"
                        ),
                        Query::Frame(f) => {
                            let frame = sched.frame_interval(f, &mut clock);
                            assert_eq!(frame, reference.interval(frame_bounds(f)), "{context}");
                            let slots = sched.slot_intervals(f, frame, &mut clock);
                            for (k, slot) in (0..).zip(slots) {
                                let want = reference.interval(slot_bounds(f, k));
                                assert_eq!(slot, want, "{context} slot {k}");
                            }
                        }
                        Query::Slot(f, k) => assert_eq!(
                            sched.slot_interval(f, k, &mut clock),
                            reference.interval(slot_bounds(f, k)),
                            "{context}"
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn reference_model_rate_paths_agree_at_the_u64_edge() {
        // u64::MAX = 3 · (u64::MAX / 3) and 2^64 = 2 · 2^63: these products
        // land exactly on u64::MAX (the u64 path) and one past it (the
        // u128 path).
        let third = u64::MAX / 3;
        let half = 1u64 << 63;
        let elapsed = [
            (Rate::new(3, 5), third),
            (Rate::new(2, 3), half),
            (Rate::new(2, 3), half - 1),
            (Rate::new(u64::MAX, u64::MAX - 1), 1),
            (Rate::new(1 << 32, (1 << 32) + 1), 1 << 32),
        ];
        for (rate, real) in elapsed {
            assert_eq!(
                rate.local_elapsed(real),
                Reference::elapsed(rate, real),
                "{rate} over {real}"
            );
        }
        let reach = [
            (Rate::new(5, 3), third),
            (Rate::new(3, 2), half),
            (Rate::new(3, 2), half - 1),
            (Rate::new(u64::MAX - 1, u64::MAX), 1),
            (Rate::new((1 << 32) + 1, 1 << 32), 1 << 32),
        ];
        for (rate, local) in reach {
            assert_eq!(
                rate.real_elapsed_to_reach(local),
                Reference::reach(rate, local),
                "{rate} to {local}"
            );
        }
    }
}
