//! Algorithm 2: synchronous discovery with identical start times and *no*
//! knowledge of the maximum node degree.
//!
//! Starting from an estimate `d = 2`, the node repeatedly executes one
//! stage of Algorithm 1 with `Δ_est = d`, then increments `d` (the
//! sequential-estimate technique of Nakano–Olariu \[24\] rather than
//! geometric doubling, because computing how long to dwell on one estimate
//! would require knowing `N`, `S` and `ρ`). Once `d ≥ Δ`, every stage
//! contains a slot satisfying Eq. 2, and the analysis of Algorithm 1
//! applies.
//!
//! Theorem 2: completes within `O(M log M)` slots w.p. ≥ 1−ε, where
//! `M = (16·max(S,Δ)/ρ)·ln(N²/ε)`.

use crate::params::{ceil_log2, tx_probability, ProtocolError};
use mmhew_engine::{NeighborTable, SyncProtocol};
use mmhew_obs::ProtocolPhase;
use mmhew_radio::{Beacon, SlotAction};
use mmhew_spectrum::{ChannelId, ChannelList, ChannelSet};
use mmhew_util::Xoshiro256StarStar;
use rand::Rng;
use serde::Serialize;

/// How Algorithm 2 grows its degree estimate between stages.
///
/// The paper uses [`GrowthStrategy::IncrementByOne`] (after Nakano–Olariu
/// \[24\]) and explicitly rejects geometric doubling, because choosing how
/// long to dwell on each doubled estimate requires knowing `N`, `S` and
/// `ρ`. [`GrowthStrategy::Double`] implements the rejected scheme with a
/// fixed dwell so experiment E17 can measure what that rejection costs or
/// saves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize)]
pub enum GrowthStrategy {
    /// The paper's scheme: `d ← d + 1` after every stage.
    #[default]
    IncrementByOne,
    /// The rejected alternative: run `dwell` stages at each estimate, then
    /// `d ← 2d`.
    Double {
        /// Stages spent at each estimate before doubling.
        dwell: u64,
    },
}

/// Per-node state of Algorithm 2.
///
/// # Examples
///
/// ```
/// use mmhew_discovery::AdaptiveDiscovery;
///
/// let proto = AdaptiveDiscovery::new([0u16, 5].into_iter().collect())?;
/// assert_eq!(proto.current_estimate(), 2);
/// # Ok::<(), mmhew_discovery::ProtocolError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveDiscovery {
    available: ChannelSet,
    /// `A(u)` listed once, for the per-slot channel draw.
    channels: ChannelList,
    /// Current degree estimate `d` (Algorithm 2 line 1: starts at 2).
    estimate: u64,
    /// 0-based slot position within the current stage.
    pos: u64,
    /// Stages completed at the current estimate (for `Double` dwell).
    stages_at_estimate: u64,
    strategy: GrowthStrategy,
    table: NeighborTable,
}

impl AdaptiveDiscovery {
    /// Creates the protocol for a node with available channel set
    /// `available`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::EmptyChannelSet`] if `available` is empty.
    pub fn new(available: ChannelSet) -> Result<Self, ProtocolError> {
        Self::with_strategy(available, GrowthStrategy::IncrementByOne)
    }

    /// Creates the protocol with an explicit estimate-growth strategy
    /// (ablation use; the paper's algorithm is [`AdaptiveDiscovery::new`]).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::EmptyChannelSet`] if `available` is empty,
    /// or [`ProtocolError::ZeroDegreeEstimate`] for a zero dwell.
    pub fn with_strategy(
        available: ChannelSet,
        strategy: GrowthStrategy,
    ) -> Result<Self, ProtocolError> {
        if available.is_empty() {
            return Err(ProtocolError::EmptyChannelSet);
        }
        if let GrowthStrategy::Double { dwell: 0 } = strategy {
            return Err(ProtocolError::ZeroDegreeEstimate);
        }
        Ok(Self {
            channels: ChannelList::new(available.view()),
            available,
            estimate: 2,
            pos: 0,
            stages_at_estimate: 0,
            strategy,
            table: NeighborTable::new(),
        })
    }

    /// The current degree estimate `d`.
    pub fn current_estimate(&self) -> u64 {
        self.estimate
    }

    /// Length of the current stage, `⌈log₂ d⌉` (≥ 1).
    pub fn current_stage_len(&self) -> u64 {
        ceil_log2(self.estimate).max(1)
    }
}

impl SyncProtocol for AdaptiveDiscovery {
    /// The estimate machinery advances on slot count alone, so the stream
    /// is beacon-independent, and the node never terminates.
    fn next_transmission_bound(&self, now: u64) -> Option<u64> {
        Some(now)
    }

    fn on_slot(&mut self, _active_slot: u64, rng: &mut Xoshiro256StarStar) -> SlotAction {
        let i = self.pos + 1; // 1-based slot within the stage
        let p = tx_probability(self.available.view(), (2.0f64).powi(i as i32));
        let channel = self
            .channels
            .choose_uniform(rng)
            .expect("validated non-empty");
        // Advance the stage machinery.
        self.pos += 1;
        if self.pos == self.current_stage_len() {
            self.pos = 0;
            self.stages_at_estimate += 1;
            match self.strategy {
                GrowthStrategy::IncrementByOne => {
                    self.estimate += 1;
                    self.stages_at_estimate = 0;
                }
                GrowthStrategy::Double { dwell } => {
                    if self.stages_at_estimate >= dwell {
                        self.estimate = self.estimate.saturating_mul(2);
                        self.stages_at_estimate = 0;
                    }
                }
            }
        }
        if rng.gen_bool(p) {
            SlotAction::Transmit { channel }
        } else {
            SlotAction::Listen { channel }
        }
    }

    fn on_beacon(&mut self, beacon: &Beacon, _channel: ChannelId) {
        self.table.record(
            beacon.sender(),
            beacon.available().intersection(&self.available),
        );
    }

    fn table(&self) -> &NeighborTable {
        &self.table
    }

    fn phase(&self) -> Option<ProtocolPhase> {
        Some(ProtocolPhase::Estimate(self.estimate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmhew_util::SeedTree;

    fn proto(channels: u16) -> AdaptiveDiscovery {
        AdaptiveDiscovery::new(ChannelSet::full(channels)).expect("valid")
    }

    #[test]
    fn empty_set_rejected() {
        assert!(matches!(
            AdaptiveDiscovery::new(ChannelSet::new()),
            Err(ProtocolError::EmptyChannelSet)
        ));
    }

    #[test]
    fn estimate_advances_after_each_stage() {
        let mut p = proto(2);
        let mut rng = SeedTree::new(0).rng();
        // d=2 -> stage length 1; d=3,4 -> 2; d=5..8 -> 3; ...
        let mut estimates = Vec::new();
        for slot in 0..11 {
            estimates.push(p.current_estimate());
            let _ = p.on_slot(slot, &mut rng);
        }
        assert_eq!(estimates, vec![2, 3, 3, 4, 4, 5, 5, 5, 6, 6, 6]);
    }

    #[test]
    fn stage_lengths_track_estimate() {
        let mut p = proto(2);
        assert_eq!(p.current_stage_len(), 1); // d=2
        p.estimate = 3;
        assert_eq!(p.current_stage_len(), 2);
        p.estimate = 9;
        assert_eq!(p.current_stage_len(), 4);
    }

    #[test]
    fn total_slots_to_reach_estimate_matches_sum_of_logs() {
        let mut p = proto(1);
        let mut rng = SeedTree::new(1).rng();
        let mut slots = 0u64;
        while p.current_estimate() < 20 {
            let _ = p.on_slot(slots, &mut rng);
            slots += 1;
        }
        let expected: u64 = (2..20u64).map(|d| ceil_log2(d).max(1)).sum();
        assert_eq!(slots, expected);
    }

    #[test]
    fn first_slot_probability_is_half_of_a_over_two() {
        // In slot 1 of every stage, p = min(1/2, |A|/2): with |A| = 1 that
        // is 1/2.
        let mut p = proto(1);
        let mut rng = SeedTree::new(2).rng();
        let mut first_slot_txs = 0u32;
        let mut first_slots = 0u32;
        for slot in 0..20_000 {
            let at_stage_start = p.pos == 0;
            let a = p.on_slot(slot, &mut rng);
            if at_stage_start {
                first_slots += 1;
                if a.is_transmit() {
                    first_slot_txs += 1;
                }
            }
        }
        let rate = first_slot_txs as f64 / first_slots as f64;
        assert!((rate - 0.5).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn late_stage_probabilities_decay() {
        // Drive the estimate high, then check the last slot of a stage has
        // a small transmit probability empirically.
        let mut p = proto(1);
        p.estimate = 1 << 10; // stage length 10, last slot p = 1/1024
        p.pos = 9;
        let mut rng = SeedTree::new(3).rng();
        let mut tx = 0u32;
        for _ in 0..10_000 {
            // Reset to the last slot of the same stage each iteration.
            p.estimate = 1 << 10;
            p.pos = 9;
            if p.on_slot(0, &mut rng).is_transmit() {
                tx += 1;
            }
        }
        let rate = tx as f64 / 10_000.0;
        assert!(rate < 0.005, "rate {rate} should be near 1/1024");
    }

    #[test]
    fn doubling_strategy_grows_geometrically() {
        let mut p = AdaptiveDiscovery::with_strategy(
            ChannelSet::full(2),
            GrowthStrategy::Double { dwell: 1 },
        )
        .expect("valid");
        let mut rng = SeedTree::new(5).rng();
        let mut estimates = vec![p.current_estimate()];
        for slot in 0..40 {
            let _ = p.on_slot(slot, &mut rng);
            if *estimates.last().expect("non-empty") != p.current_estimate() {
                estimates.push(p.current_estimate());
            }
        }
        assert!(estimates.starts_with(&[2, 4, 8, 16]), "{estimates:?}");
    }

    #[test]
    fn doubling_strategy_respects_dwell() {
        let mut p = AdaptiveDiscovery::with_strategy(
            ChannelSet::full(2),
            GrowthStrategy::Double { dwell: 3 },
        )
        .expect("valid");
        let mut rng = SeedTree::new(6).rng();
        // d=2 has stage length 1: three stages of one slot each pass
        // before doubling.
        for slot in 0..3 {
            assert_eq!(p.current_estimate(), 2, "slot {slot}");
            let _ = p.on_slot(slot, &mut rng);
        }
        assert_eq!(p.current_estimate(), 4);
    }

    #[test]
    fn zero_dwell_rejected() {
        assert_eq!(
            AdaptiveDiscovery::with_strategy(
                ChannelSet::full(1),
                GrowthStrategy::Double { dwell: 0 },
            )
            .err(),
            Some(ProtocolError::ZeroDegreeEstimate)
        );
    }

    #[test]
    fn phase_tracks_estimate() {
        let mut p = proto(2);
        assert_eq!(p.phase(), Some(ProtocolPhase::Estimate(2)));
        let mut rng = SeedTree::new(7).rng();
        // d=2 has a one-slot stage: one slot advances the estimate to 3.
        let _ = p.on_slot(0, &mut rng);
        assert_eq!(p.phase(), Some(ProtocolPhase::Estimate(3)));
    }

    #[test]
    fn beacon_recording() {
        let mut p = proto(2);
        let beacon = Beacon::new(mmhew_topology::NodeId::new(4), ChannelSet::full(8));
        p.on_beacon(&beacon, ChannelId::new(0));
        assert_eq!(
            p.table().get(mmhew_topology::NodeId::new(4)),
            Some(&ChannelSet::full(2))
        );
    }
}
