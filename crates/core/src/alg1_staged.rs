//! Algorithm 1: synchronous discovery with identical start times and a
//! known upper bound on the maximum node degree.
//!
//! Execution is divided into *stages* of `⌈log₂ Δ_est⌉` slots. In slot `i`
//! of a stage (1-based), a node picks a channel uniformly from `A(u)` and
//! transmits with probability `min(1/2, |A(u)|/2^i)`, listening otherwise.
//! Sweeping the probability geometrically guarantees that, whatever the
//! true degree `Δ(u,c)`, some slot of every stage has a transmission
//! probability within a factor 2 of the optimal `1/Δ(u,c)` (Eq. 2).
//!
//! Theorem 1: completes within
//! `O((max(S,Δ)/ρ)·log Δ_est·log(N/ε))` slots w.p. ≥ 1−ε.

use crate::params::{tx_probability, ProtocolError, SyncParams};
use mmhew_engine::{NeighborTable, SyncProtocol};
use mmhew_obs::ProtocolPhase;
use mmhew_radio::{Beacon, SlotAction};
use mmhew_spectrum::{ChannelId, ChannelList, ChannelSet, ChannelSetRef};
use mmhew_util::Xoshiro256StarStar;
use rand::Rng;

/// Per-node state of Algorithm 1.
///
/// # Examples
///
/// ```
/// use mmhew_discovery::{StagedDiscovery, SyncParams};
///
/// let proto = StagedDiscovery::new(
///     [0u16, 1, 2].into_iter().collect(),
///     SyncParams::new(8)?,
/// )?;
/// # let _ = proto;
/// # Ok::<(), mmhew_discovery::ProtocolError>(())
/// ```
#[derive(Debug, Clone)]
pub struct StagedDiscovery {
    available: ChannelSet,
    /// `A(u)` listed once, for the per-slot channel draw.
    channels: ChannelList,
    /// `slot_probability(i)` for `i = 1..=stage_len`, at index `i − 1`;
    /// its length is the stage length.
    probabilities: Vec<f64>,
    table: NeighborTable,
    stage: u64,
}

impl StagedDiscovery {
    /// Creates the protocol for a node with available channel set
    /// `available`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::EmptyChannelSet`] if `available` is empty.
    pub fn new(available: ChannelSet, params: SyncParams) -> Result<Self, ProtocolError> {
        if available.is_empty() {
            return Err(ProtocolError::EmptyChannelSet);
        }
        let probabilities = (1..=params.stage_len())
            .map(|i| slot_probability(available.view(), i))
            .collect();
        Ok(Self {
            channels: ChannelList::new(available.view()),
            available,
            probabilities,
            table: NeighborTable::new(),
            stage: 0,
        })
    }

    /// The transmission probability used in slot `i` (1-based) of a stage.
    pub fn slot_probability(&self, i: u64) -> f64 {
        slot_probability(self.available.view(), i)
    }

    /// The stage length `⌈log₂ Δ_est⌉` (≥ 1).
    pub fn stage_len(&self) -> u64 {
        self.probabilities.len() as u64
    }
}

/// `min(1/2, |A(u)|/2^i)`, the probability of slot `i` (1-based) of a
/// stage (Algorithm 1 line 4).
fn slot_probability(available: ChannelSetRef<'_>, i: u64) -> f64 {
    tx_probability(available, (2.0f64).powi(i as i32))
}

impl SyncProtocol for StagedDiscovery {
    fn on_slot(&mut self, active_slot: u64, rng: &mut Xoshiro256StarStar) -> SlotAction {
        // The table is indexed by the slot's position in its stage,
        // 0-based (Algorithm 1 line 2 counts from 1).
        let stage_len = self.probabilities.len() as u64;
        self.stage = active_slot / stage_len;
        let p = self.probabilities[(active_slot % stage_len) as usize];
        let channel = self
            .channels
            .choose_uniform(rng)
            .expect("validated non-empty");
        if rng.gen_bool(p) {
            SlotAction::Transmit { channel }
        } else {
            SlotAction::Listen { channel }
        }
    }

    /// The stream is beacon-independent and the node never terminates.
    fn next_transmission_bound(&self, now: u64) -> Option<u64> {
        Some(now)
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
        Some(ProtocolPhase::Stage(self.stage))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmhew_util::SeedTree;

    fn proto(channels: u16, delta_est: u64) -> StagedDiscovery {
        StagedDiscovery::new(
            ChannelSet::full(channels),
            SyncParams::new(delta_est).expect("valid"),
        )
        .expect("valid")
    }

    #[test]
    fn empty_set_rejected() {
        assert_eq!(
            StagedDiscovery::new(ChannelSet::new(), SyncParams::new(4).expect("valid")).err(),
            Some(ProtocolError::EmptyChannelSet)
        );
    }

    #[test]
    fn slot_probabilities_sweep_geometrically() {
        // |A| = 4, Δ_est = 64 -> stage of 6 slots.
        let p = proto(4, 64);
        assert_eq!(p.stage_len(), 6);
        assert_eq!(p.slot_probability(1), 0.5); // min(1/2, 4/2)
        assert_eq!(p.slot_probability(2), 0.5); // min(1/2, 4/4)
        assert_eq!(p.slot_probability(3), 0.5); // min(1/2, 4/8)
        assert_eq!(p.slot_probability(4), 0.25); // 4/16
        assert_eq!(p.slot_probability(5), 0.125); // 4/32
        assert_eq!(p.slot_probability(6), 0.0625); // 4/64
    }

    #[test]
    fn probability_table_matches_slot_probability_bit_for_bit() {
        for delta_est in [1u64, 2, 3, 64, 2048, 1 << 40] {
            for channels in [1u16, 4, 40] {
                let p = proto(channels, delta_est);
                let stage_len = SyncParams::new(delta_est).expect("valid").stage_len();
                assert_eq!(p.stage_len(), stage_len);
                for i in 1..=stage_len {
                    assert_eq!(
                        p.probabilities[(i - 1) as usize].to_bits(),
                        p.slot_probability(i).to_bits(),
                        "Δ̂ {delta_est}, |A| {channels}, slot {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn on_slot_draws_as_the_per_slot_definition() {
        // The cached list and table must reproduce the definition: a
        // `ChannelSet::choose_uniform` draw, then a coin at
        // `slot_probability(active_slot % stage_len + 1)`.
        let available: ChannelSet = [1u16, 5, 64, 70, 129].into_iter().collect();
        let mut p = StagedDiscovery::new(available.clone(), SyncParams::new(2048).expect("valid"))
            .expect("valid");
        let (mut rng, mut want_rng) = (SeedTree::new(6).rng(), SeedTree::new(6).rng());
        for slot in 0..1_000 {
            let channel = available.choose_uniform(&mut want_rng).expect("non-empty");
            let i = slot % p.stage_len() + 1;
            let want = if want_rng.gen_bool(p.slot_probability(i)) {
                SlotAction::Transmit { channel }
            } else {
                SlotAction::Listen { channel }
            };
            assert_eq!(p.on_slot(slot, &mut rng), want, "slot {slot}");
        }
        assert_eq!(rng, want_rng);
    }

    #[test]
    fn actions_never_quiet_and_channel_in_set() {
        let mut p = proto(3, 8);
        let mut rng = SeedTree::new(1).rng();
        for slot in 0..200 {
            let a = p.on_slot(slot, &mut rng);
            let c = a.channel().expect("never quiet");
            assert!(c.index() < 3);
        }
    }

    #[test]
    fn empirical_tx_rate_matches_slot_probability() {
        // Stage length 4 (Δ_est = 16), |A| = 2:
        // probabilities: slot1 1/2, slot2 1/2, slot3 1/4, slot4 1/8.
        let mut p = proto(2, 16);
        let mut rng = SeedTree::new(2).rng();
        let trials = 40_000u64;
        let mut tx = [0u32; 4];
        for k in 0..trials {
            if p.on_slot(k, &mut rng).is_transmit() {
                tx[(k % 4) as usize] += 1;
            }
        }
        let per = trials as f64 / 4.0;
        for (i, want) in [(0usize, 0.5), (1, 0.5), (2, 0.25), (3, 0.125)] {
            let got = tx[i] as f64 / per;
            assert!(
                (got - want).abs() < 0.03,
                "slot {} rate {got}, want {want}",
                i + 1
            );
        }
    }

    #[test]
    fn channel_choice_is_uniform() {
        let mut p = proto(4, 4);
        let mut rng = SeedTree::new(3).rng();
        let mut counts = [0u32; 4];
        for k in 0..40_000 {
            let c = p.on_slot(k, &mut rng).channel().expect("never quiet");
            counts[c.index() as usize] += 1;
        }
        for &c in &counts {
            let f = c as f64 / 40_000.0;
            assert!((f - 0.25).abs() < 0.02, "channel frequency {f}");
        }
    }

    #[test]
    fn beacon_recording_intersects_with_own_set() {
        let mut p = StagedDiscovery::new(
            [0u16, 1].into_iter().collect(),
            SyncParams::new(4).expect("valid"),
        )
        .expect("valid");
        let beacon = Beacon::new(
            mmhew_topology::NodeId::new(9),
            [1u16, 2].into_iter().collect(),
        );
        p.on_beacon(&beacon, ChannelId::new(1));
        assert_eq!(
            p.table().get(mmhew_topology::NodeId::new(9)),
            Some(&[1u16].into_iter().collect())
        );
    }

    #[test]
    fn phase_reports_current_stage() {
        let mut p = proto(4, 64); // stage length 6
        assert_eq!(p.phase(), Some(ProtocolPhase::Stage(0)));
        let mut rng = SeedTree::new(5).rng();
        for slot in 0..6 {
            let _ = p.on_slot(slot, &mut rng);
        }
        assert_eq!(p.phase(), Some(ProtocolPhase::Stage(0)));
        let _ = p.on_slot(6, &mut rng);
        assert_eq!(p.phase(), Some(ProtocolPhase::Stage(1)));
    }

    #[test]
    fn delta_est_one_still_transmits() {
        // Degenerate estimate: stage of one slot, p = min(1/2, |A|/2).
        let mut p = proto(1, 1);
        let mut rng = SeedTree::new(4).rng();
        let tx = (0..10_000)
            .filter(|&k| p.on_slot(k, &mut rng).is_transmit())
            .count();
        let rate = tx as f64 / 10_000.0;
        assert!((rate - 0.5).abs() < 0.03, "rate {rate}");
    }
}
