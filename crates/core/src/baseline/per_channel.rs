//! The multi-channel strawman the paper argues against (§I).
//!
//! "Execute a separate instance of a single-channel neighbor discovery
//! algorithm on all channels in the universal channel set concurrently. A
//! node only participates in instances associated with channels in its
//! available channel set." With a single half-duplex transceiver,
//! concurrency means time-multiplexing: slot `t` belongs to the instance
//! of channel `t mod |U|`.
//!
//! The paper lists three disadvantages, all reproduced by this
//! implementation and exercised in experiment E11:
//!
//! 1. all nodes must agree on the universal channel set `U`;
//! 2. running time is **linear in `|U|`** even when available sets are
//!    tiny (a node idles through slots of channels it lacks);
//! 3. all nodes must start simultaneously, or instances misalign.

use crate::params::ProtocolError;
use mmhew_engine::{NeighborTable, SyncProtocol};
use mmhew_radio::{Beacon, SlotAction};
use mmhew_spectrum::{ChannelId, ChannelSet};
use mmhew_util::Xoshiro256StarStar;
use rand::Rng;

/// Per-node state of the per-universal-channel birthday baseline.
///
/// # Examples
///
/// ```
/// use mmhew_discovery::baseline::PerChannelBirthday;
///
/// // Universe of 8 channels, node owns only two of them.
/// let proto = PerChannelBirthday::new(
///     8,
///     0.5,
///     [1u16, 6].into_iter().collect(),
/// )?;
/// # let _ = proto;
/// # Ok::<(), mmhew_discovery::ProtocolError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PerChannelBirthday {
    universe: u16,
    probability: f64,
    available: ChannelSet,
    table: NeighborTable,
}

impl PerChannelBirthday {
    /// Creates the baseline over a universal channel set of size
    /// `universe`, transmitting with probability `probability` in slots
    /// belonging to channels of `available`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::EmptyChannelSet`] if `available` is empty.
    ///
    /// # Panics
    ///
    /// Panics if `universe == 0` or `probability` is outside `[0, 1]`.
    pub fn new(
        universe: u16,
        probability: f64,
        available: ChannelSet,
    ) -> Result<Self, ProtocolError> {
        assert!(universe > 0, "universe must be non-empty");
        assert!(
            (0.0..=1.0).contains(&probability),
            "probability out of range"
        );
        if available.is_empty() {
            return Err(ProtocolError::EmptyChannelSet);
        }
        Ok(Self {
            universe,
            probability,
            available,
            table: NeighborTable::new(),
        })
    }

    /// The channel whose instance owns slot `slot`.
    pub fn slot_channel(&self, slot: u64) -> ChannelId {
        ChannelId::new((slot % self.universe as u64) as u16)
    }
}

impl SyncProtocol for PerChannelBirthday {
    fn on_slot(&mut self, active_slot: u64, rng: &mut Xoshiro256StarStar) -> SlotAction {
        let channel = self.slot_channel(active_slot);
        if !self.available.contains(channel) {
            // Disadvantage 2: the node idles through the rest of the
            // universe's schedule.
            return SlotAction::Quiet;
        }
        if rng.gen_bool(self.probability) {
            SlotAction::Transmit { channel }
        } else {
            SlotAction::Listen { channel }
        }
    }

    /// The channel rotation is a fixed function of the slot index and the
    /// transmit coin is memoryless, so the stream is beacon-independent.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmhew_util::SeedTree;

    #[test]
    fn empty_set_rejected() {
        assert!(matches!(
            PerChannelBirthday::new(4, 0.5, ChannelSet::new()),
            Err(ProtocolError::EmptyChannelSet)
        ));
    }

    #[test]
    fn idles_outside_available_channels() {
        let mut p = PerChannelBirthday::new(4, 0.5, [1u16].into_iter().collect()).expect("valid");
        let mut rng = SeedTree::new(0).rng();
        for slot in 0..40 {
            let a = p.on_slot(slot, &mut rng);
            if slot % 4 == 1 {
                assert!(a.channel() == Some(ChannelId::new(1)));
            } else {
                assert_eq!(a, SlotAction::Quiet, "slot {slot}");
            }
        }
    }

    #[test]
    fn round_robin_covers_whole_universe() {
        let p = PerChannelBirthday::new(5, 0.5, ChannelSet::full(5)).expect("valid");
        let channels: Vec<u16> = (0..5).map(|s| p.slot_channel(s).index()).collect();
        assert_eq!(channels, vec![0, 1, 2, 3, 4]);
        assert_eq!(p.slot_channel(7), ChannelId::new(2));
    }

    #[test]
    fn active_slots_use_probability() {
        let mut p = PerChannelBirthday::new(2, 0.5, ChannelSet::full(2)).expect("valid");
        let mut rng = SeedTree::new(1).rng();
        let trials = 40_000u64;
        let tx = (0..trials)
            .filter(|&k| p.on_slot(k, &mut rng).is_transmit())
            .count();
        let rate = tx as f64 / trials as f64;
        assert!((rate - 0.5).abs() < 0.01, "rate {rate}");
    }
}
