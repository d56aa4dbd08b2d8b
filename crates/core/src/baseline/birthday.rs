//! Single-channel birthday protocol (baseline substrate).
//!
//! The classic randomized neighbor-discovery primitive for single-channel
//! networks (McGlynn–Borbash \[1\], Vasudevan et al. \[2\]): in every slot a
//! node transmits with a fixed probability `p` on one fixed channel and
//! listens otherwise. It is both a baseline in its own right (on
//! single-channel networks) and the per-channel building block of the
//! multi-channel strawman in [`crate::baseline::PerChannelBirthday`].

use crate::params::ProtocolError;
use mmhew_engine::{NeighborTable, SyncProtocol};
use mmhew_radio::{Beacon, SlotAction};
use mmhew_spectrum::{ChannelId, ChannelSet};
use mmhew_util::Xoshiro256StarStar;
use rand::Rng;

/// Per-node state of the single-channel birthday protocol.
///
/// # Examples
///
/// ```
/// use mmhew_discovery::baseline::BirthdayProtocol;
/// use mmhew_spectrum::ChannelId;
///
/// let proto = BirthdayProtocol::new(
///     ChannelId::new(0),
///     0.5,
///     [0u16].into_iter().collect(),
/// )?;
/// assert_eq!(proto.probability(), 0.5);
/// # Ok::<(), mmhew_discovery::ProtocolError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BirthdayProtocol {
    channel: ChannelId,
    probability: f64,
    available: ChannelSet,
    table: NeighborTable,
}

impl BirthdayProtocol {
    /// Creates the protocol transmitting on `channel` with probability
    /// `probability` per slot. `available` is the node's full channel set
    /// (used to compute common sets from received beacons).
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::EmptyChannelSet`] if `available` does not
    /// contain `channel`.
    ///
    /// # Panics
    ///
    /// Panics if `probability` is outside `[0, 1]`.
    pub fn new(
        channel: ChannelId,
        probability: f64,
        available: ChannelSet,
    ) -> Result<Self, ProtocolError> {
        assert!(
            (0.0..=1.0).contains(&probability),
            "probability out of range"
        );
        if !available.contains(channel) {
            return Err(ProtocolError::EmptyChannelSet);
        }
        Ok(Self {
            channel,
            probability,
            available,
            table: NeighborTable::new(),
        })
    }

    /// The per-slot transmission probability.
    pub fn probability(&self) -> f64 {
        self.probability
    }

    /// The fixed channel this instance operates on.
    pub fn channel(&self) -> ChannelId {
        self.channel
    }
}

impl SyncProtocol for BirthdayProtocol {
    fn on_slot(&mut self, _active_slot: u64, rng: &mut Xoshiro256StarStar) -> SlotAction {
        if rng.gen_bool(self.probability) {
            SlotAction::Transmit {
                channel: self.channel,
            }
        } else {
            SlotAction::Listen {
                channel: self.channel,
            }
        }
    }

    /// Memoryless per-slot coin: a beacon-independent stream.
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
    fn requires_channel_in_set() {
        assert!(matches!(
            BirthdayProtocol::new(ChannelId::new(3), 0.5, ChannelSet::full(2)),
            Err(ProtocolError::EmptyChannelSet)
        ));
        assert!(BirthdayProtocol::new(ChannelId::new(1), 0.5, ChannelSet::full(2)).is_ok());
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn invalid_probability_panics() {
        let _ = BirthdayProtocol::new(ChannelId::new(0), 1.5, ChannelSet::full(1));
    }

    #[test]
    fn always_uses_its_channel() {
        let mut p =
            BirthdayProtocol::new(ChannelId::new(2), 0.3, ChannelSet::full(4)).expect("valid");
        let mut rng = SeedTree::new(0).rng();
        for slot in 0..500 {
            assert_eq!(p.on_slot(slot, &mut rng).channel(), Some(ChannelId::new(2)));
        }
    }

    #[test]
    fn empirical_rate() {
        let mut p =
            BirthdayProtocol::new(ChannelId::new(0), 0.3, ChannelSet::full(1)).expect("valid");
        let mut rng = SeedTree::new(1).rng();
        let tx = (0..30_000)
            .filter(|&k| p.on_slot(k, &mut rng).is_transmit())
            .count();
        let rate = tx as f64 / 30_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }
}
