//! Algorithm 3: synchronous discovery with *variable* start times and a
//! known upper bound on the maximum node degree.
//!
//! The staged probability sweep of Algorithm 1 breaks when nodes start at
//! different slots (their stages misalign), so here every node uses the
//! *same* transmission probability in every slot:
//! `min(1/2, |A(u)|/Δ_est)`. Any slot after all nodes have started then
//! covers any link with probability ≥ `ρ/(8·max(2S, Δ_est))` (Eqs. 9, 4,
//! 5) regardless of alignment.
//!
//! Theorem 3: completes within `O((max(2S, Δ_est)/ρ)·log(N/ε))` slots
//! after the last start `T_s` — no `log Δ_est` stage factor, but the
//! dependence on `Δ_est` is now linear, so the bound should be good.

use crate::params::{tx_probability, ProtocolError, SyncParams};
use mmhew_engine::{NeighborTable, SyncProtocol};
use mmhew_radio::{Beacon, SlotAction};
use mmhew_spectrum::{ChannelId, ChannelList, ChannelSet};
use mmhew_util::Xoshiro256StarStar;
use rand::Rng;

/// Per-node state of Algorithm 3.
///
/// # Examples
///
/// ```
/// use mmhew_discovery::{SyncParams, UniformDiscovery};
///
/// let proto = UniformDiscovery::new(
///     [2u16, 7].into_iter().collect(),
///     SyncParams::new(6)?,
/// )?;
/// assert!((proto.probability() - 2.0 / 6.0).abs() < 1e-12);
/// # Ok::<(), mmhew_discovery::ProtocolError>(())
/// ```
#[derive(Debug, Clone)]
pub struct UniformDiscovery {
    available: ChannelSet,
    /// `A(u)` listed once, for the per-slot channel draw.
    channels: ChannelList,
    probability: f64,
    table: NeighborTable,
}

impl UniformDiscovery {
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
        let probability = tx_probability(available.view(), params.delta_est() as f64);
        Ok(Self {
            channels: ChannelList::new(available.view()),
            available,
            probability,
            table: NeighborTable::new(),
        })
    }

    /// The per-slot transmission probability `min(1/2, |A(u)|/Δ_est)`.
    pub fn probability(&self) -> f64 {
        self.probability
    }
}

impl SyncProtocol for UniformDiscovery {
    fn on_slot(&mut self, _active_slot: u64, rng: &mut Xoshiro256StarStar) -> SlotAction {
        let channel = self
            .channels
            .choose_uniform(rng)
            .expect("validated non-empty");
        if rng.gen_bool(self.probability) {
            SlotAction::Transmit { channel }
        } else {
            SlotAction::Listen { channel }
        }
    }

    /// The memoryless 1/(2ρ̂) schedule is beacon-independent and the node
    /// never terminates.
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

    fn proto(channels: u16, delta_est: u64) -> UniformDiscovery {
        UniformDiscovery::new(
            ChannelSet::full(channels),
            SyncParams::new(delta_est).expect("valid"),
        )
        .expect("valid")
    }

    #[test]
    fn probability_formula() {
        assert_eq!(proto(4, 4).probability(), 0.5); // min(1/2, 1)
        assert_eq!(proto(2, 8).probability(), 0.25);
        assert_eq!(proto(1, 100).probability(), 0.01);
        assert_eq!(proto(30, 10).probability(), 0.5);
    }

    #[test]
    fn empty_set_rejected() {
        assert!(matches!(
            UniformDiscovery::new(ChannelSet::new(), SyncParams::new(2).expect("valid")),
            Err(ProtocolError::EmptyChannelSet)
        ));
    }

    #[test]
    fn probability_is_constant_across_slots() {
        let mut p = proto(2, 16); // p = 1/8
        let mut rng = SeedTree::new(0).rng();
        // Empirical rate in the first half vs second half of a long run
        // must match (no stage structure).
        let half = 40_000u64;
        let tx1 = (0..half)
            .filter(|&k| p.on_slot(k, &mut rng).is_transmit())
            .count();
        let tx2 = (half..2 * half)
            .filter(|&k| p.on_slot(k, &mut rng).is_transmit())
            .count();
        let r1 = tx1 as f64 / half as f64;
        let r2 = tx2 as f64 / half as f64;
        assert!((r1 - 0.125).abs() < 0.01, "rate {r1}");
        assert!((r2 - 0.125).abs() < 0.01, "rate {r2}");
    }

    #[test]
    fn channel_uniformity() {
        let mut p = proto(5, 4);
        let mut rng = SeedTree::new(1).rng();
        let mut counts = [0u32; 5];
        for k in 0..50_000 {
            counts[p
                .on_slot(k, &mut rng)
                .channel()
                .expect("never quiet")
                .index() as usize] += 1;
        }
        for &c in &counts {
            let f = c as f64 / 50_000.0;
            assert!((f - 0.2).abs() < 0.02, "frequency {f}");
        }
    }

    #[test]
    fn beacon_recording() {
        let mut p = proto(3, 2);
        let beacon = Beacon::new(
            mmhew_topology::NodeId::new(1),
            [2u16, 9].into_iter().collect(),
        );
        p.on_beacon(&beacon, ChannelId::new(2));
        assert_eq!(
            p.table().get(mmhew_topology::NodeId::new(1)),
            Some(&[2u16].into_iter().collect())
        );
    }
}
