//! Nihao-style grid schedules (after the "talk more, listen less" family
//! of arXiv:1411.5415).
//!
//! A node walks an `rows × cols` grid, one slot per cell, column by
//! column. Writing `s' = s + φ` for the phase-shifted slot counter
//! (`φ` = node id):
//!
//! * column `0` of every row → **transmit** on `A[(s'/cols) mod |A|]`
//!   (the beacon channel advances one step per row),
//! * the rest of row `0` → **listen** on `A[(s'/(rows·cols)) mod |A|]`
//!   (one receive channel per grid pass),
//! * every other cell → transceiver off.
//!
//! Transmissions are thus `cols`-periodic and cheap, listening is a
//! `1/rows` fraction of slots — "talk more, listen less". The duty cycle
//! is `1/cols + (cols-1)/(rows·cols)`, so per-node heterogeneity is the
//! pair `(rows, cols)`: `S-Nihao` gives every node the same grid,
//! `A-Nihao` assigns different `rows` classes by node.
//!
//! Two deterministic failure modes are inherent to the construction and
//! documented rather than papered over (DESIGN.md §15): (1) a node never
//! listens in its own transmit column, so two nodes whose phases agree
//! modulo `cols` are mutually deaf — the catalog uses `cols = 16` and
//! `φ` = node id, which is collision-free for networks of up to 16 nodes;
//! (2) like Mc-Dis, channel alignment across co-active slots is
//! stride-driven: guaranteed on full availability with a prime universe
//! when `rows ≢ 1 (mod |A|)` (the catalog rows classes 2/8/12 satisfy
//! this for sizes 3 and 5), best-effort under heterogeneous subsets,
//! where misses show up as budget-exhausted failures in E27/E28.
//!
//! The schedule ignores receptions and never terminates, so
//! [`SyncProtocol::next_transmission_bound`] admits it to the event
//! executor.

use mmhew_discovery::ProtocolError;
use mmhew_engine::{NeighborTable, SyncProtocol};
use mmhew_obs::ProtocolPhase;
use mmhew_radio::{Beacon, SlotAction};
use mmhew_spectrum::{ChannelId, ChannelSet};
use mmhew_util::Xoshiro256StarStar;

/// Per-node state of a Nihao grid schedule.
///
/// # Examples
///
/// ```
/// use mmhew_rivals::NihaoDiscovery;
/// use mmhew_spectrum::ChannelSet;
///
/// let proto = NihaoDiscovery::new(ChannelSet::full(5), 8, 16, 0)?;
/// assert!((proto.duty() - (1.0 / 16.0 + 15.0 / 128.0)).abs() < 1e-12);
/// # Ok::<(), mmhew_discovery::ProtocolError>(())
/// ```
#[derive(Debug, Clone)]
pub struct NihaoDiscovery {
    channels: Vec<ChannelId>,
    available: ChannelSet,
    rows: u64,
    cols: u64,
    phase: u64,
    grid: u64,
    table: NeighborTable,
}

impl NihaoDiscovery {
    /// Creates the schedule for one node; `node_id` becomes the phase
    /// shift `φ`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::EmptyChannelSet`] if `available` is empty.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0` or `cols < 2` (with one column every slot
    /// would transmit and the schedule could never listen).
    pub fn new(
        available: ChannelSet,
        rows: u64,
        cols: u64,
        node_id: u32,
    ) -> Result<Self, ProtocolError> {
        assert!(rows >= 1, "grid needs at least one row");
        assert!(cols >= 2, "grid needs at least two columns");
        if available.is_empty() {
            return Err(ProtocolError::EmptyChannelSet);
        }
        let channels: Vec<ChannelId> = available.iter().collect();
        Ok(Self {
            channels,
            available,
            rows,
            cols,
            phase: u64::from(node_id),
            grid: 0,
            table: NeighborTable::new(),
        })
    }

    /// The node's duty cycle.
    pub fn duty(&self) -> f64 {
        let r = self.rows as f64;
        let c = self.cols as f64;
        1.0 / c + (c - 1.0) / (r * c)
    }
}

impl SyncProtocol for NihaoDiscovery {
    fn on_slot(&mut self, active_slot: u64, _rng: &mut Xoshiro256StarStar) -> SlotAction {
        let s = active_slot.wrapping_add(self.phase);
        let m = self.channels.len() as u64;
        self.grid = s / (self.rows * self.cols);
        let col = s % self.cols;
        let row = (s / self.cols) % self.rows;
        if col == 0 {
            let idx = (s / self.cols) % m;
            SlotAction::Transmit {
                channel: self.channels[idx as usize],
            }
        } else if row == 0 {
            let idx = (s / (self.rows * self.cols)) % m;
            SlotAction::Listen {
                channel: self.channels[idx as usize],
            }
        } else {
            SlotAction::Quiet
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

    fn next_transmission_bound(&self, now: u64) -> Option<u64> {
        Some(now)
    }

    fn phase(&self) -> Option<ProtocolPhase> {
        Some(ProtocolPhase::Stage(self.grid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmhew_util::Xoshiro256StarStar;

    fn proto(rows: u64, cols: u64, id: u32) -> NihaoDiscovery {
        NihaoDiscovery::new(ChannelSet::full(5), rows, cols, id).expect("valid")
    }

    #[test]
    fn grid_shape_governs_the_action_pattern() {
        let mut p = proto(4, 8, 0);
        let mut rng = Xoshiro256StarStar::from_seed_u64(1);
        for s in 0..(4 * 8 * 20) {
            let action = p.on_slot(s, &mut rng);
            let col = s % 8;
            let row = (s / 8) % 4;
            match action {
                SlotAction::Transmit { .. } => assert_eq!(col, 0, "slot {s}"),
                SlotAction::Listen { .. } => {
                    assert!(col != 0 && row == 0, "slot {s}")
                }
                SlotAction::Quiet => assert!(col != 0 && row != 0, "slot {s}"),
            }
        }
    }

    #[test]
    fn listen_channel_is_constant_within_a_grid_pass() {
        let mut p = proto(4, 8, 0);
        let mut rng = Xoshiro256StarStar::from_seed_u64(1);
        for pass in 0..10 {
            let mut seen = None;
            for s in pass * 32..(pass + 1) * 32 {
                if let SlotAction::Listen { channel } = p.on_slot(s, &mut rng) {
                    if let Some(prev) = seen {
                        assert_eq!(prev, channel, "pass {pass}");
                    }
                    seen = Some(channel);
                }
            }
            assert!(seen.is_some(), "row 0 of pass {pass} must listen");
        }
    }

    #[test]
    fn schedule_never_leaves_the_available_set() {
        let available: ChannelSet = [0u16, 3, 4, 7].into_iter().collect();
        let mut p = NihaoDiscovery::new(available.clone(), 8, 16, 5).unwrap();
        let mut rng = Xoshiro256StarStar::from_seed_u64(1);
        for s in 0..5000 {
            match p.on_slot(s, &mut rng) {
                SlotAction::Transmit { channel } | SlotAction::Listen { channel } => {
                    assert!(available.contains(channel), "slot {s}");
                }
                SlotAction::Quiet => {}
            }
        }
    }

    #[test]
    fn duty_matches_measured_on_fraction() {
        let mut p = proto(8, 16, 0);
        let mut rng = Xoshiro256StarStar::from_seed_u64(1);
        let horizon = 8 * 16 * 100;
        let on = (0..horizon)
            .filter(|&s| !matches!(p.on_slot(s, &mut rng), SlotAction::Quiet))
            .count();
        let measured = on as f64 / horizon as f64;
        assert!((measured - p.duty()).abs() < 1e-9);
    }

    #[test]
    fn empty_channel_set_is_rejected() {
        let err = NihaoDiscovery::new(ChannelSet::new(), 4, 8, 0);
        assert!(matches!(err, Err(ProtocolError::EmptyChannelSet)));
    }
}
