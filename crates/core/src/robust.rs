//! Loss-robust discovery: repetition-factor inflation for unreliable
//! channels.
//!
//! The paper's conclusion claims the algorithms extend to unreliable
//! channels by inflating the slot budget. This module makes that concrete:
//! [`RobustDiscovery`] wraps any [`SyncProtocol`] and *time-dilates* it by
//! a repetition factor `r` — the inner protocol's slot `t` is stretched
//! into `r` consecutive physical slots carrying the same action. Under
//! identical starts every wrapped node stretches identically, so each
//! logical transmit/listen pairing is attempted `r` times in a row and an
//! i.i.d. per-reception loss probability `p` is driven down to `pʳ` per
//! logical slot.
//!
//! Choosing `r = ⌈ln(N²/ε) / ln(1/p)⌉` (see [`repetition_factor`]) makes
//! `pʳ ≤ ε/N²`, so a union bound over all `< N²` directed links restores
//! the `1 − ε` success guarantee of the underlying analysis at an `r×`
//! slot-budget cost — the `Θ(ln(N²/ε)/ln(1/p))` scaling experiment E26
//! measures.

use mmhew_engine::{NeighborTable, SyncProtocol};
use mmhew_obs::ProtocolPhase;
use mmhew_radio::{Beacon, SlotAction};
use mmhew_spectrum::ChannelId;
use mmhew_util::Xoshiro256StarStar;

/// The repetition factor `⌈ln(N²/ε) / ln(1/p_loss)⌉` that restores a
/// `1 − ε` success probability when every reception is lost independently
/// with probability `p_loss`.
///
/// Returns at least 1 (a reliable channel needs no inflation).
///
/// # Panics
///
/// Panics unless `epsilon` is in `(0, 1)` and `p_loss` in `[0, 1)`.
pub fn repetition_factor(n: usize, epsilon: f64, p_loss: f64) -> u64 {
    assert!(
        epsilon > 0.0 && epsilon < 1.0,
        "failure probability must be in (0,1)"
    );
    assert!(
        (0.0..1.0).contains(&p_loss),
        "loss probability must be in [0,1)"
    );
    if p_loss == 0.0 {
        return 1;
    }
    let amplification = ((n as f64).powi(2) / epsilon).ln().max(1.0);
    let per_try = (1.0 / p_loss).ln();
    (amplification / per_try).ceil().max(1.0) as u64
}

/// Wraps a [`SyncProtocol`], repeating each of its actions for
/// `repetition` consecutive physical slots (time dilation).
///
/// The wrapper is transparent to the inner protocol: it sees a contiguous
/// logical slot counter `0, 1, 2, …` and every beacon heard during any of
/// the repeated physical slots. Its table, termination vote, and phase are
/// forwarded unchanged.
pub struct RobustDiscovery {
    inner: Box<dyn SyncProtocol>,
    repetition: u64,
    current: SlotAction,
}

impl RobustDiscovery {
    /// Wraps `inner` with the given repetition factor.
    ///
    /// # Panics
    ///
    /// Panics if `repetition` is zero.
    pub fn new(inner: Box<dyn SyncProtocol>, repetition: u64) -> Self {
        assert!(repetition >= 1, "repetition factor must be at least 1");
        Self {
            inner,
            repetition,
            current: SlotAction::Quiet,
        }
    }

    /// The repetition factor.
    pub fn repetition(&self) -> u64 {
        self.repetition
    }
}

impl SyncProtocol for RobustDiscovery {
    fn on_slot(&mut self, active_slot: u64, rng: &mut Xoshiro256StarStar) -> SlotAction {
        if active_slot.is_multiple_of(self.repetition) {
            self.current = self.inner.on_slot(active_slot / self.repetition, rng);
        }
        self.current
    }

    fn on_beacon(&mut self, beacon: &Beacon, channel: ChannelId) {
        self.inner.on_beacon(beacon, channel);
    }

    fn table(&self) -> &NeighborTable {
        self.inner.table()
    }

    fn is_terminated(&self) -> bool {
        self.inner.is_terminated()
    }

    /// Time dilation only repeats the inner protocol's actions, so the
    /// wrapper keeps the promise exactly when the inner protocol does.
    fn next_transmission_bound(&self, now: u64) -> Option<u64> {
        self.inner
            .next_transmission_bound(now / self.repetition)
            .map(|_| now)
    }

    fn phase(&self) -> Option<ProtocolPhase> {
        self.inner.phase()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmhew_spectrum::ChannelSet;
    use mmhew_topology::NodeId;
    use mmhew_util::SeedTree;

    /// Alternates transmit/listen on its *logical* clock so the
    /// repetition pattern is visible from outside.
    struct Scripted {
        table: NeighborTable,
    }

    impl SyncProtocol for Scripted {
        fn on_slot(&mut self, active_slot: u64, _rng: &mut Xoshiro256StarStar) -> SlotAction {
            if active_slot.is_multiple_of(2) {
                SlotAction::Transmit {
                    channel: ChannelId::new(0),
                }
            } else {
                SlotAction::Listen {
                    channel: ChannelId::new(0),
                }
            }
        }

        fn on_beacon(&mut self, beacon: &Beacon, _channel: ChannelId) {
            self.table
                .record(beacon.sender(), beacon.available().clone());
        }

        fn table(&self) -> &NeighborTable {
            &self.table
        }
    }

    #[test]
    fn dilation_repeats_each_action_and_contracts_the_clock() {
        let mut robust = RobustDiscovery::new(
            Box::new(Scripted {
                table: NeighborTable::new(),
            }),
            3,
        );
        let mut rng = SeedTree::new(0).rng();
        let actions: Vec<SlotAction> = (0..12).map(|t| robust.on_slot(t, &mut rng)).collect();
        for chunk in actions.chunks(3) {
            assert!(chunk.iter().all(|a| *a == chunk[0]), "runs of 3 identical");
        }
        assert!(actions[0].is_transmit());
        assert!(actions[3].is_listen());
        assert!(actions[6].is_transmit());
    }

    #[test]
    fn repetition_one_is_transparent() {
        let mut robust = RobustDiscovery::new(
            Box::new(Scripted {
                table: NeighborTable::new(),
            }),
            1,
        );
        let mut rng = SeedTree::new(0).rng();
        for t in 0..5 {
            robust.on_slot(t, &mut rng);
        }
        // With r = 1 the inner clock advances 1:1.
        let beacon = Beacon::new(NodeId::new(3), ChannelSet::full(2));
        robust.on_beacon(&beacon, ChannelId::new(0));
        assert_eq!(robust.table().len(), 1);
        assert_eq!(robust.repetition(), 1);
    }

    #[test]
    fn repetition_factor_formula() {
        // Reliable channel: no inflation.
        assert_eq!(repetition_factor(10, 0.1, 0.0), 1);
        // p = 1/e makes the denominator 1, so r = ⌈ln(N²/ε)⌉.
        let r = repetition_factor(10, 0.1, (-1.0f64).exp());
        assert_eq!(r, ((100.0f64 / 0.1).ln()).ceil() as u64);
        // Heavier loss needs more repetition.
        assert!(repetition_factor(10, 0.1, 0.9) > repetition_factor(10, 0.1, 0.5));
        // Stricter ε needs more repetition.
        assert!(repetition_factor(10, 0.001, 0.5) > repetition_factor(10, 0.1, 0.5));
        // The guarantee the factor is derived from: pʳ ≤ ε/N².
        let (n, eps, p) = (10usize, 0.1, 0.75);
        let r = repetition_factor(n, eps, p);
        assert!(p.powi(r as i32) <= eps / (n as f64).powi(2));
    }

    #[test]
    #[should_panic(expected = "repetition factor must be at least 1")]
    fn zero_repetition_panics() {
        let _ = RobustDiscovery::new(
            Box::new(Scripted {
                table: NeighborTable::new(),
            }),
            0,
        );
    }

    #[test]
    #[should_panic(expected = "loss probability must be in [0,1)")]
    fn certain_loss_is_rejected() {
        let _ = repetition_factor(4, 0.1, 1.0);
    }
}
