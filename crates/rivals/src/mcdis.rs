//! Mc-Dis: a deterministic prime-pair channel-hopping discovery schedule
//! (after arXiv:1307.3630, which lifts Disco's dual-prime wakeup pattern
//! to multi-channel neighbor discovery).
//!
//! Each node owns a [`DutyClass`] — a pair of coprime primes `(p_t, p_l)`.
//! Writing `s' = s + φ` for the node's phase-shifted slot counter
//! (`φ` = node id, so co-located nodes are offset), the schedule is
//!
//! * `p_t | s'` → **transmit** on `A[(s'/p_t) mod |A|]`,
//! * else `p_l | s'` → **listen** on `A[(s'/p_l) mod |A|]`,
//! * else the transceiver stays off,
//!
//! where `A` is the node's available channel set in ascending order. The
//! duty cycle is exactly `1/p_t + 1/p_l` minus the overlap term, so
//! heterogeneous energy budgets map to different prime pairs while the
//! Chinese Remainder Theorem keeps every transmit/listen pair of coprime
//! primes co-active infinitely often regardless of phases.
//!
//! **Coverage caveat** (worked through in DESIGN.md §15): co-activity does
//! not imply *channel* alignment. Across co-active slots the transmit and
//! listen channel indices advance by fixed strides, so the pair of indices
//! walks a one-dimensional line in `Z_|A| × Z_|A|`. On full availability
//! with a prime universe size the stride engineering of [`DUTY_CLASSES`]
//! makes that line hit the diagonal, and discovery completes
//! deterministically. Under heterogeneous channel subsets the line may
//! permanently miss every common channel — the run then exhausts its
//! budget and counts as a failure. That is not an implementation bug: it
//! is the worst-case mode of deterministic sequences that the source
//! paper's randomized algorithms are designed to rule out, and E27/E28
//! report it as such.
//!
//! The schedule is draw-free, so [`SyncProtocol::next_transmission_bound`]
//! declares every run of off slots as a repeat window and the event
//! executor admits the protocol.

use mmhew_discovery::ProtocolError;
use mmhew_engine::{NeighborTable, SyncProtocol};
use mmhew_obs::ProtocolPhase;
use mmhew_radio::{Beacon, SlotAction};
use mmhew_spectrum::{ChannelId, ChannelSet};
use mmhew_util::Xoshiro256StarStar;

/// A transmit/listen prime pair; the node's energy budget in schedule form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DutyClass {
    /// Prime period of transmit slots (`p_t`); duty share `1/p_t`.
    pub transmit_prime: u64,
    /// Prime period of listen slots (`p_l`); duty share `1/p_l`.
    pub listen_prime: u64,
}

impl DutyClass {
    /// A new class from two distinct primes `>= 2`.
    pub const fn new(transmit_prime: u64, listen_prime: u64) -> Self {
        Self {
            transmit_prime,
            listen_prime,
        }
    }

    /// Fraction of slots in which the transceiver is on.
    pub fn duty(&self) -> f64 {
        let t = self.transmit_prime as f64;
        let l = self.listen_prime as f64;
        // Transmit wins slots divisible by both primes, hence the overlap
        // term is subtracted from the listen share only.
        1.0 / t + 1.0 / l - 1.0 / (t * l)
    }
}

/// The heterogeneous duty classes used by the `mc-dis` catalog entry,
/// densest first (duty ≈ 0.18, 0.066, 0.045).
///
/// The primes are chosen so that for channel-set sizes 3 and 5 (the prime
/// sizes our experiments sweep) every transmit stride differs from every
/// listen stride and neither is zero modulo the size: transmit primes are
/// `≡ 1 (mod 3)` and `≡ {1,2} (mod 5)`, listen primes `≡ 2 (mod 3)` and
/// `≡ {3,4} (mod 5)`. On full availability that makes the index line hit
/// the channel diagonal for every ordered node pair (see module docs).
pub const DUTY_CLASSES: [DutyClass; 3] = [
    DutyClass::new(7, 23),
    DutyClass::new(31, 29),
    DutyClass::new(37, 53),
];

/// Per-node state of the Mc-Dis schedule.
///
/// # Examples
///
/// ```
/// use mmhew_rivals::{DutyClass, McDisDiscovery};
/// use mmhew_spectrum::ChannelSet;
///
/// let proto = McDisDiscovery::new(ChannelSet::full(5), DutyClass::new(7, 23), 0)?;
/// assert!(proto.duty() < 0.19);
/// # Ok::<(), mmhew_discovery::ProtocolError>(())
/// ```
#[derive(Debug, Clone)]
pub struct McDisDiscovery {
    channels: Vec<ChannelId>,
    available: ChannelSet,
    class: DutyClass,
    phase: u64,
    stage: u64,
    table: NeighborTable,
}

impl McDisDiscovery {
    /// Creates the schedule for one node. `node_id` becomes the phase
    /// shift `φ`, so distinct nodes of the same class interleave.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::EmptyChannelSet`] if `available` is empty.
    ///
    /// # Panics
    ///
    /// Panics if the class primes are `< 2` or equal.
    pub fn new(
        available: ChannelSet,
        class: DutyClass,
        node_id: u32,
    ) -> Result<Self, ProtocolError> {
        assert!(
            class.transmit_prime >= 2 && class.listen_prime >= 2,
            "duty-class primes must be >= 2"
        );
        assert_ne!(
            class.transmit_prime, class.listen_prime,
            "duty-class primes must be distinct"
        );
        if available.is_empty() {
            return Err(ProtocolError::EmptyChannelSet);
        }
        let channels: Vec<ChannelId> = available.iter().collect();
        Ok(Self {
            channels,
            available,
            class,
            phase: u64::from(node_id),
            stage: 0,
            table: NeighborTable::new(),
        })
    }

    /// The node's duty cycle (exact, including the transmit/listen overlap).
    pub fn duty(&self) -> f64 {
        self.class.duty()
    }

    /// The action scheduled for `active_slot` — a pure function of the
    /// slot index, which is what makes the bound hook exact.
    fn action_at(&self, active_slot: u64) -> SlotAction {
        let s = active_slot.wrapping_add(self.phase);
        let m = self.channels.len() as u64;
        if s.is_multiple_of(self.class.transmit_prime) {
            let idx = (s / self.class.transmit_prime) % m;
            SlotAction::Transmit {
                channel: self.channels[idx as usize],
            }
        } else if s.is_multiple_of(self.class.listen_prime) {
            let idx = (s / self.class.listen_prime) % m;
            SlotAction::Listen {
                channel: self.channels[idx as usize],
            }
        } else {
            SlotAction::Quiet
        }
    }
}

impl SyncProtocol for McDisDiscovery {
    fn on_slot(&mut self, active_slot: u64, _rng: &mut Xoshiro256StarStar) -> SlotAction {
        self.stage = active_slot.wrapping_add(self.phase) / self.class.transmit_prime;
        self.action_at(active_slot)
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
        // The window repeats the most recent `on_slot` action, that of slot
        // `now - 1`, so it is empty at slot 0 and wherever slot `now`
        // changes the action. An on slot is never followed by another on
        // slot of the same kind and channel (a prime >= 2 divides at most
        // one of two consecutive counters), so a repeated action is off,
        // and the schedule stays off until the next multiple of either
        // prime.
        if now == 0 || self.action_at(now) != self.action_at(now - 1) {
            return Some(now);
        }
        let s = now.wrapping_add(self.phase);
        let until = |p: u64| p - s % p;
        let gap = until(self.class.transmit_prime).min(until(self.class.listen_prime));
        Some(now.saturating_add(gap))
    }

    fn phase(&self) -> Option<ProtocolPhase> {
        Some(ProtocolPhase::Stage(self.stage))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmhew_util::Xoshiro256StarStar;

    fn proto(class: DutyClass, id: u32) -> McDisDiscovery {
        McDisDiscovery::new(ChannelSet::full(5), class, id).expect("valid")
    }

    #[test]
    fn transmits_exactly_on_transmit_prime_multiples() {
        let mut p = proto(DutyClass::new(7, 23), 0);
        let mut rng = Xoshiro256StarStar::from_seed_u64(1);
        for s in 0..500 {
            let action = p.on_slot(s, &mut rng);
            let transmits = matches!(action, SlotAction::Transmit { .. });
            assert_eq!(transmits, s % 7 == 0, "slot {s}");
        }
    }

    #[test]
    fn listens_on_listen_prime_multiples_unless_transmitting() {
        let mut p = proto(DutyClass::new(7, 23), 0);
        let mut rng = Xoshiro256StarStar::from_seed_u64(1);
        for s in 0..2000 {
            let action = p.on_slot(s, &mut rng);
            let listens = matches!(action, SlotAction::Listen { .. });
            assert_eq!(listens, s % 23 == 0 && s % 7 != 0, "slot {s}");
        }
    }

    #[test]
    fn phase_shift_offsets_the_schedule() {
        let mut a = proto(DutyClass::new(7, 23), 0);
        let mut b = proto(DutyClass::new(7, 23), 3);
        let mut rng = Xoshiro256StarStar::from_seed_u64(1);
        for s in 0..300 {
            assert_eq!(a.on_slot(s + 3, &mut rng), b.on_slot(s, &mut rng));
        }
    }

    #[test]
    fn schedule_never_leaves_the_available_set() {
        let available: ChannelSet = [2u16, 5, 9].into_iter().collect();
        let mut p = McDisDiscovery::new(available.clone(), DutyClass::new(31, 29), 4).unwrap();
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
    fn bound_is_exact_first_change() {
        for class in DUTY_CLASSES {
            let p = proto(class, 11);
            assert_eq!(
                p.next_transmission_bound(0),
                Some(0),
                "no action precedes slot 0"
            );
            for now in 1..1000 {
                let bound = p.next_transmission_bound(now).expect("draw-free");
                let here = p.action_at(now);
                if here != p.action_at(now - 1) {
                    assert_eq!(bound, now, "the action changes at {now}");
                    continue;
                }
                assert!(bound > now, "a repeated action opens a window at {now}");
                for t in now + 1..bound {
                    assert_eq!(p.action_at(t), here, "window must repeat at {t}");
                }
                assert_ne!(p.action_at(bound), here, "bound must be tight at {now}");
            }
        }
    }

    #[test]
    fn duty_matches_measured_on_fraction() {
        let class = DutyClass::new(7, 23);
        let mut p = proto(class, 0);
        let mut rng = Xoshiro256StarStar::from_seed_u64(1);
        let horizon = 7 * 23 * 100;
        let on = (0..horizon)
            .filter(|&s| !matches!(p.on_slot(s, &mut rng), SlotAction::Quiet))
            .count();
        let measured = on as f64 / horizon as f64;
        assert!((measured - class.duty()).abs() < 1e-9);
    }

    #[test]
    fn empty_channel_set_is_rejected() {
        let err = McDisDiscovery::new(ChannelSet::new(), DutyClass::new(7, 23), 0);
        assert!(matches!(err, Err(ProtocolError::EmptyChannelSet)));
    }
}
