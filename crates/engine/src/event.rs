//! Event-driven executor for the synchronous engine: skip the resolution
//! of dead air, keep byte-identity to the slotted oracle.
//!
//! At low transmit probability most slots are pure listening: nothing is
//! on the medium, nothing is delivered, and (by construction of
//! `SlotResolver`) nothing is drawn from the medium RNG. The slotted loop
//! still resolves every one of those slots and runs its stop checks.
//! [`EventCursor`] decides each slot in place, exactly as the slotted step
//! does, and then looks at the result: a slot in which some node
//! transmits, a dynamics event is due, or the cursor starts is stepped
//! through the shared `begin_slot`/`finish_slot` pair; any other slot only
//! has its listen and quiet actions tallied.
//!
//! Deciding a slot costs the same on both executors: the paper's
//! protocols draw a channel and a transmit coin in every active slot. What
//! dead air saves is the resolver pass and the stop checks, nothing more,
//! and measured end to end the executor is no faster than the slotted
//! loop. It is kept only for the benchmark's executor comparison; no
//! command-line flag or campaign spec selects it.
//!
//! # How byte-identity is preserved
//!
//! * **The same protocol calls.** Both executors fill a slot's actions
//!   through one helper, which returns `Quiet` before a node's start slot
//!   and calls `on_slot` otherwise. So the cursor calls `on_slot` for the
//!   same (node, slot) pairs as the slotted step, in slot order, with
//!   the same beacons delivered in between. Per-node RNG streams are
//!   independent seed branches (`seed.branch("node").index(i)`), so only
//!   each node's own call order matters, and it does not change.
//! * **A silent slot changes nothing but tallies.** The medium RNG is
//!   drawn only by the resolver, and a slot with no transmitter delivers
//!   nothing and draws nothing. Not resolving it loses only its action
//!   tallies, which the cursor keeps itself.
//! * **Stop checks at stepped slots suffice.** Coverage changes only at
//!   deliveries and dynamics boundaries, which are stepped, and the
//!   [`SyncProtocol::next_transmission_bound`](crate::SyncProtocol::next_transmission_bound)
//!   contract keeps `is_terminated` constant, so a check skipped on dead
//!   air could not have fired.
//!
//! That hook is the executor's eligibility gate. Runs it cannot vouch for
//! fall back to the slotted loop wholesale and are trivially
//! byte-identical: a `None` hook anywhere, an active fault plan (jam,
//! crash and loss state advance every slot, silent or not), or an enabled
//! sink (every slot of a trace-bearing run emits events, so it has no
//! dead air).

use crate::config::SyncRunConfig;
use crate::sync::{SyncEngine, SyncOutcome};

/// Which executor drives a synchronous [`run`](SyncEngine::run): the
/// slot-by-slot oracle (default) or the dead-air-skipping event executor,
/// which is held byte-identical to the oracle at the same seed. Only the
/// benchmark's executor comparison selects [`Engine::Event`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Engine {
    /// Step every slot in order — the reference semantics.
    #[default]
    Slotted,
    /// Step only transmission-bearing (or dynamics) slots, tallying the
    /// listen-only slots between them without resolving them. Falls back to
    /// [`Slotted`](Engine::Slotted) whenever the fast path's preconditions
    /// don't hold.
    Event,
}

/// The event executor's state within one run: whether it has stepped its
/// first slot.
///
/// One [`advance`](EventCursor::advance) call decides slots in place, from
/// the engine's current slot on, until it steps one. A slot is stepped —
/// run through the same `begin_slot`/`finish_slot` code as the slotted
/// loop — when
///
/// * some node transmits in it;
/// * a dynamics event is due at it (`at <= slot`): churn and
///   continuous-discovery boundaries change what the network is, so they
///   must land at the exact slot the slotted engine applies them;
/// * it is the first slot this cursor decides, so the shared post-step
///   stop checks see a run that is complete or terminated from the start
///   exactly when the slotted loop would.
///
/// Every other slot is dead air: its listen and quiet actions are tallied
/// and the cursor moves on. Nothing is decided ahead of the engine's
/// current slot and nothing is buffered, so the cursor keeps no per-node
/// state, and a warm `advance` allocates nothing.
///
/// `advance` is step-granular on purpose: the caller applies the shared
/// post-step stop checks after each stepped slot, and may pass a growing
/// horizon to cut one run into segments.
pub struct EventCursor {
    /// Set once the cursor's first slot has been stepped.
    primed: bool,
}

impl EventCursor {
    /// A cursor for an engine with `nodes` nodes, positioned at the
    /// engine's current slot. The cursor keeps no per-node state, so the
    /// count only documents which engine it drives.
    pub fn new(nodes: usize) -> Self {
        let _ = nodes;
        Self { primed: false }
    }

    /// Decides slots in place from the engine's current slot until one
    /// must be stepped, tallying the dead air before it, and steps that
    /// slot. Returns `true` if a slot was stepped — the caller must then
    /// apply `post_step_stop` — or `false` if dead air ran to the horizon
    /// `config.max_slots`.
    pub fn advance(&mut self, engine: &mut SyncEngine<'_>, config: &SyncRunConfig) -> bool {
        debug_assert!(engine.current_slot() < config.max_slots);
        while engine.current_slot() < config.max_slots {
            let transmits = engine.decide_actions();
            if transmits || engine.dynamics_due() || !self.primed {
                self.primed = true;
                engine.begin_slot();
                engine.finish_slot(config);
                return true;
            }
            engine.skip_silent_slot();
        }
        false
    }
}

impl<'n> SyncEngine<'n> {
    /// Runs to the same stopping point as [`run`](Self::run) — producing a
    /// byte-identical [`SyncOutcome`] at the same seed — but does not
    /// resolve dead air: slots in which no node transmits and no dynamics
    /// event is due are decided and tallied, not stepped.
    ///
    /// Falls back to [`run`](Self::run) wholesale when the fast path's
    /// preconditions fail: any protocol whose
    /// [`next_transmission_bound`](crate::SyncProtocol::next_transmission_bound)
    /// is `None`, an active fault plan, or an enabled sink (trace-bearing
    /// runs emit per-slot events, so they have no dead air to skip).
    pub fn run_event(mut self, config: SyncRunConfig) -> SyncOutcome {
        if !self.event_fast_path_eligible() {
            return self.run(config);
        }
        let mut cursor = EventCursor::new(self.network().node_count());
        let mut terminated_slot = None;
        while self.current_slot() < config.max_slots && cursor.advance(&mut self, &config) {
            if self.post_step_stop(&config, &mut terminated_slot) {
                break;
            }
        }
        self.into_outcome(terminated_slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NeighborTable, SyncProtocol};
    use mmhew_radio::{Beacon, SlotAction};
    use mmhew_spectrum::ChannelId;
    use mmhew_topology::NetworkBuilder;
    use mmhew_util::{SeedTree, Xoshiro256StarStar};

    /// Listens on channel 0 forever; optionally reports itself terminated
    /// from the start.
    struct Listener {
        terminated: bool,
        table: NeighborTable,
    }

    impl SyncProtocol for Listener {
        fn on_slot(&mut self, _slot: u64, _rng: &mut Xoshiro256StarStar) -> SlotAction {
            SlotAction::Listen {
                channel: ChannelId::new(0),
            }
        }

        fn on_beacon(&mut self, _beacon: &Beacon, _channel: ChannelId) {}

        fn table(&self) -> &NeighborTable {
            &self.table
        }

        fn is_terminated(&self) -> bool {
            self.terminated
        }

        fn next_transmission_bound(&self, now: u64) -> Option<u64> {
            Some(now)
        }
    }

    #[test]
    fn first_slot_is_stepped_so_stop_checks_match_the_oracle() {
        // Nothing is ever transmitted, so only the cursor's first slot is
        // stepped: a run that is complete, or terminated, from the start
        // must stop after that slot, as the slotted loop does.
        let net = NetworkBuilder::line(1)
            .universe(1)
            .build(SeedTree::new(0))
            .expect("build");
        for (terminated, config) in [
            (false, SyncRunConfig::until_complete(100)),
            (true, SyncRunConfig::until_all_terminated(100)),
        ] {
            let engine = || {
                let listener = Listener {
                    terminated,
                    table: NeighborTable::new(),
                };
                SyncEngine::new(&net, vec![Box::new(listener)], vec![0], SeedTree::new(1))
            };
            let slotted = engine().run(config);
            let event = engine().run_event(config);
            assert_eq!(slotted.slots_executed(), 1);
            assert_eq!(event.slots_executed(), 1);
            assert_eq!(event.terminated_slot(), slotted.terminated_slot());
            assert_eq!(event.action_counts(), slotted.action_counts());
        }
    }

    #[test]
    fn dead_air_runs_to_the_horizon_with_its_tallies() {
        let net = NetworkBuilder::line(2)
            .universe(1)
            .build(SeedTree::new(0))
            .expect("build");
        let mut engine = SyncEngine::new(
            &net,
            (0..2)
                .map(|_| {
                    Box::new(Listener {
                        terminated: false,
                        table: NeighborTable::new(),
                    }) as Box<dyn SyncProtocol>
                })
                .collect(),
            vec![0, 5],
            SeedTree::new(1),
        );
        let config = SyncRunConfig::fixed(10);
        let mut cursor = EventCursor::new(2);
        assert!(
            cursor.advance(&mut engine, &config),
            "the first slot is stepped"
        );
        assert_eq!(engine.current_slot(), 1);
        assert!(!cursor.advance(&mut engine, &config), "nothing else is");
        assert_eq!(engine.current_slot(), 10);
        let out = engine.run(config);
        assert_eq!(out.action_counts()[0].listen, 10);
        assert_eq!(out.action_counts()[1].quiet, 5);
        assert_eq!(out.action_counts()[1].listen, 5);
    }
}
