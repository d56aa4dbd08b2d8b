//! The runtime the engines drive: per-pair link loss state, crash
//! bitmap, schedule cursors, and reusable per-resolution tally buffers.

use crate::loss::{bernoulli_delivers, LinkLossModel};
use crate::plan::FaultPlan;
use mmhew_spectrum::{ChannelId, ChannelSet};
use mmhew_topology::NodeId;
use rand::Rng;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The loss state of one directed pair that carries one: the index of
/// its model in [`ActiveFaults`]' model table and, under a
/// Gilbert–Elliott model, whether its chain is in the bad state. Eight
/// bytes, so a map entry costs sixteen.
#[derive(Debug, Clone, Copy)]
struct PairState {
    model: u32,
    bad: bool,
}

/// Hashes a packed pair key `(from << 32) | to` with one folded 128-bit
/// multiply. The hash is fixed rather than seeded per process: the map is
/// only ever probed by key, never iterated, so its order is never
/// observed, and its keys are node ids of the simulated network, not
/// input that could be crafted to collide.
#[derive(Debug, Default, Clone, Copy)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        let product = u128::from(key) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (product as u64) ^ (product >> 64) as u64;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A collision resolved by capture: `to` heard `from` out of `contenders`
/// simultaneous transmitters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaptureRecord {
    /// The listener.
    pub to: NodeId,
    /// The transmitter whose frame survived.
    pub from: NodeId,
    /// How many transmitters collided.
    pub contenders: u32,
}

/// A crash-state change applied by [`ActiveFaults::advance_to`], for the
/// engine to surface as an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashTransition {
    /// The node transitioning.
    pub node: NodeId,
    /// `true` = recovered, `false` = crashed.
    pub up: bool,
}

/// Runtime fault state for one engine run.
///
/// Built once from a [`FaultPlan`] (the engines skip construction entirely
/// when the plan [`is_empty`](FaultPlan::is_empty)). Link loss state is
/// kept per directed pair, and only for the pairs that need it: every
/// override, from construction, and every pair under a Gilbert–Elliott
/// default, from the first time it is heard. Memory therefore grows with
/// the links a run hears, never with node pairs. The tally buffers are
/// pre-sized at construction, so once every link has been heard the
/// steady-state hot loop performs no heap allocation.
///
/// Time flows through [`advance_to`](Self::advance_to) with nondecreasing
/// unit-agnostic stamps (slot indices or nanoseconds); per-resolution
/// tallies are reset with [`begin_resolution`](Self::begin_resolution) and
/// read back through [`beacon_losses`](Self::beacon_losses) /
/// [`jam_losses`](Self::jam_losses) / [`captures`](Self::captures).
#[derive(Debug, Clone)]
pub struct ActiveFaults {
    plan: FaultPlan,
    /// Node ids at or past this count are fault-free.
    nodes: usize,
    /// Every loss model the plan names: its default first, if it has one
    /// (the model of every pair without an entry in `pairs`), then the
    /// model of each override within the node count, in plan order.
    models: Vec<LinkLossModel>,
    /// Loss state by packed pair key `(from << 32) | to`: each override
    /// (the last one given for a pair wins) and each Gilbert–Elliott
    /// default pair heard so far. Bernoulli default pairs hold no state
    /// and need no entry.
    pairs: HashMap<u64, PairState, BuildHasherDefault<PairHasher>>,
    any_link_loss: bool,
    crashed: Vec<bool>,
    crash_cursor: usize,
    jam_cursor: Option<usize>,
    jammed_now: ChannelSet,
    transitions: Vec<CrashTransition>,
    beacon_losses: Vec<(NodeId, NodeId)>,
    jam_losses: Vec<(ChannelId, u32)>,
    captures: Vec<CaptureRecord>,
    contenders: Vec<NodeId>,
}

impl ActiveFaults {
    /// Builds the runtime for `nodes` nodes over a `universe`-channel
    /// spectrum, in time linear in `nodes` and the plan's overrides.
    /// Overrides naming a node at or past `nodes` are ignored.
    pub fn new(plan: FaultPlan, nodes: usize, universe: usize) -> Self {
        let mut models: Vec<LinkLossModel> = plan.default_loss().into_iter().copied().collect();
        let mut pairs = HashMap::default();
        for &(from, to, model) in plan.link_overrides() {
            if from.as_usize() < nodes && to.as_usize() < nodes {
                let index = u32::try_from(models.len()).expect("fewer than 2³² link overrides");
                models.push(model);
                pairs.insert(
                    pair_key(from, to),
                    PairState {
                        model: index,
                        bad: false,
                    },
                );
            }
        }
        let any_link_loss = plan.default_loss().is_some() || !plan.link_overrides().is_empty();
        Self {
            nodes,
            models,
            pairs,
            any_link_loss,
            crashed: vec![false; nodes],
            crash_cursor: 0,
            jam_cursor: None,
            jammed_now: ChannelSet::new(),
            transitions: Vec::with_capacity(plan.crashes().events().len()),
            beacon_losses: Vec::with_capacity(nodes),
            jam_losses: Vec::with_capacity(universe),
            captures: Vec::with_capacity(nodes),
            contenders: Vec::with_capacity(nodes),
            plan,
        }
    }

    /// The plan this runtime was built from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether any directed link carries a loss model (fast skip for the
    /// per-delivery check).
    pub fn any_link_loss(&self) -> bool {
        self.any_link_loss
    }

    /// Advances the jam and crash cursors to `now` (nondecreasing across
    /// calls). Crash-state changes are collected into
    /// [`transitions`](Self::transitions) for the engine to surface;
    /// they replace the previous call's collection.
    pub fn advance_to(&mut self, now: u64) {
        self.transitions.clear();
        let jam = self.plan.jam();
        if !jam.steps().is_empty() {
            let idx = jam.index_at(now);
            if idx != self.jam_cursor {
                self.jam_cursor = idx;
                match idx {
                    Some(i) => self.jammed_now.clone_from(&jam.steps()[i].channels),
                    None => self.jammed_now = ChannelSet::new(),
                }
            }
        }
        let events = self.plan.crashes().events();
        while self.crash_cursor < events.len() && events[self.crash_cursor].at <= now {
            let e = events[self.crash_cursor];
            self.crash_cursor += 1;
            let idx = e.node.as_usize();
            if idx < self.crashed.len() && self.crashed[idx] == e.up {
                self.crashed[idx] = !e.up;
                self.transitions.push(CrashTransition {
                    node: e.node,
                    up: e.up,
                });
            }
        }
    }

    /// Crash-state changes applied by the most recent
    /// [`advance_to`](Self::advance_to).
    pub fn transitions(&self) -> &[CrashTransition] {
        &self.transitions
    }

    /// Is `node` currently crashed (radio dead)?
    #[inline]
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.crashed.get(node.as_usize()).copied().unwrap_or(false)
    }

    /// Does any node ever crash under this plan?
    pub fn any_crashes(&self) -> bool {
        !self.plan.crashes().is_empty()
    }

    /// Is `channel` jammed at the time of the last
    /// [`advance_to`](Self::advance_to)? (Slot-instant query for the
    /// synchronous engine.)
    #[inline]
    pub fn is_jammed_now(&self, channel: ChannelId) -> bool {
        self.jammed_now.contains(channel)
    }

    /// Is `channel` jammed anywhere in `[start, end)`? (Burst-interval
    /// query for the asynchronous engine; stateless, so out-of-order burst
    /// times are fine.)
    #[inline]
    pub fn is_jammed_in(&self, channel: ChannelId, start: u64, end: u64) -> bool {
        self.plan.jam().jammed_in(channel, start, end)
    }

    /// The capture probability, if the capture effect is enabled.
    pub fn capture_probability(&self) -> Option<f64> {
        self.plan.capture_probability()
    }

    /// Clears the per-resolution tallies. The resolver calls this once per
    /// slot (sync) or listen window (async) before injecting faults.
    pub fn begin_resolution(&mut self) {
        self.beacon_losses.clear();
        self.jam_losses.clear();
        self.captures.clear();
    }

    /// Draws the loss model of the directed link `from → to` (advancing
    /// its Gilbert–Elliott chain if it has one, which starts in the good
    /// state on the link's first call). Links without a model, and links
    /// touching a node at or past the runtime's node count, deliver
    /// unconditionally and consume no RNG. A loss is tallied into
    /// [`beacon_losses`](Self::beacon_losses).
    pub fn link_delivers<R: Rng + ?Sized>(
        &mut self,
        from: NodeId,
        to: NodeId,
        rng: &mut R,
    ) -> bool {
        if !self.any_link_loss || from.as_usize() >= self.nodes || to.as_usize() >= self.nodes {
            return true;
        }
        let key = pair_key(from, to);
        let delivered = if let Some(state) = self.pairs.get_mut(&key) {
            state.delivers(&self.models, rng)
        } else if self.plan.default_loss().is_some() {
            let mut state = PairState {
                model: 0,
                bad: false,
            };
            let delivered = state.delivers(&self.models, rng);
            if let LinkLossModel::GilbertElliott(_) = self.models[0] {
                self.pairs.insert(key, state);
            }
            delivered
        } else {
            true
        };
        if !delivered {
            self.beacon_losses.push((from, to));
        }
        delivered
    }

    /// Tallies one reception suppressed by a jammed channel.
    pub fn record_jam_loss(&mut self, channel: ChannelId) {
        match self.jam_losses.iter_mut().find(|(c, _)| *c == channel) {
            Some((_, n)) => *n += 1,
            None => self.jam_losses.push((channel, 1)),
        }
    }

    /// Resolves the capture effect for listener `to` on a collided
    /// channel: collects the non-crashed contenders from `candidates`,
    /// then with probability `p_cap` delivers one uniformly (i.i.d.
    /// fading makes "the strongest of k" a uniform pick). Draws zero RNG
    /// when capture is disabled; otherwise one `gen_bool` plus, on
    /// success, one `gen_range`.
    pub fn try_capture<R, I>(&mut self, to: NodeId, candidates: I, rng: &mut R) -> Option<NodeId>
    where
        R: Rng + ?Sized,
        I: IntoIterator<Item = NodeId>,
    {
        let p_cap = self.plan.capture_probability()?;
        self.contenders.clear();
        for v in candidates {
            if !self.is_crashed(v) {
                self.contenders.push(v);
            }
        }
        if self.contenders.len() < 2 || !rng.gen_bool(p_cap) {
            return None;
        }
        let from = self.contenders[rng.gen_range(0..self.contenders.len())];
        self.captures.push(CaptureRecord {
            to,
            from,
            contenders: self.contenders.len() as u32,
        });
        Some(from)
    }

    /// Beacons lost to link loss models since
    /// [`begin_resolution`](Self::begin_resolution), as `(from, to)`.
    pub fn beacon_losses(&self) -> &[(NodeId, NodeId)] {
        &self.beacon_losses
    }

    /// Receptions suppressed by jamming since
    /// [`begin_resolution`](Self::begin_resolution), per channel.
    pub fn jam_losses(&self) -> &[(ChannelId, u32)] {
        &self.jam_losses
    }

    /// Collisions resolved by capture since
    /// [`begin_resolution`](Self::begin_resolution).
    pub fn captures(&self) -> &[CaptureRecord] {
        &self.captures
    }
}

/// The map key of the directed pair `from → to`.
#[inline]
fn pair_key(from: NodeId, to: NodeId) -> u64 {
    (u64::from(from.index()) << 32) | u64::from(to.index())
}

impl PairState {
    /// One use of the pair's link under its model in `models`: `true` if
    /// the beacon gets through. Chains start in the good state; burn-in
    /// is the caller's choice (discovery runs are long next to burst
    /// lengths).
    #[inline]
    fn delivers<R: Rng + ?Sized>(&mut self, models: &[LinkLossModel], rng: &mut R) -> bool {
        match &models[self.model as usize] {
            LinkLossModel::Bernoulli {
                delivery_probability,
            } => bernoulli_delivers(*delivery_probability, rng),
            LinkLossModel::GilbertElliott(model) => !model.step(&mut self.bad, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::CrashSchedule;
    use crate::jam::JamSchedule;
    use mmhew_util::SeedTree;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn ch(i: u16) -> ChannelId {
        ChannelId::new(i)
    }

    #[test]
    fn fault_free_link_draws_nothing() {
        let plan = FaultPlan::new().with_link_loss(
            n(0),
            n(1),
            LinkLossModel::Bernoulli {
                delivery_probability: 0.5,
            },
        );
        let mut active = ActiveFaults::new(plan, 4, 2);
        let mut rng = SeedTree::new(1).rng();
        let before = rng.clone();
        // Only 0 → 1 has a model; every other link is free.
        assert!(active.link_delivers(n(1), n(0), &mut rng));
        assert!(active.link_delivers(n(2), n(3), &mut rng));
        assert_eq!(rng, before, "unconfigured links must not consume RNG");
    }

    #[test]
    fn default_loss_covers_all_links_and_overrides_win() {
        let plan = FaultPlan::new()
            .with_default_loss(LinkLossModel::Bernoulli {
                delivery_probability: 0.0,
            })
            .with_link_loss(
                n(0),
                n(1),
                LinkLossModel::Bernoulli {
                    delivery_probability: 1.0,
                },
            );
        let mut active = ActiveFaults::new(plan, 3, 2);
        let mut rng = SeedTree::new(2).rng();
        assert!(active.link_delivers(n(0), n(1), &mut rng), "override wins");
        assert!(!active.link_delivers(n(1), n(0), &mut rng), "default loses");
        assert_eq!(active.beacon_losses(), &[(n(1), n(0))]);
    }

    #[test]
    fn crash_cursor_applies_transitions_once() {
        let plan = FaultPlan::new().with_crashes(CrashSchedule::outage(n(2), 10, 20));
        let mut active = ActiveFaults::new(plan, 4, 2);
        active.advance_to(5);
        assert!(active.transitions().is_empty());
        assert!(!active.is_crashed(n(2)));
        active.advance_to(10);
        assert_eq!(
            active.transitions(),
            &[CrashTransition {
                node: n(2),
                up: false
            }]
        );
        assert!(active.is_crashed(n(2)));
        active.advance_to(15);
        assert!(active.transitions().is_empty(), "no double application");
        active.advance_to(100);
        assert_eq!(
            active.transitions(),
            &[CrashTransition {
                node: n(2),
                up: true
            }]
        );
        assert!(!active.is_crashed(n(2)));
    }

    #[test]
    fn jam_cursor_tracks_schedule() {
        let plan = FaultPlan::new().with_jamming(JamSchedule::sweeping(3, 10, 30));
        let mut active = ActiveFaults::new(plan, 2, 3);
        assert!(
            !active.is_jammed_now(ch(0)),
            "before advance nothing is jammed"
        );
        active.advance_to(0);
        assert!(active.is_jammed_now(ch(0)));
        active.advance_to(12);
        assert!(active.is_jammed_now(ch(1)));
        assert!(!active.is_jammed_now(ch(0)));
        assert!(active.is_jammed_in(ch(0), 0, 5));
        assert!(!active.is_jammed_in(ch(2), 0, 15));
    }

    #[test]
    fn capture_excludes_crashed_and_picks_a_contender() {
        let plan = FaultPlan::new()
            .with_capture(1.0)
            .with_crashes(CrashSchedule::new(vec![crate::crash::CrashEvent::down(
                0,
                n(3),
            )]));
        let mut active = ActiveFaults::new(plan, 5, 2);
        active.advance_to(0);
        let mut rng = SeedTree::new(3).rng();
        let won = active
            .try_capture(n(0), [n(1), n(2), n(3)], &mut rng)
            .expect("p_cap = 1 always captures");
        assert!(won == n(1) || won == n(2), "crashed node cannot win");
        assert_eq!(active.captures().len(), 1);
        assert_eq!(active.captures()[0].contenders, 2);
        // A "collision" reduced to one live contender cannot capture.
        let none = active.try_capture(n(0), [n(1), n(3)], &mut rng);
        assert!(none.is_none());
    }

    #[test]
    fn jam_tally_aggregates_per_channel() {
        let plan = FaultPlan::new().with_jamming(JamSchedule::fixed(ChannelSet::full(2)));
        let mut active = ActiveFaults::new(plan, 2, 2);
        active.begin_resolution();
        active.record_jam_loss(ch(0));
        active.record_jam_loss(ch(1));
        active.record_jam_loss(ch(0));
        assert_eq!(active.jam_losses(), &[(ch(0), 2), (ch(1), 1)]);
        active.begin_resolution();
        assert!(active.jam_losses().is_empty());
    }

    #[test]
    fn nodes_past_the_count_are_fault_free() {
        let plan = FaultPlan::new().with_default_loss(LinkLossModel::Bernoulli {
            delivery_probability: 0.0,
        });
        let mut active = ActiveFaults::new(plan, 2, 2);
        let mut rng = SeedTree::new(4).rng();
        // Node 5 is past the runtime's 2 nodes.
        assert!(active.link_delivers(n(5), n(0), &mut rng));
        assert!(!active.is_crashed(n(9)));
    }
}
