//! The fault runtime against a dense-matrix reference.
//!
//! [`ActiveFaults`] keeps link loss state only for the pairs that need it.
//! [`DenseFaults`] below is the straightforward form it replaced: one
//! state per ordered node pair, pre-filled from the default and then
//! overwritten by each override in plan order. Over random plans and
//! random query sequences the two must agree on every `link_delivers`
//! result, on the tallied beacon losses and on the RNG state after every
//! call, so the runtime draws exactly the stream the matrix drew.

use mmhew_faults::{bernoulli_delivers, ActiveFaults, FaultPlan, GilbertElliott, LinkLossModel};
use mmhew_topology::NodeId;
use mmhew_util::{prop, Xoshiro256StarStar};
use rand::Rng;

/// One directed link's state in the reference matrix.
#[derive(Clone, Copy)]
enum DenseState {
    None,
    Bernoulli { delivery: f64 },
    Ge { model: GilbertElliott, bad: bool },
}

impl DenseState {
    fn from_model(model: &LinkLossModel) -> Self {
        match *model {
            LinkLossModel::Bernoulli {
                delivery_probability,
            } => DenseState::Bernoulli {
                delivery: delivery_probability,
            },
            LinkLossModel::GilbertElliott(model) => DenseState::Ge { model, bad: false },
        }
    }
}

/// The reference: a `nodes × nodes` matrix of link states; pairs outside
/// it are fault-free.
struct DenseFaults {
    nodes: usize,
    links: Vec<DenseState>,
    losses: Vec<(NodeId, NodeId)>,
}

impl DenseFaults {
    fn new(plan: &FaultPlan, nodes: usize) -> Self {
        let default = plan
            .default_loss()
            .map_or(DenseState::None, DenseState::from_model);
        let mut links = vec![default; nodes * nodes];
        for &(from, to, model) in plan.link_overrides() {
            let (f, t) = (from.as_usize(), to.as_usize());
            if f < nodes && t < nodes {
                links[f * nodes + t] = DenseState::from_model(&model);
            }
        }
        Self {
            nodes,
            links,
            losses: Vec::new(),
        }
    }

    fn link_delivers(&mut self, from: NodeId, to: NodeId, rng: &mut Xoshiro256StarStar) -> bool {
        let (f, t) = (from.as_usize(), to.as_usize());
        if f >= self.nodes || t >= self.nodes {
            return true;
        }
        let delivered = match &mut self.links[f * self.nodes + t] {
            DenseState::None => true,
            DenseState::Bernoulli { delivery } => bernoulli_delivers(*delivery, rng),
            DenseState::Ge { model, bad } => !model.step(bad, rng),
        };
        if !delivered {
            self.losses.push((from, to));
        }
        delivered
    }
}

/// A probability that is sometimes exactly 0 or 1 (the draw-free and
/// always-lose edges), otherwise uniform.
fn probability(rng: &mut Xoshiro256StarStar) -> f64 {
    match rng.gen_range(0..4u32) {
        0 => 0.0,
        1 => 1.0,
        _ => rng.gen::<f64>(),
    }
}

fn model(rng: &mut Xoshiro256StarStar) -> LinkLossModel {
    if rng.gen_bool(0.5) {
        LinkLossModel::Bernoulli {
            delivery_probability: probability(rng),
        }
    } else {
        // Transition probabilities bounded away from 0 together, so the
        // chain is never frozen.
        let p_good_to_bad = rng.gen_range(0.05..1.0);
        let p_bad_to_good = rng.gen_range(0.05..1.0);
        LinkLossModel::GilbertElliott(GilbertElliott::new(
            p_good_to_bad,
            p_bad_to_good,
            probability(rng),
            probability(rng),
        ))
    }
}

#[test]
fn fault_runtime_matches_the_dense_matrix_reference() {
    prop::check(
        "fault_runtime_matches_the_dense_matrix_reference",
        512,
        runtime_matches_reference,
    );
}

/// One case: a random plan over 1–6 nodes, then up to 160 random queries.
fn runtime_matches_reference(rng: &mut Xoshiro256StarStar) {
    let nodes = rng.gen_range(1..7usize);
    // Ids reach two past the node count, so queries and overrides also
    // name nodes the runtime must treat as fault-free.
    let id = |rng: &mut Xoshiro256StarStar| NodeId::new(rng.gen_range(0..nodes as u32 + 2));
    let mut plan = FaultPlan::new();
    match rng.gen_range(0..3u32) {
        0 => {}
        1 => {
            plan = plan.with_default_loss(LinkLossModel::Bernoulli {
                delivery_probability: probability(rng),
            })
        }
        _ => {
            let ge = GilbertElliott::new(
                rng.gen_range(0.05..1.0),
                rng.gen_range(0.05..1.0),
                probability(rng),
                probability(rng),
            );
            plan = plan.with_default_loss(LinkLossModel::GilbertElliott(ge));
        }
    }
    let mut named: Vec<(NodeId, NodeId)> = Vec::new();
    for _ in 0..rng.gen_range(0..7u32) {
        // Often repeat an earlier pair, so the order overrides are
        // applied in is exercised.
        let pair = if !named.is_empty() && rng.gen_bool(0.4) {
            named[rng.gen_range(0..named.len())]
        } else {
            (id(rng), id(rng))
        };
        named.push(pair);
        plan = plan.with_link_loss(pair.0, pair.1, model(rng));
    }
    let mut active = ActiveFaults::new(plan.clone(), nodes, 4);
    let mut dense = DenseFaults::new(&plan, nodes);
    let mut active_rng = rng.clone();
    let mut dense_rng = rng.clone();
    for step in 0..rng.gen_range(0..160u32) {
        if rng.gen_bool(0.1) {
            active.begin_resolution();
            dense.losses.clear();
        }
        // Often an overridden pair; otherwise any pair of the small id
        // range, so links are heard repeatedly and chains advance.
        let (from, to) = if !named.is_empty() && rng.gen_bool(0.3) {
            named[rng.gen_range(0..named.len())]
        } else {
            (id(rng), id(rng))
        };
        assert_eq!(
            active.link_delivers(from, to, &mut active_rng),
            dense.link_delivers(from, to, &mut dense_rng),
            "step {step}: {from:?} -> {to:?} under {plan:?}"
        );
        assert_eq!(active.beacon_losses(), dense.losses, "step {step}");
        assert_eq!(active_rng, dense_rng, "step {step}: RNG streams diverged");
    }
}
