//! A name-keyed shelf of every runnable discovery protocol — the paper's
//! algorithms, the strawman baselines, and the rival sequence schedules —
//! so campaigns, the `simulate` CLI, and the conformance suite can select
//! protocols by stable string name.
//!
//! Names are wire-stable: they appear in campaign specs (the categorical
//! `protocol` axis), in manifests, and in CI scripts. Add entries, never
//! rename them.

use crate::mcdis::{McDisDiscovery, DUTY_CLASSES};
use crate::nihao::NihaoDiscovery;
use mmhew_discovery::baseline::BirthdayProtocol;
use mmhew_discovery::{build_sync_protocols, ProtocolError, SyncAlgorithm, SyncParams};
use mmhew_engine::SyncProtocol;
use mmhew_topology::{Network, NodeId};

/// Which engine family a protocol runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Slot-synchronous ([`SyncProtocol`]); runs on the slotted executor.
    Sync,
    /// Frame-asynchronous (`AsyncProtocol`).
    Async,
}

impl Family {
    /// The engine label: a campaign spec's `"engine"` value, and the name
    /// error messages use.
    pub fn label(self) -> &'static str {
        match self {
            Family::Sync => "sync",
            Family::Async => "async",
        }
    }
}

type SyncBuildFn = fn(&Network, u64) -> Result<Vec<Box<dyn SyncProtocol>>, ProtocolError>;

/// One registered protocol: a stable name plus a builder that produces a
/// full per-node stack for a network.
pub struct ProtocolKind {
    /// Stable wire name (`"mc-dis"`, `"staged"`, ...).
    pub name: &'static str,
    /// Engine family the builder targets.
    pub family: Family,
    /// One-line description for CLI listings and docs.
    pub summary: &'static str,
    sync_build: Option<SyncBuildFn>,
}

impl ProtocolKind {
    /// Builds one protocol instance per node of `network`, in node order.
    /// `delta_est` feeds protocols that take a degree estimate; sequence
    /// protocols ignore it.
    ///
    /// # Errors
    ///
    /// Propagates [`ProtocolError`] from the underlying constructors
    /// (empty channel set, zero degree estimate).
    ///
    /// # Panics
    ///
    /// Panics if called on an [`Family::Async`] entry; check `family`
    /// first.
    pub fn build_sync(
        &self,
        network: &Network,
        delta_est: u64,
    ) -> Result<Vec<Box<dyn SyncProtocol>>, ProtocolError> {
        let build = self
            .sync_build
            .expect("build_sync on an async protocol kind; check `family` first");
        build(network, delta_est)
    }
}

/// Builds per-node boxed stacks with one closure per node.
fn per_node<F>(network: &Network, mut f: F) -> Result<Vec<Box<dyn SyncProtocol>>, ProtocolError>
where
    F: FnMut(&Network, u32) -> Result<Box<dyn SyncProtocol>, ProtocolError>,
{
    (0..network.node_count() as u32)
        .map(|i| f(network, i))
        .collect()
}

fn build_staged(
    network: &Network,
    delta_est: u64,
) -> Result<Vec<Box<dyn SyncProtocol>>, ProtocolError> {
    build_sync_protocols(network, SyncAlgorithm::Staged(SyncParams::new(delta_est)?))
}

fn build_adaptive(
    network: &Network,
    _delta_est: u64,
) -> Result<Vec<Box<dyn SyncProtocol>>, ProtocolError> {
    build_sync_protocols(network, SyncAlgorithm::Adaptive)
}

fn build_uniform(
    network: &Network,
    delta_est: u64,
) -> Result<Vec<Box<dyn SyncProtocol>>, ProtocolError> {
    build_sync_protocols(network, SyncAlgorithm::Uniform(SyncParams::new(delta_est)?))
}

fn build_per_channel(
    network: &Network,
    _delta_est: u64,
) -> Result<Vec<Box<dyn SyncProtocol>>, ProtocolError> {
    build_sync_protocols(
        network,
        SyncAlgorithm::PerChannelBirthday {
            tx_probability: 0.5,
        },
    )
}

fn build_birthday(
    network: &Network,
    _delta_est: u64,
) -> Result<Vec<Box<dyn SyncProtocol>>, ProtocolError> {
    per_node(network, |net, i| {
        let available = net.available(NodeId::new(i)).to_owned();
        // The single-channel strawman: each node runs birthday on its
        // lowest available channel, so it only ever discovers neighbors
        // sharing that channel — the weakness E11 quantifies.
        let channel = available
            .iter()
            .next()
            .ok_or(ProtocolError::EmptyChannelSet)?;
        Ok(Box::new(BirthdayProtocol::new(channel, 0.5, available)?) as Box<dyn SyncProtocol>)
    })
}

fn build_mc_dis(
    network: &Network,
    _delta_est: u64,
) -> Result<Vec<Box<dyn SyncProtocol>>, ProtocolError> {
    per_node(network, |net, i| {
        let available = net.available(NodeId::new(i)).to_owned();
        let class = DUTY_CLASSES[i as usize % DUTY_CLASSES.len()];
        Ok(Box::new(McDisDiscovery::new(available, class, i)?) as Box<dyn SyncProtocol>)
    })
}

/// All S-Nihao nodes share one grid; the rows class satisfies
/// `rows ≢ 1 (mod m)` for the prime channel-set sizes 3 and 5 (see
/// [`crate::nihao`] module docs).
const S_NIHAO_ROWS: u64 = 8;
/// A-Nihao assigns heterogeneous rows classes by node index (duty
/// ≈ 0.53 / 0.18 / 0.14 with 16 columns).
const A_NIHAO_ROWS: [u64; 3] = [2, 8, 12];
const NIHAO_COLS: u64 = 16;

fn build_s_nihao(
    network: &Network,
    _delta_est: u64,
) -> Result<Vec<Box<dyn SyncProtocol>>, ProtocolError> {
    per_node(network, |net, i| {
        let available = net.available(NodeId::new(i)).to_owned();
        Ok(
            Box::new(NihaoDiscovery::new(available, S_NIHAO_ROWS, NIHAO_COLS, i)?)
                as Box<dyn SyncProtocol>,
        )
    })
}

fn build_a_nihao(
    network: &Network,
    _delta_est: u64,
) -> Result<Vec<Box<dyn SyncProtocol>>, ProtocolError> {
    per_node(network, |net, i| {
        let available = net.available(NodeId::new(i)).to_owned();
        let rows = A_NIHAO_ROWS[i as usize % A_NIHAO_ROWS.len()];
        Ok(Box::new(NihaoDiscovery::new(available, rows, NIHAO_COLS, i)?) as Box<dyn SyncProtocol>)
    })
}

static CATALOG: &[ProtocolKind] = &[
    ProtocolKind {
        name: "staged",
        family: Family::Sync,
        summary: "Algorithm 1: staged birthday with known degree estimate",
        sync_build: Some(build_staged),
    },
    ProtocolKind {
        name: "adaptive",
        family: Family::Sync,
        summary: "Algorithm 2: adaptive estimate growth, no degree knowledge",
        sync_build: Some(build_adaptive),
    },
    ProtocolKind {
        name: "uniform",
        family: Family::Sync,
        summary: "Algorithm 3: uniform slot probabilities, variable starts",
        sync_build: Some(build_uniform),
    },
    ProtocolKind {
        name: "baseline",
        family: Family::Sync,
        summary: "per-universal-channel birthday strawman (§I)",
        sync_build: Some(build_per_channel),
    },
    ProtocolKind {
        name: "birthday",
        family: Family::Sync,
        summary: "single-channel birthday on each node's lowest channel",
        sync_build: Some(build_birthday),
    },
    ProtocolKind {
        name: "mc-dis",
        family: Family::Sync,
        summary: "Mc-Dis deterministic prime-pair hopping (arXiv:1307.3630)",
        sync_build: Some(build_mc_dis),
    },
    ProtocolKind {
        name: "s-nihao",
        family: Family::Sync,
        summary: "symmetric Nihao grid schedule (arXiv:1411.5415)",
        sync_build: Some(build_s_nihao),
    },
    ProtocolKind {
        name: "a-nihao",
        family: Family::Sync,
        summary: "asymmetric Nihao with heterogeneous duty classes",
        sync_build: Some(build_a_nihao),
    },
    ProtocolKind {
        name: "frame-based",
        family: Family::Async,
        summary: "Algorithm 4: frame-based discovery under clock drift",
        sync_build: None,
    },
];

/// Every registered protocol, in catalog order.
pub fn all() -> &'static [ProtocolKind] {
    CATALOG
}

/// Looks a protocol up by its stable wire name.
pub fn by_name(name: &str) -> Option<&'static ProtocolKind> {
    CATALOG.iter().find(|k| k.name == name)
}

/// The names registered for one engine family, in catalog order.
pub fn names(family: Family) -> Vec<&'static str> {
    CATALOG
        .iter()
        .filter(|k| k.family == family)
        .map(|k| k.name)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmhew_spectrum::AvailabilityModel;
    use mmhew_topology::NetworkBuilder;
    use mmhew_util::SeedTree;

    fn net() -> Network {
        NetworkBuilder::complete(4)
            .universe(6)
            .availability(AvailabilityModel::UniformSubset { size: 3 })
            .build(SeedTree::new(9))
            .expect("valid network")
    }

    #[test]
    fn names_are_unique_and_stable() {
        let mut seen = std::collections::BTreeSet::new();
        for kind in all() {
            assert!(seen.insert(kind.name), "duplicate {}", kind.name);
        }
        for name in [
            "staged",
            "adaptive",
            "uniform",
            "baseline",
            "birthday",
            "mc-dis",
            "s-nihao",
            "a-nihao",
            "frame-based",
        ] {
            assert!(by_name(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn sync_builders_produce_one_stack_entry_per_node() {
        let network = net();
        for kind in all().iter().filter(|k| k.family == Family::Sync) {
            let stack = kind.build_sync(&network, 4).expect(kind.name);
            assert_eq!(stack.len(), network.node_count(), "{}", kind.name);
        }
    }

    #[test]
    fn family_split_matches_engine_labels() {
        assert_eq!(names(Family::Async), vec!["frame-based"]);
        assert!(names(Family::Sync).contains(&"mc-dis"));
        assert_eq!(Family::Sync.label(), "sync");
    }

    #[test]
    fn unknown_names_miss() {
        assert!(by_name("carrier-pigeon").is_none());
    }
}
