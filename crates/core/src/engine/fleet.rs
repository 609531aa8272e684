//! Fleet mode: consistent-hash tenant placement plus an in-process
//! multi-node harness over the snapshot-gossip cadence.
//!
//! A *fleet* is N serving processes, each running its own
//! [`ServingLoop`] over its own [`SnapshotStore`] directory, warming each
//! other through gossip ([`ServiceConfig::with_gossip`]): every node keeps
//! exporting its hottest plans and periodically imports its peers' newest
//! snapshots. Two pieces live here:
//!
//! * [`Ring`] — a consistent-hash ring deciding which node owns which
//!   tenant. Placement is a pure function of `(members, tenant)`: the same
//!   tenant always lands on the same node until membership changes, and a
//!   join/leave only moves the tenants adjacent to the changed node's
//!   points (bounded churn), never reshuffles the whole fleet.
//! * [`FleetHarness`] — a deterministic in-process fleet for tests and
//!   benchmarks: real [`SnapshotStore`] directories under one root, real
//!   gossip between the nodes' loops, but single-threaded and seed-stable.
//!   The multi-process path (one OS process per node, spawned over the
//!   same directory layout) is exercised by `examples/fleet.rs` and the
//!   `tests/fleet.rs` smoke test; the harness and the processes share
//!   every on-disk convention via [`FleetHarness::store_dir`].
//!
//! Gossip moves *warmth*, never *results*: plans are pure functions of
//! tile content, so a fleet-warmed node is bit-identical to a cold one —
//! the `tests/fleet.rs` suite pins exactly that, including under fault
//! injection.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use super::batch::BatchPolicy;
use super::service::{ServiceConfig, ServingLoop};
use super::snapshot::SnapshotError;
use super::store::SnapshotStore;
use super::{Element, EngineConfig};

/// Virtual points each node contributes to the ring. More points smooth
/// the load split and shrink per-event churn variance; 64 keeps lookups a
/// binary search over a few hundred points for realistic fleet sizes.
pub const VNODES: usize = 64;

/// Snapshot files each [`FleetHarness`] node store retains.
const NODE_RETENTION: usize = 4;

/// SplitMix64 finalizer — the same mixer the fault plans use; good
/// avalanche, no allocation, stable across platforms.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hash of one virtual point: node identity mixed with the replica index
/// through two rounds so nodes with adjacent ids don't produce adjacent
/// points.
fn point_hash(node: u64, replica: u64) -> u64 {
    splitmix64(splitmix64(node) ^ splitmix64(replica.wrapping_add(1)))
}

/// Consistent-hash ring mapping tenants to fleet nodes.
///
/// Each member contributes [`VNODES`] points at pseudo-random positions
/// on a `u64` circle; a tenant is owned by the first point clockwise from
/// its own hash. Properties the `tests/fleet.rs` suite pins:
///
/// * **Stable placement** — [`Ring::place`] is deterministic in
///   `(members, tenant)`; iteration order of joins does not matter.
/// * **Bounded churn** — a join or leave only reassigns tenants whose
///   successor point belonged to (or now belongs to) the changed node:
///   about `tenants / nodes` of them, never a full reshuffle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ring {
    /// Sorted `(hash, node)` points, [`VNODES`] per member. Ties (hash
    /// collisions) break on node id, keeping the order deterministic.
    points: Vec<(u64, u64)>,
    /// Sorted member ids.
    nodes: Vec<u64>,
}

impl Ring {
    /// An empty ring; every [`Ring::place`] is `None` until a join.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a ring from an id list (duplicates collapse).
    pub fn with_nodes(ids: &[u64]) -> Self {
        let mut ring = Self::new();
        for &id in ids {
            ring.join(id);
        }
        ring
    }

    /// Member ids, ascending.
    pub fn nodes(&self) -> &[u64] {
        &self.nodes
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no node has joined.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// True when `node` is a member.
    pub fn contains(&self, node: u64) -> bool {
        self.nodes.binary_search(&node).is_ok()
    }

    /// Adds a member; returns false (and changes nothing) if it already
    /// joined. Only tenants landing on the new node's points move.
    pub fn join(&mut self, node: u64) -> bool {
        match self.nodes.binary_search(&node) {
            Ok(_) => false,
            Err(at) => {
                self.nodes.insert(at, node);
                for replica in 0..VNODES as u64 {
                    let point = (point_hash(node, replica), node);
                    let at = self.points.partition_point(|p| *p < point);
                    self.points.insert(at, point);
                }
                true
            }
        }
    }

    /// Removes a member; returns false if it was not one. Only tenants
    /// the node owned move (to each point's successor).
    pub fn leave(&mut self, node: u64) -> bool {
        match self.nodes.binary_search(&node) {
            Err(_) => false,
            Ok(at) => {
                self.nodes.remove(at);
                self.points.retain(|&(_, n)| n != node);
                true
            }
        }
    }

    /// The member owning `tenant`: the first point clockwise from the
    /// tenant's hash (wrapping). `None` on an empty ring.
    pub fn place(&self, tenant: u64) -> Option<u64> {
        if self.points.is_empty() {
            return None;
        }
        let h = splitmix64(tenant);
        let at = self.points.partition_point(|&(p, _)| p < h);
        let (_, node) = self.points[at % self.points.len()];
        Some(node)
    }

    /// Splits `tenants` into per-owner buckets, preserving input order
    /// within each bucket — the shape a fleet driver hands to its nodes.
    pub fn partition(&self, tenants: &[u64]) -> Vec<(u64, Vec<u64>)> {
        let mut buckets: Vec<(u64, Vec<u64>)> =
            self.nodes.iter().map(|&n| (n, Vec::new())).collect();
        for &tenant in tenants {
            if let Some(owner) = self.place(tenant) {
                if let Some((_, bucket)) = buckets.iter_mut().find(|(n, _)| *n == owner) {
                    bucket.push(tenant);
                }
            }
        }
        buckets
    }
}

/// One harness node: its serving loop plus the store it exports through.
#[derive(Debug)]
struct FleetNode<T> {
    id: u64,
    dir: PathBuf,
    store: Arc<SnapshotStore>,
    serving: ServingLoop<T>,
}

/// A deterministic in-process fleet: N [`ServingLoop`]s gossiping over
/// real [`SnapshotStore`] directories under one root.
///
/// The harness owns the membership [`Ring`] and keeps every node's gossip
/// peer list in sync with it: [`FleetHarness::join`] creates
/// `root/node-<id>` (the same layout the multi-process example uses — see
/// [`FleetHarness::store_dir`]), wires the newcomer to every existing
/// store directory, and refreshes the veterans so they gossip with the
/// newcomer too; [`FleetHarness::leave`] drops the node from the ring and
/// from every peer list (its directory stays on disk, exactly like a
/// crashed process's would, but nobody scans it anymore).
///
/// Everything is synchronous and seed-stable: exports happen on demand
/// ([`FleetHarness::export_now`]) and gossip sweeps run inline inside
/// [`ServingLoop::run`], so a fleet test replays bit-identically.
#[derive(Debug)]
pub struct FleetHarness<T = i64> {
    root: PathBuf,
    config: EngineConfig,
    policy: BatchPolicy,
    /// Per-node cadence template; `gossip_peers` is managed by the
    /// harness, the rest (snapshot/GC/gossip cadences) applies verbatim.
    service: ServiceConfig,
    ring: Ring,
    nodes: Vec<FleetNode<T>>,
}

impl<T: Element> FleetHarness<T> {
    /// A fleet over `root` (created on demand). `service` is the cadence
    /// template every node starts with; set its `gossip_every` to enable
    /// gossip (the harness fills `gossip_peers` on every membership
    /// change).
    pub fn new(
        root: impl Into<PathBuf>,
        config: EngineConfig,
        policy: BatchPolicy,
        service: ServiceConfig,
    ) -> Self {
        Self {
            root: root.into(),
            config,
            policy,
            service,
            ring: Ring::new(),
            nodes: Vec::new(),
        }
    }

    /// The store directory node `id` exports to under `root` — the single
    /// on-disk convention the in-process harness and the multi-process
    /// example share, so either side can gossip with the other.
    pub fn store_dir(root: &Path, id: u64) -> PathBuf {
        root.join(format!("node-{id:04}"))
    }

    /// The fleet root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The membership ring.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// [`Ring::place`] on the current membership.
    pub fn place(&self, tenant: u64) -> Option<u64> {
        self.ring.place(tenant)
    }

    /// Spawns node `id`: creates its store directory, builds its serving
    /// loop from the harness templates, wires gossip both ways. Returns
    /// false (no change) if `id` already joined.
    pub fn join(&mut self, id: u64) -> Result<bool, SnapshotError> {
        if !self.ring.join(id) {
            return Ok(false);
        }
        let dir = Self::store_dir(&self.root, id);
        let store = Arc::new(SnapshotStore::new(&dir, NODE_RETENTION)?);
        let mut service = self.service.clone();
        service.gossip_peers = self.nodes.iter().map(|node| node.dir.clone()).collect();
        let serving = ServingLoop::new(self.config, self.policy.clone(), service)
            .with_snapshot_store(Arc::clone(&store));
        self.nodes.push(FleetNode {
            id,
            dir,
            store,
            serving,
        });
        self.refresh_peers();
        Ok(true)
    }

    /// Retires node `id`, returning its serving loop (so a test can
    /// inspect its final stats). Its store directory stays on disk but
    /// leaves every survivor's peer list.
    pub fn leave(&mut self, id: u64) -> Option<ServingLoop<T>> {
        if !self.ring.leave(id) {
            return None;
        }
        let at = self.nodes.iter().position(|n| n.id == id)?;
        let node = self.nodes.remove(at);
        self.refresh_peers();
        Some(node.serving)
    }

    /// Points every node's gossip at every *other* node's directory.
    fn refresh_peers(&mut self) {
        let dirs: Vec<(u64, PathBuf)> = self
            .nodes
            .iter()
            .map(|node| (node.id, node.dir.clone()))
            .collect();
        for node in &mut self.nodes {
            let peers = dirs
                .iter()
                .filter(|(id, _)| *id != node.id)
                .map(|(_, dir)| dir.clone())
                .collect();
            node.serving.set_gossip_peers(peers);
        }
    }

    /// Member ids, ascending (mirrors [`Ring::nodes`]).
    pub fn nodes(&self) -> &[u64] {
        self.ring.nodes()
    }

    /// Node `id`'s serving loop.
    pub fn node(&self, id: u64) -> Option<&ServingLoop<T>> {
        self.nodes.iter().find(|n| n.id == id).map(|n| &n.serving)
    }

    /// Mutable access to node `id`'s serving loop — this is how a test
    /// drives traffic (`harness.node_mut(id).unwrap().run(...)`).
    pub fn node_mut(&mut self, id: u64) -> Option<&mut ServingLoop<T>> {
        self.nodes
            .iter_mut()
            .find(|n| n.id == id)
            .map(|n| &mut n.serving)
    }

    /// Node `id`'s snapshot store handle.
    pub fn store(&self, id: u64) -> Option<&Arc<SnapshotStore>> {
        self.nodes.iter().find(|n| n.id == id).map(|n| &n.store)
    }

    /// Synchronously exports node `id`'s hottest `plans` to its store —
    /// the deterministic stand-in for the background snapshot cadence,
    /// so tests control exactly what peers can gossip. Returns the file
    /// written.
    pub fn export_now(&mut self, id: u64, plans: usize) -> Result<PathBuf, SnapshotError> {
        let node = self
            .nodes
            .iter()
            .find(|n| n.id == id)
            .ok_or(SnapshotError::Corrupt("unknown fleet node"))?;
        let snapshot = node.serving.shared_cache().export_hottest(plans);
        node.store.save(&snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_deterministic_and_join_order_free() {
        let a = Ring::with_nodes(&[1, 2, 3, 4]);
        let b = Ring::with_nodes(&[4, 2, 1, 3, 2]);
        assert_eq!(a, b);
        assert_eq!(a.nodes(), &[1, 2, 3, 4]);
        for tenant in 0..256u64 {
            assert_eq!(a.place(tenant), b.place(tenant));
            assert!(a.contains(a.place(tenant).unwrap()));
        }
        assert_eq!(Ring::new().place(7), None);
    }

    #[test]
    fn ring_spreads_tenants_across_members() {
        let ring = Ring::with_nodes(&[10, 20, 30, 40]);
        let tenants: Vec<u64> = (0..4000).collect();
        let buckets = ring.partition(&tenants);
        assert_eq!(buckets.len(), 4);
        let total: usize = buckets.iter().map(|(_, b)| b.len()).sum();
        assert_eq!(total, tenants.len());
        for (node, bucket) in &buckets {
            // Far from uniform bounds on purpose: just pin that no member
            // is starved or hogging (vnode smoothing works at all).
            assert!(
                bucket.len() > tenants.len() / 16 && bucket.len() < tenants.len() / 2,
                "node {node} owns {} of {}",
                bucket.len(),
                tenants.len()
            );
        }
    }

    #[test]
    fn leave_undoes_join_exactly() {
        let mut ring = Ring::with_nodes(&[1, 2, 3]);
        let before = ring.clone();
        assert!(ring.join(9));
        assert!(!ring.join(9));
        assert!(ring.leave(9));
        assert!(!ring.leave(9));
        assert_eq!(ring, before);
    }
}
