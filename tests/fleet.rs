//! Fleet-mode acceptance suite: consistent-hash placement, snapshot
//! gossip, and the multi-process store layout.
//!
//! Three layers, strongest guarantee first:
//!
//! 1. **Placement** — [`Ring`] properties over seeded random fleets:
//!    placement is a pure function of membership (join order free), a
//!    join only pulls tenants *onto* the new node, a leave only moves the
//!    leaver's own tenants, and either event moves about
//!    `tenants / nodes` of them, never a reshuffle.
//! 2. **Gossip** — the in-process [`FleetHarness`]: a node joining a warm
//!    fleet adopts peers' plans on its bootstrap sweep, and its outputs
//!    are bit-identical to both the serial private-cache oracle and a
//!    cold loop that never gossiped. Warmth moves; results cannot.
//! 3. **Processes** — a real multi-process smoke test: fleet members as
//!    separate OS processes (this test binary re-exec'd) sharing a store
//!    directory layout, the joiner process provably warmed by the donor
//!    process's snapshot.

use prosperity::core::engine::{
    BatchPolicy, EngineConfig, FleetHarness, Ring, ServiceConfig, ServingLoop, Session,
    SnapshotStore, TraceStep,
};
use prosperity::models::tracegen::{TraceGen, TraceGenParams};
use prosperity::spikemat::gemm::{OutputMatrix, WeightMatrix};
use prosperity::spikemat::{SpikeMatrix, TileShape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fleet root removed on drop, unique per test and process.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("prosperity_fleet_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ---------------------------------------------------------------- ring --

#[test]
fn ring_placement_is_stable_across_join_orders() {
    let mut rng = StdRng::seed_from_u64(0x41B6);
    for _ in 0..16 {
        let n = rng.gen_range(2..10usize);
        let mut ids: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
        ids.sort_unstable();
        ids.dedup();
        let forward = Ring::with_nodes(&ids);
        let mut shuffled = ids.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }
        let backward = Ring::with_nodes(&shuffled);
        assert_eq!(forward, backward, "membership alone decides the ring");
        for _ in 0..200 {
            let tenant: u64 = rng.gen();
            let owner = forward.place(tenant).expect("non-empty ring");
            assert!(forward.contains(owner));
            assert_eq!(forward.place(tenant), Some(owner), "placement is stable");
        }
    }
}

/// Join/leave churn, structurally and by count. Structurally: a tenant
/// whose placement changed on a join must have landed on the joiner; on a
/// leave, only the leaver's tenants move. By count: either event moves
/// about `tenants / nodes` tenants — bounded here by
/// `⌈tenants / nodes⌉ + slack` with slack covering vnode variance.
#[test]
fn ring_join_and_leave_move_a_bounded_sliver_of_tenants() {
    let mut rng = StdRng::seed_from_u64(0xC4A2);
    let tenants: Vec<u64> = (0..600u64).map(|t| t.wrapping_mul(0x9E37_79B9)).collect();
    for round in 0..12 {
        let n = rng.gen_range(2..8usize);
        let mut ids: Vec<u64> = (0..n as u64).map(|i| i * 7 + round).collect();
        let mut ring = Ring::with_nodes(&ids);
        let before: Vec<u64> = tenants.iter().map(|&t| ring.place(t).unwrap()).collect();

        // Join: the only tenants allowed to move are the newcomer's.
        let newcomer = 0xF00D + round;
        assert!(ring.join(newcomer));
        let mut moved = 0usize;
        for (i, &t) in tenants.iter().enumerate() {
            let now = ring.place(t).unwrap();
            if now != before[i] {
                assert_eq!(
                    now, newcomer,
                    "round {round}: churn must land on the joiner"
                );
                moved += 1;
            }
        }
        let bound = tenants.len().div_ceil(ring.len()) + tenants.len() / 8;
        assert!(
            moved <= bound,
            "round {round}: join moved {moved} > bound {bound}"
        );

        // Leave (a veteran, not the newcomer): only its tenants move.
        let leaver = ids.swap_remove(rng.gen_range(0..ids.len()));
        let owned: Vec<u64> = tenants.iter().map(|&t| ring.place(t).unwrap()).collect();
        assert!(ring.leave(leaver));
        let mut moved = 0usize;
        for (i, &t) in tenants.iter().enumerate() {
            let now = ring.place(t).unwrap();
            if owned[i] == leaver {
                assert_ne!(now, leaver, "round {round}");
                moved += 1;
            } else {
                assert_eq!(now, owned[i], "round {round}: survivors keep their tenants");
            }
        }
        let bound = tenants.len().div_ceil(ring.len() + 1) + tenants.len() / 8;
        assert!(
            moved <= bound,
            "round {round}: leave moved {moved} > bound {bound}"
        );
    }
}

// -------------------------------------------------- in-process gossip --

/// Highly-correlated tenant streams: the fleet's whole point is that one
/// tenant's hot tiles are warm currency for its peers.
fn fleet_streams(
    seed: u64,
    tenants: usize,
    steps: usize,
) -> (Vec<Vec<SpikeMatrix>>, WeightMatrix<i64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let gen = TraceGen::new(TraceGenParams::uncorrelated(0.30));
    let streams = gen.generate_tenant_streams(tenants, steps, 48, 32, 0.999, 0.9995, &mut rng);
    let weights = WeightMatrix::from_fn(32, 4, |r, c| (r * 5 + c) as i64 - 11);
    (streams, weights)
}

fn serial_oracle(
    stream: &[SpikeMatrix],
    weights: &WeightMatrix<i64>,
    config: EngineConfig,
) -> Vec<OutputMatrix<i64>> {
    let mut engine = Session::new(config);
    stream
        .iter()
        .map(|spikes| {
            let mut out = OutputMatrix::zeros(0, 0);
            engine.gemm_into(spikes, weights, &mut out);
            out
        })
        .collect()
}

fn run_collect(
    serving: &mut ServingLoop<i64>,
    stream: &[SpikeMatrix],
    weights: &WeightMatrix<i64>,
) -> Vec<OutputMatrix<i64>> {
    let traces: Vec<Vec<TraceStep<'_, i64>>> = vec![stream.iter().map(|s| (s, weights)).collect()];
    let mut outs: Vec<Option<OutputMatrix<i64>>> = vec![None; stream.len()];
    serving.run(&traces, |_, step, out| outs[step] = Some(out.clone()));
    outs.into_iter()
        .map(|o| o.expect("every step served"))
        .collect()
}

/// The tentpole property: gossip-warmed execution is **bit-identical** to
/// cold execution. For seeded random fleets, a joiner that bootstraps from
/// warm peers adopts their plans (counters prove it) yet produces exactly
/// the outputs of (a) the serial private-cache oracle and (b) a cold loop
/// that never gossiped — then keeps doing so across membership churn.
#[test]
fn gossip_warmed_node_is_bit_identical_to_cold_execution() {
    let dir = TempDir::new("bitident");
    for seed in 0..6u64 {
        let root = dir.0.join(format!("seed{seed}"));
        let (streams, weights) = fleet_streams(0xF1EE7 + seed, 3, 6);
        let tile = TileShape::new(8, 8);
        let config = EngineConfig::new(tile, 512);
        let service = ServiceConfig::default().with_gossip(1, Vec::new());
        let mut fleet: FleetHarness<i64> =
            FleetHarness::new(&root, config, BatchPolicy::RoundRobin, service);

        // Two veterans serve their tenants and export their hot plans.
        fleet.join(0).expect("join 0");
        fleet.join(1).expect("join 1");
        for id in [0u64, 1] {
            let stream = &streams[id as usize];
            let oracle = serial_oracle(stream, &weights, config);
            let outs = run_collect(fleet.node_mut(id).unwrap(), stream, &weights);
            assert_eq!(outs, oracle, "seed {seed} veteran {id}");
            fleet.export_now(id, 512).expect("export");
        }

        // The joiner gossip-bootstraps from both veterans before step 0.
        fleet.join(2).expect("join 2");
        let joiner_stream = &streams[2];
        let oracle = serial_oracle(joiner_stream, &weights, config);
        let warm_outs = run_collect(fleet.node_mut(2).unwrap(), joiner_stream, &weights);
        let warm = fleet.node(2).unwrap().stats();
        assert!(warm.gossip_imports >= 2, "seed {seed}: {warm:?}");
        assert!(warm.gossip_plans_adopted > 0, "seed {seed}: {warm:?}");
        assert_eq!(warm_outs, oracle, "seed {seed}: gossip-warmed vs oracle");

        // The cold control: same stream, no fleet, no gossip.
        let mut cold =
            ServingLoop::<i64>::new(config, BatchPolicy::RoundRobin, ServiceConfig::default());
        let cold_outs = run_collect(&mut cold, joiner_stream, &weights);
        assert_eq!(
            warm_outs, cold_outs,
            "seed {seed}: warmth moved, results did not"
        );

        // Membership churn mid-life: a veteran leaves, the joiner keeps
        // serving bit-exactly against the shrunken peer set.
        let retired = fleet.leave(0).expect("leave 0");
        assert!(retired.stats().lane_faults == 0);
        let again = run_collect(fleet.node_mut(2).unwrap(), joiner_stream, &weights);
        assert_eq!(again, oracle, "seed {seed}: post-churn replay");
        assert_eq!(fleet.nodes(), &[1, 2]);
    }
}

/// The harness keeps every node's peer list glued to the ring: joins wire
/// both directions, leaves un-wire, and the shared on-disk layout is the
/// documented `node-<id>` convention.
#[test]
fn harness_membership_keeps_peers_and_layout_in_sync() {
    let dir = TempDir::new("membership");
    let config = EngineConfig::new(TileShape::new(8, 8), 128);
    let service = ServiceConfig::default().with_gossip(2, Vec::new());
    let mut fleet: FleetHarness<i64> =
        FleetHarness::new(&dir.0, config, BatchPolicy::RoundRobin, service);
    for id in [3u64, 1, 2] {
        assert!(fleet.join(id).expect("join"));
    }
    assert!(!fleet.join(2).expect("re-join"), "idempotent");
    assert_eq!(fleet.nodes(), &[1, 2, 3]);
    for id in [1u64, 2, 3] {
        assert!(FleetHarness::<i64>::store_dir(&dir.0, id).is_dir());
        let peers = &fleet.node(id).unwrap().service_config().gossip_peers;
        assert_eq!(peers.len(), 2, "node {id} gossips with every other node");
        assert!(!peers.contains(&FleetHarness::<i64>::store_dir(&dir.0, id)));
    }
    assert!(fleet.leave(2).is_some());
    assert!(fleet.leave(2).is_none());
    assert_eq!(fleet.nodes(), &[1, 3]);
    for id in [1u64, 3] {
        let peers = &fleet.node(id).unwrap().service_config().gossip_peers;
        assert_eq!(
            peers,
            &vec![FleetHarness::<i64>::store_dir(
                &dir.0,
                if id == 1 { 3 } else { 1 }
            )]
        );
    }
    // The ring shrank with the fleet; placement stays within members.
    for tenant in 0..64u64 {
        assert!([1u64, 3].contains(&fleet.place(tenant).unwrap()));
    }
}

// ------------------------------------------------------ multi-process --

/// Env var carrying a child fleet member's store directory; unset means
/// "this is not a child" and [`fleet_child_main`] is a no-op.
const CHILD_DIR: &str = "PROSPERITY_FLEET_CHILD_DIR";
/// `:`-separated peer store directories for the child's gossip sweeps.
const CHILD_PEERS: &str = "PROSPERITY_FLEET_CHILD_PEERS";

/// Deterministic workload both sides of the process boundary derive
/// independently — nothing but snapshots crosses between processes.
const CHILD_SEED: u64 = 0x000F_1EE7_0002;

/// The body of one fleet member process. As a plain `#[test]` it is a
/// no-op pass; re-exec'd by [`fleet_multi_process_smoke`] with the env
/// vars set, it serves its tenant's stream (asserting bit-identity
/// against its own serial oracle), exports its hottest plans, and writes
/// `result.txt` (`tenant=.. adopted=..`) into its store directory.
#[test]
fn fleet_child_main() {
    let Ok(dir) = std::env::var(CHILD_DIR) else {
        return;
    };
    let dir = std::path::PathBuf::from(dir);
    let tenant: usize = dir
        .file_name()
        .and_then(|n| n.to_str())
        .and_then(|n| n.strip_prefix("node-"))
        .and_then(|n| n.parse().ok())
        .expect("child dir follows the node-<id> layout");
    let peers: Vec<std::path::PathBuf> = std::env::var(CHILD_PEERS)
        .unwrap_or_default()
        .split(':')
        .filter(|s| !s.is_empty())
        .map(std::path::PathBuf::from)
        .collect();

    let (streams, weights) = fleet_streams(CHILD_SEED, 2, 6);
    let stream = &streams[tenant];
    let config = EngineConfig::new(TileShape::new(8, 8), 512);
    let oracle = serial_oracle(stream, &weights, config);

    let store = std::sync::Arc::new(SnapshotStore::new(&dir, 4).expect("open store"));
    let service = ServiceConfig::default().with_gossip(1, peers);
    let mut serving = ServingLoop::<i64>::new(config, BatchPolicy::RoundRobin, service)
        .with_snapshot_store(std::sync::Arc::clone(&store));
    let outs = run_collect(&mut serving, stream, &weights);
    assert_eq!(
        outs, oracle,
        "child {tenant}: bit-identity inside the process"
    );

    let snapshot = serving.shared_cache().export_hottest(512);
    assert!(!snapshot.is_empty());
    store.save(&snapshot).expect("export");
    let stats = serving.stats();
    std::fs::write(
        dir.join("result.txt"),
        format!("tenant={tenant} adopted={}\n", stats.gossip_plans_adopted),
    )
    .expect("write result");
}

/// Real fleet processes over a shared directory tree: a donor process
/// warms up and exports, then a joiner process gossips the donor's
/// snapshot in and proves it adopted plans it never computed. The store
/// layout is exactly [`FleetHarness::store_dir`]'s, so in-process and
/// multi-process fleets interoperate on disk.
#[test]
fn fleet_multi_process_smoke() {
    if std::env::var(CHILD_DIR).is_ok() {
        return; // never recurse inside a child
    }
    let dir = TempDir::new("procs");
    let donor_dir = FleetHarness::<i64>::store_dir(&dir.0, 0);
    let joiner_dir = FleetHarness::<i64>::store_dir(&dir.0, 1);
    std::fs::create_dir_all(&donor_dir).expect("mkdir");
    std::fs::create_dir_all(&joiner_dir).expect("mkdir");
    let exe = std::env::current_exe().expect("test binary path");
    let spawn = |node_dir: &std::path::Path, peers: &str| {
        std::process::Command::new(&exe)
            .args([
                "fleet_child_main",
                "--exact",
                "--test-threads",
                "1",
                "--quiet",
            ])
            .env(CHILD_DIR, node_dir)
            .env(CHILD_PEERS, peers)
            .status()
            .expect("spawn fleet child")
    };

    // Donor process: no peers, serves cold, exports its warm cache.
    let status = spawn(&donor_dir, "");
    assert!(status.success(), "donor process failed: {status}");
    let donor_store = SnapshotStore::new(&donor_dir, 4).expect("open donor store");
    assert!(
        donor_store.load_latest_valid().expect("walk").is_some(),
        "donor must have exported a loadable snapshot"
    );

    // Joiner process: gossips on the donor's directory, starts warm.
    let status = spawn(&joiner_dir, donor_dir.to_str().expect("utf8 path"));
    assert!(status.success(), "joiner process failed: {status}");
    let result = std::fs::read_to_string(joiner_dir.join("result.txt")).expect("joiner result");
    let adopted: u64 = result
        .split("adopted=")
        .nth(1)
        .and_then(|s| s.trim().parse().ok())
        .expect("result format");
    assert!(
        adopted > 0,
        "joiner must adopt plans across the process boundary: {result:?}"
    );
    // The donor's result shows no adoption — gossip was one-way here.
    let donor_result = std::fs::read_to_string(donor_dir.join("result.txt")).expect("donor result");
    assert!(donor_result.contains("adopted=0"), "{donor_result:?}");
}
