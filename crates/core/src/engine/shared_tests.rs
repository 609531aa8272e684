//! Unit tests (kept beside the module, out of its main file).

use super::super::cache::hash_limbs;
use super::*;
use spikemat::{SpikeMatrix, TileShape};

fn tile_of(rows: &[&[u8]]) -> SpikeMatrix {
    SpikeMatrix::from_rows_of_bits(rows)
}

/// The tile's flat cache key and its hash.
fn keyed(tile: &SpikeMatrix) -> (u64, Vec<u64>) {
    let mut key = Vec::new();
    tile.tile_key_into(0, 0, tile.rows(), tile.cols(), &mut key);
    (hash_limbs(&key), key)
}

#[test]
fn shared_cache_dedupes_racing_inserts() {
    let shared = SharedPlanCache::with_shards(64, 4, None);
    let t = tile_of(&[&[1, 0, 1], &[1, 1, 0]]);
    let (h, k) = keyed(&t);
    let m1 = Arc::new(TileMeta::build(&t));
    let m2 = Arc::new(TileMeta::build(&t));
    let (kept1, o1) = shared.insert(h, &k, Arc::clone(&m1), None);
    assert_eq!(o1, InsertOutcome::Inserted);
    assert!(Arc::ptr_eq(&kept1, &m1));
    // A racing planner offering the same tile gets the resident plan, and
    // the race is ledgered as a dedup, not an admission bypass.
    let (kept2, o2) = shared.insert(h, &k, m2, None);
    assert_eq!(o2, InsertOutcome::Deduplicated);
    assert!(Arc::ptr_eq(&kept2, &m1));
    assert_eq!(shared.len(), 1);
    let s = shared.stats();
    assert_eq!(s.insertions, 1);
    assert_eq!(s.bypasses, 0);
    assert_eq!(s.dedups, 1);
    assert_eq!(s.resident, 1);
}

#[test]
fn cache_bypasses_insertions_once_closed() {
    let cfg = AdmissionConfig {
        window: 2,
        min_hit_permille: 500,
        probe_period: 0,
    };
    let cache = SharedPlanCache::with_shards(16, 1, Some(cfg));
    let admission = cache.admission_handle(0);
    let admission = admission.as_deref();
    let mut outcomes = Vec::new();
    for i in 0..6u8 {
        let t = tile_of(&[&[1, i & 1, (i >> 1) & 1, (i >> 2) & 1]]);
        let (h, k) = keyed(&t);
        assert!(cache.lookup(h, &k, admission).is_none());
        let meta = Arc::new(TileMeta::build(&t));
        outcomes.push(cache.insert(h, &k, meta, admission).1);
    }
    // The window rolls during the lookup that completes it, so the
    // second miss of the all-miss window is already bypassed; only the
    // first insertion lands.
    assert_eq!(outcomes[0], InsertOutcome::Inserted);
    assert!(outcomes[1..].iter().all(|&o| o == InsertOutcome::Bypassed));
    assert_eq!(cache.len(), 1);
}

#[test]
fn shared_cache_spreads_and_clears() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let shared = SharedPlanCache::with_shards(256, 8, None);
    assert_eq!(shared.shard_count(), 8);
    let mut rng = StdRng::seed_from_u64(11);
    let shape = TileShape::new(8, 16);
    let mut resident = 0;
    for _ in 0..64 {
        let t = SpikeMatrix::random(shape.m, shape.k, 0.5, &mut rng);
        let (h, k) = keyed(&t);
        if shared.lookup(h, &k, None).is_none() {
            let (_, o) = shared.insert(h, &k, Arc::new(TileMeta::build(&t)), None);
            if o != InsertOutcome::Bypassed {
                resident += 1;
            }
        }
    }
    assert_eq!(shared.len(), resident);
    assert!(shared.stats().hits + shared.stats().misses >= 64);
    // Lock hold time is kept per shard and summed; resetting the ledger
    // zeroes it with the other counters.
    assert!(shared.stats().lock_hold_ns > 0);
    shared.reset_stats();
    assert_eq!(shared.stats().lock_hold_ns, 0);
}

#[test]
fn admission_is_tracked_per_tenant_not_per_shard() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let cfg = AdmissionConfig {
        window: 8,
        min_hit_permille: 500,
        probe_period: 0,
    };
    // One shard: under the historical per-shard policy both tenants would
    // share a single admission window and the hot tenant's hits would keep
    // it open for everyone.
    let shared = SharedPlanCache::with_shards(256, 1, Some(cfg));
    // Each tenant's session resolves its own admission handle once, the
    // way `Session::with_shared_tenant` does.
    let hot_adm = shared.admission_handle(0);
    let cold_adm = shared.admission_handle(1);
    let mut rng = StdRng::seed_from_u64(0x7E2A);
    let hot_tile = SpikeMatrix::random(4, 16, 0.4, &mut rng);
    let (hot_hash, hot_key) = keyed(&hot_tile);
    let plan = |t: &SpikeMatrix| Arc::new(TileMeta::build(t));
    shared.insert(hot_hash, &hot_key, plan(&hot_tile), hot_adm.as_deref());
    let mut cold_bypassed = 0u64;
    let mut hot_inserted = 0u64;
    for i in 0..64 {
        // Tenant 0 replays one tile forever: a 100 % hit stream.
        assert!(shared
            .lookup(hot_hash, &hot_key, hot_adm.as_deref())
            .is_some());
        // Tenant 1 never repeats a tile: a 0 % hit stream.
        let cold = SpikeMatrix::random(4, 16, 0.4, &mut rng);
        let (cold_hash, cold_key) = keyed(&cold);
        assert!(shared
            .lookup(cold_hash, &cold_key, cold_adm.as_deref())
            .is_none());
        let (_, outcome) = shared.insert(cold_hash, &cold_key, plan(&cold), cold_adm.as_deref());
        cold_bypassed += u64::from(outcome == InsertOutcome::Bypassed);
        // The hot tenant occasionally plans something new of its own; its
        // window must stay open despite the cold tenant's misses.
        if i % 8 == 7 {
            let fresh = SpikeMatrix::random(4, 16, 0.6, &mut rng);
            let (h, k) = keyed(&fresh);
            let (_, o) = shared.insert(h, &k, plan(&fresh), hot_adm.as_deref());
            hot_inserted += u64::from(o == InsertOutcome::Inserted);
        }
    }
    assert!(
        cold_bypassed > 0,
        "cold tenant must close its own admission: {:?}",
        shared.stats()
    );
    assert_eq!(
        hot_inserted,
        8,
        "hot tenant must keep inserting: {:?}",
        shared.stats()
    );
    assert_eq!(shared.stats().tenants, 2);
}

#[test]
fn sharded_export_interleaves_recency_and_respects_n() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let shared = SharedPlanCache::with_shards(256, 4, None);
    let mut rng = StdRng::seed_from_u64(21);
    for _ in 0..32 {
        let t = SpikeMatrix::random(8, 16, 0.5, &mut rng);
        let (h, k) = keyed(&t);
        if shared.lookup(h, &k, None).is_none() {
            shared.insert(h, &k, Arc::new(TileMeta::build(&t)), None);
        }
    }
    let tile = TileShape::new(8, 16);
    let resident = shared.len();
    assert!(resident > 8);
    let full = shared.export_hottest(usize::MAX);
    assert_eq!(full.len(), resident);
    let capped = shared.export_hottest(5);
    assert_eq!(capped.len(), 5);
    // Re-importing a full export into the same cache is a no-op: every key
    // is already resident.
    let report = shared.import(&full, tile);
    assert_eq!(report.restored, 0);
    assert_eq!(report.skipped_duplicate, resident);
    // A fresh cache with a different shard layout restores everything.
    let other = SharedPlanCache::with_shards(256, 8, None);
    let report = other.import(&full, tile);
    assert_eq!(report.restored, resident);
    assert_eq!(other.len(), resident);
    assert_eq!(other.stats().restored_resident, resident);
    // Declaring a different serving shape drops everything instead of
    // planting plans the executor could misindex on a key collision.
    let misfit = SharedPlanCache::with_shards(256, 8, None);
    let report = misfit.import(&full, TileShape::new(16, 8));
    assert_eq!(report.skipped_shape, resident);
    assert_eq!(report.restored, 0);
    assert!(misfit.is_empty());
}

#[test]
fn tenants_are_counted_even_without_an_admission_policy() {
    // Regression: the tenant table used to exist only when an admission
    // policy was configured, so every no-admission deployment reported
    // `tenants: 0` in its stats no matter how many streams registered.
    let shared = SharedPlanCache::with_shards(256, 4, None);
    assert_eq!(shared.stats().tenants, 0);
    let h0 = shared.admission_handle(7);
    let h1 = shared.admission_handle(8);
    let h1_again = shared.admission_handle(8);
    // No policy means no admission windows — lookups stay un-gated…
    assert!(h0.is_none() && h1.is_none() && h1_again.is_none());
    // …but registration is still tracked, de-duplicated per tenant id.
    assert_eq!(shared.stats().tenants, 2);
    // And the liveness-only entries still age out under GC.
    shared.gc_tenants(0);
    assert_eq!(shared.gc_tenants(0), 2);
    assert_eq!(shared.stats().tenants, 0);
}

#[test]
fn recommended_shards_is_bounded_and_capacity_aware() {
    // Always a power of two in [1, 64], and never more than one shard per
    // 8 plans of capacity (tiny caches keep a single lock).
    for capacity in [0, 1, 7, 8, 64, 1024, 1 << 20] {
        let s = SharedPlanCache::recommended_shards(capacity);
        assert!(s.is_power_of_two(), "capacity {capacity}: {s}");
        assert!((1..=64).contains(&s), "capacity {capacity}: {s}");
        let by_capacity = (capacity / 8).max(1).next_power_of_two();
        assert!(s <= by_capacity, "capacity {capacity}: {s}");
    }
    assert_eq!(SharedPlanCache::recommended_shards(1), 1);
    assert_eq!(SharedPlanCache::recommended_shards(8), 1);
    // The derived default is what `new` actually uses.
    let c = SharedPlanCache::new(4096);
    assert_eq!(c.shard_count(), SharedPlanCache::recommended_shards(4096));
}

#[test]
fn shard_rounding_is_a_power_of_two() {
    assert_eq!(SharedPlanCache::with_shards(16, 3, None).shard_count(), 4);
    assert_eq!(SharedPlanCache::with_shards(16, 0, None).shard_count(), 1);
    assert_eq!(SharedPlanCache::with_shards(0, 8, None).capacity(), 0);
    // Effective capacity is the per-shard rounding times the shard count,
    // so residency can never exceed what capacity() advertises.
    let c = SharedPlanCache::with_shards(10, 8, None);
    assert_eq!(c.capacity(), 16);
    assert_eq!(c.stats().capacity, 16);
    assert_eq!(SharedPlanCache::with_shards(4096, 8, None).capacity(), 4096);
}
