//! Unit tests (kept beside the module, out of its main file).

use super::super::shared::SharedPlanCache;
use super::*;
use spikemat::SpikeMatrix;
use std::sync::Mutex;

fn tile_of(rows: &[&[u8]]) -> SpikeMatrix {
    SpikeMatrix::from_rows_of_bits(rows)
}

/// The tile's flat cache key (its full-tile window).
fn key_of(tile: &SpikeMatrix) -> Vec<u64> {
    let mut key = Vec::new();
    tile.tile_key_into(0, 0, tile.rows(), tile.cols(), &mut key);
    key
}

/// A fresh admission window, built the one way the crate builds them: as a
/// tenant's handle in a shared cache's admission table.
fn window(cfg: AdmissionConfig) -> Arc<Mutex<Admission>> {
    SharedPlanCache::with_shards(0, 1, Some(cfg))
        .admission_handle(0)
        .expect("admission configured")
}

/// Fixed, non-trivial limbs for the golden hash values.
fn golden_input(n: u64) -> Vec<u64> {
    (0..n)
        .map(|i| (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i << 17))
        .collect()
}

#[test]
fn hash_limbs_is_pinned_to_the_snapshot_format() {
    // Snapshot files store each entry's hash and `decode` re-derives it from
    // the stored key, so any change to these values would quarantine every
    // file written before it. The lengths cover the empty key, a partial
    // lane set, one and more full lane rounds, and a 256-row k=16 tile.
    let golden: [(u64, u64); 7] = [
        (0, 0xB35C_D30E_B165_0F37),
        (1, 0x539F_261E_54B0_A63A),
        (3, 0xFDA8_7C16_87EF_8124),
        (4, 0xA2F7_3070_9EC4_53E3),
        (5, 0x09A4_D7A6_F702_9E02),
        (256, 0xF408_8C30_EA52_874C),
        (257, 0xE8BA_3107_68DE_D419),
    ];
    for (n, want) in golden {
        assert_eq!(hash_limbs(&golden_input(n)), want, "{n} limbs");
    }
}

#[test]
fn hash_collisions_cannot_alias_plans() {
    // Force two distinct tiles into one bucket: plans still resolve by
    // full key comparison.
    let t1 = tile_of(&[&[1, 0], &[0, 1]]);
    let t2 = tile_of(&[&[0, 1], &[1, 0]]);
    let (k1, k2) = (key_of(&t1), key_of(&t2));
    let kz = key_of(&SpikeMatrix::zeros(2, 2));
    let m1 = Arc::new(TileMeta::build(&t1));
    let m2 = Arc::new(TileMeta::build(&t2));
    let mut cache = PlanCache::new(8);
    cache.insert(42, &k1, Arc::clone(&m1));
    cache.insert(42, &k2, Arc::clone(&m2)); // same hash, different bits
    let (got1, restored1) = cache.lookup(42, &k1).expect("t1 resident");
    let (got2, _) = cache.lookup(42, &k2).expect("t2 resident");
    assert!(Arc::ptr_eq(&got1, &m1));
    assert!(Arc::ptr_eq(&got2, &m2));
    assert!(!restored1, "live insertions are not restored entries");
    assert!(cache.lookup(42, &kz).is_none());
    // A key that is a prefix of a resident one is a different key.
    assert!(cache.lookup(42, &k1[..1]).is_none());
}

#[test]
fn lru_evicts_oldest() {
    let keys: Vec<Vec<u64>> = (0..3u8)
        .map(|i| key_of(&tile_of(&[&[i & 1, (i >> 1) & 1, 1]])))
        .collect();
    let mut cache = PlanCache::new(2);
    for k in &keys {
        let meta = Arc::new(TileMeta::default());
        cache.insert(hash_limbs(k), k, meta);
    }
    assert_eq!(cache.len(), 2);
    // First-inserted tile was LRU and is gone; the other two remain.
    assert!(cache.lookup(hash_limbs(&keys[0]), &keys[0]).is_none());
    assert!(cache.lookup(hash_limbs(&keys[1]), &keys[1]).is_some());
    assert!(cache.lookup(hash_limbs(&keys[2]), &keys[2]).is_some());
}

#[test]
fn admission_closes_on_cold_stream_and_probes() {
    let cfg = AdmissionConfig {
        window: 4,
        min_hit_permille: 500,
        probe_period: 3,
    };
    let a = window(cfg);
    let mut a = a.lock().unwrap();
    // First window: open regardless.
    assert!(a.should_insert());
    for _ in 0..4 {
        a.record(false);
    }
    assert!(!a.open, "all-miss window must close admission");
    // Bypassing, with every 3rd miss probing through.
    let pattern: Vec<bool> = (0..6).map(|_| a.should_insert()).collect();
    assert_eq!(pattern, [false, false, true, false, false, true]);
    // A hot window re-opens admission.
    for _ in 0..4 {
        a.record(true);
    }
    assert!(a.open);
    assert!(a.should_insert());
}

#[test]
fn zero_probe_period_never_probes() {
    let a = window(AdmissionConfig {
        window: 2,
        min_hit_permille: 1000,
        probe_period: 0,
    });
    let mut a = a.lock().unwrap();
    a.record(false);
    a.record(false);
    assert!((0..10).all(|_| !a.should_insert()));
}
