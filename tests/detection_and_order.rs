//! Property tests of the PPU front end: TCAM detection equivalence (both the
//! staged and the scratch-reusing batched paths), pruning invariants, forest
//! structure, and temporal-order validity — over seeded random tiles.

use prosperity::core::detect::{detect_tile, detect_tile_into, naive_subsets, TcamDetector};
use prosperity::core::order::{forest_walk_order, is_valid_order, sorted_order, BitonicSorter};
use prosperity::core::plan::TileMeta;
use prosperity::core::prune::prune_tile;
use prosperity::core::{MatchKind, ProSparsityForest};
use prosperity::spikemat::{BitRow, SpikeMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_tile(rng: &mut StdRng, max_m: usize, max_k: usize) -> SpikeMatrix {
    let m = rng.gen_range(1..=max_m);
    let k = rng.gen_range(1..=max_k);
    let density = rng.gen_range(0.0..0.8);
    SpikeMatrix::random(m, k, density, rng)
}

#[test]
fn tcam_equals_naive_pairwise_search() {
    let mut rng = StdRng::seed_from_u64(1);
    for trial in 0..128 {
        let tile = random_tile(&mut rng, 40, 24);
        assert_eq!(detect_tile(&tile), naive_subsets(&tile), "trial {trial}");
    }
}

#[test]
fn batched_detect_with_reused_scratch_equals_naive() {
    // detect_tile_into must stay exact while its scratch buffers carry
    // arbitrary state from previous (differently sized) tiles.
    let mut rng = StdRng::seed_from_u64(2);
    let mut scratch = detect_tile(&SpikeMatrix::zeros(7, 9));
    for trial in 0..128 {
        let tile = random_tile(&mut rng, 40, 24);
        detect_tile_into(&tile, &mut scratch);
        assert_eq!(scratch, naive_subsets(&tile), "trial {trial}");
    }
}

#[test]
fn tcam_match_vector_is_subset_semantics() {
    let mut rng = StdRng::seed_from_u64(3);
    let mut si = Vec::new();
    for _ in 0..64 {
        let tile = random_tile(&mut rng, 24, 16);
        let q = rng.gen_range(0..tile.rows());
        let tcam = TcamDetector::load(&tile);
        tcam.query_into(tile.row(q), &mut si);
        assert_eq!(si, tcam.query(tile.row(q)));
        for (j, &matched) in si.iter().enumerate() {
            assert_eq!(matched, tile.row(j).is_subset_of(tile.row(q)));
        }
    }
}

#[test]
fn pruner_invariants() {
    let mut rng = StdRng::seed_from_u64(4);
    for trial in 0..128 {
        let tile = random_tile(&mut rng, 40, 20);
        let detected = detect_tile(&tile);
        let pruned = prune_tile(&tile, &detected);
        for (i, row) in pruned.iter().enumerate() {
            match row.prefix {
                Some(p) => {
                    // Prefix is a nonzero subset respecting the partial order.
                    assert!(tile.row(p).is_subset_of(tile.row(i)));
                    assert!(tile.row(p).popcount() > 0);
                    let (pp, pi) = (tile.row(p).popcount(), tile.row(i).popcount());
                    assert!(pp < pi || (pp == pi && p < i));
                    // Pattern = set difference; kind consistent.
                    assert_eq!(&row.pattern, &tile.row(i).xor(tile.row(p)));
                    match row.kind {
                        MatchKind::Exact => assert!(row.pattern.is_zero()),
                        MatchKind::Partial => assert!(!row.pattern.is_zero()),
                        MatchKind::None => panic!("prefix with kind None (trial {trial})"),
                    }
                }
                None => {
                    assert_eq!(row.kind, MatchKind::None);
                    assert_eq!(&row.pattern, tile.row(i));
                }
            }
        }
    }
}

/// Rows drawn from four base rows plus 0–2 extra bits, one in eight
/// all-zero: many exact-match ties and zero rows.
fn duplicate_heavy_tile(rng: &mut StdRng, m: usize, k: usize) -> SpikeMatrix {
    let bases = SpikeMatrix::random(4, k, 0.2, rng);
    let rows = (0..m)
        .map(|_| {
            if rng.gen_range(0..8) == 0 {
                return BitRow::zeros(k);
            }
            let mut row = bases.row(rng.gen_range(0..4)).clone();
            for _ in 0..rng.gen_range(0..3) {
                row.set(rng.gen_range(0..k), true);
            }
            row
        })
        .collect();
    SpikeMatrix::from_rows(rows)
}

#[test]
fn fused_tile_meta_matches_staged_pipeline() {
    // TileMeta::build fuses Detector + Pruner into one subset query per
    // row and orders rows with a counting sort; it must select exactly
    // the staged pipeline's prefixes, kinds and patterns, and the stable
    // sort's order.
    // Up to 300 × 140 tiles span several mask words and pattern limbs.
    let mut rng = StdRng::seed_from_u64(5);
    for trial in 0..128 {
        let tile = if trial % 2 == 0 {
            random_tile(&mut rng, 300, 140)
        } else {
            let (m, k) = (rng.gen_range(1..=300), rng.gen_range(1..=140));
            duplicate_heavy_tile(&mut rng, m, k)
        };
        let meta = TileMeta::build(&tile);
        let pruned = prune_tile(&tile, &detect_tile(&tile));
        assert_eq!(meta.prefix.len(), pruned.len(), "trial {trial}");
        for (i, (got, want)) in meta.rows().zip(&pruned).enumerate() {
            assert_eq!(&got, want, "trial {trial} row {i}");
        }
        let popcounts: Vec<usize> = tile.row_slice().iter().map(BitRow::popcount).collect();
        let order: Vec<usize> = meta.dispatch_order().iter().map(|&r| r as usize).collect();
        assert_eq!(order, sorted_order(&popcounts), "trial {trial}");
    }
}

#[test]
fn forest_is_acyclic_and_orders_are_valid() {
    let mut rng = StdRng::seed_from_u64(6);
    for _ in 0..128 {
        let tile = random_tile(&mut rng, 48, 16);
        let detected = detect_tile(&tile);
        let pruned = prune_tile(&tile, &detected);
        let forest = ProSparsityForest::from_pruned(&pruned);
        assert!(forest.validate());
        assert!(forest.max_depth() < forest.len().max(1));
        // Both dispatch strategies produce valid topological orders.
        assert!(is_valid_order(&forest, &sorted_order(&detected.popcounts)));
        assert!(is_valid_order(&forest, &forest_walk_order(&forest)));
    }
}

#[test]
fn bitonic_sorter_matches_stable_sort() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..128 {
        let len = rng.gen_range(0..300);
        let pcs: Vec<usize> = (0..len).map(|_| rng.gen_range(0..32)).collect();
        let (order, sorter) = BitonicSorter::sort(&pcs);
        assert_eq!(order, sorted_order(&pcs));
        if pcs.len() > 1 {
            assert!(sorter.stages() > 0);
        }
    }
}

#[test]
fn tile_meta_consistency() {
    let mut rng = StdRng::seed_from_u64(8);
    for _ in 0..64 {
        let tile = random_tile(&mut rng, 32, 16);
        let meta = TileMeta::build(&tile);
        // The replay order is a permutation, and the derived Dispatcher
        // order is the stable popcount sort.
        let mut seen = vec![false; tile.rows()];
        for &r in &meta.exec_order {
            assert!(!seen[r as usize]);
            seen[r as usize] = true;
        }
        assert!(seen.into_iter().all(|s| s));
        let popcounts: Vec<usize> = tile.row_slice().iter().map(BitRow::popcount).collect();
        let order: Vec<usize> = meta.dispatch_order().iter().map(|&r| r as usize).collect();
        assert_eq!(order, sorted_order(&popcounts));
        // Stats bit ops equal actual spikes.
        let s = meta.stats(tile.rows(), tile.cols(), tile.total_spikes() as u64);
        assert_eq!(s.rows as usize, tile.rows());
        assert!(s.pro_ops <= s.bit_ops);
    }
}

#[test]
fn identical_rows_chain_by_index() {
    // All-equal tiles form a single EM chain 0 <- 1 <- 2 ... via the
    // largest-index tie-break, except row 0 (root).
    let row: &[u8] = &[1, 0, 1];
    let tile = SpikeMatrix::from_rows_of_bits(&[row; 5]);
    let pruned = prune_tile(&tile, &detect_tile(&tile));
    assert_eq!(pruned[0].prefix, None);
    #[allow(clippy::needless_range_loop)]
    for i in 1..5 {
        assert_eq!(pruned[i].prefix, Some(i - 1), "row {i}");
        assert_eq!(pruned[i].kind, MatchKind::Exact);
    }
}
