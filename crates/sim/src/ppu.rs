//! Per-layer simulation of the ProSparsity Processing Unit.
//!
//! For every `m × k` spike tile the simulator runs the software model of
//! Detector → Pruner → Dispatcher (via [`prosperity_core::plan::TileMeta`]),
//! derives the phase timings of [`crate::pipeline`], counts the
//! micro-architectural events of [`crate::events`], and folds everything
//! into a [`LayerPerf`].

use crate::config::{ProsperityConfig, SimMode};
use crate::events::EventCounts;
use crate::pipeline::{
    compute_phase_cycles, compute_phase_cycles_with_deps, overlap_tiles, prosparsity_phase_cycles,
    TileTiming,
};
use crate::report::LayerPerf;
use prosperity_core::plan::{TileMeta, NO_PREFIX};
use prosperity_core::stats::ProStats;
use prosperity_core::MatchKind;
use spikemat::SpikeMatrix;

/// Bank parallelism of the product-sparsity table during the slow
/// (forest-walk) dispatch of the Fig. 9 ablation: the table is banked, so
/// several ancestor probes proceed per cycle; the walk still cannot overlap
/// computation the way the stable-sort dispatcher does.
pub const SLOW_DISPATCH_LANES: u64 = 4;

/// Simulates one spiking GeMM (`spikes × (K × n_cols)` weight) on the PPU.
///
/// `n_cols` is the layer's full output width `N`; the PPU covers it in
/// `⌈N / n_tile⌉` passes per spike tile, reusing the tile's meta information.
pub fn simulate_layer(spikes: &SpikeMatrix, n_cols: usize, config: &ProsperityConfig) -> LayerPerf {
    let tile_shape = config.tile;
    let n_passes = n_cols.div_ceil(config.n_tile).max(1) as u64;
    let mut events = EventCounts::default();
    let mut stats = ProStats::default();
    let mut timings = Vec::new();
    let log_m = (tile_shape.m.max(2) as f64).log2().ceil() as u64;

    for tile in spikes.tiles(tile_shape) {
        let valid = tile.valid_rows;
        let spike_bits: u64 = (0..valid).map(|r| tile.data.row(r).popcount() as u64).sum();

        // --- ProSparsity processing phase ------------------------------
        // (compute cycles per pass, per-row pattern popcounts, stats, phase, prefix rows)
        let (compute_once, pattern_pcs, tile_stats, pro_phase, prefix_rows): (
            u64,
            Vec<usize>,
            ProStats,
            u64,
            u64,
        ) = match config.mode {
            SimMode::BitSparsityOnly => {
                // No detection: rows are their own patterns.
                let pcs: Vec<usize> = (0..valid).map(|r| tile.data.row(r).popcount()).collect();
                let s = ProStats {
                    dense_ops: (valid * tile.valid_cols) as u64,
                    bit_ops: spike_bits,
                    pro_ops: spike_bits,
                    rows: valid as u64,
                    root_rows: valid as u64,
                    ..ProStats::default()
                };
                (compute_phase_cycles(pcs.iter().copied()), pcs, s, 0, 0)
            }
            SimMode::ProSparsitySlowDispatch | SimMode::Full => {
                let meta = TileMeta::build(&tile.data);
                let s = meta.stats(valid, tile.valid_cols, spike_bits);
                // Per-row issue cost: an Exact Match row spends its one
                // issue/writeback slot; a Partial Match row first loads
                // the prefix partial sum from the output buffer (Step 9)
                // and then accumulates its pattern bits; a root row
                // accumulates from zero.
                let pcs: Vec<usize> = (0..valid).map(|r| meta.ops(r)).collect();
                let costs: Vec<usize> = (0..valid)
                    .map(|r| match meta.kind(r) {
                        MatchKind::Exact => 1,
                        MatchKind::Partial => 1 + pcs[r],
                        MatchKind::None => pcs[r].max(1),
                    })
                    .collect();
                let prefixes: Vec<Option<usize>> = meta.prefix[..valid]
                    .iter()
                    .map(|&p| (p != NO_PREFIX).then_some(p as usize))
                    .collect();
                let prefix_rows = prefixes.iter().flatten().count() as u64;
                // Detector events: every valid row queries the TCAM once.
                events.tcam_queries += valid as u64;
                events.tcam_bitops += valid as u64 * (tile_shape.m * tile_shape.k) as u64;
                events.popcounts += valid as u64;
                // Pruner: each query row's SI vector is filtered and
                // argmax-reduced across all m candidate channels.
                events.prune_comparisons += valid as u64 * tile_shape.m as u64 + log_m;
                // Sorter comparators (Sec. VII-G: 2 m log m per tile).
                events.sorter_comparators += 2 * valid as u64 * log_m;
                // Table accesses: one write per row + one read per issue.
                events.table_accesses += 2 * valid as u64;
                let extra = match config.mode {
                    SimMode::ProSparsitySlowDispatch => {
                        // O(m·d) forest walk, serialized with dispatch:
                        // one table probe per ancestor per row, spread
                        // over the table's banks.
                        let forest = meta.forest();
                        let probes =
                            (0..valid).map(|r| forest.depth(r) as u64).sum::<u64>() + valid as u64;
                        probes.div_ceil(SLOW_DISPATCH_LANES)
                    }
                    _ => 0,
                };
                let pro_phase = prosparsity_phase_cycles(valid, extra);
                // Issue in the Dispatcher's order, honouring the
                // output-buffer read-after-write hazard on prefix loads.
                let order: Vec<usize> = meta
                    .dispatch_order()
                    .into_iter()
                    .map(|r| r as usize)
                    .filter(|&r| r < valid)
                    .collect();
                // A prefix index may point at a padding row (never: only
                // valid rows are nonzero, and zero rows are not usable
                // prefixes), so the slice is consistent.
                let compute = compute_phase_cycles_with_deps(&order, &prefixes, &costs);
                (compute, pcs, s, pro_phase, prefix_rows)
            }
        };

        // --- Computation phase ------------------------------------------
        let compute = compute_once * n_passes;
        let pattern_bits: u64 = pattern_pcs.iter().map(|&p| p as u64).sum();

        events.pe_accumulations += pattern_bits * n_cols as u64;
        events.prefix_loads += prefix_rows * n_passes;
        events.output_writes += valid as u64 * n_passes;
        events.weight_buffer_bytes += pattern_bits * n_cols as u64 * config.weight_bits as u64 / 8;
        events.spike_buffer_bytes += 2 * (tile_shape.m * tile_shape.k / 8) as u64;
        let out_bytes_per_row = (n_cols * config.output_bits / 8) as u64;
        events.output_buffer_bytes += (valid as u64 + prefix_rows) * out_bytes_per_row;

        stats += tile_stats;
        timings.push(TileTiming { pro_phase, compute });
    }

    // --- DRAM traffic (double-buffered, overlapped with compute) --------
    // Weight-stationary streaming: each k×n weight tile is fetched once;
    // the (tiny, bit-packed) spike tiles are re-read per n-pass instead.
    let m_total = spikes.rows();
    let k_total = spikes.cols();
    let weight_bytes = (k_total * n_cols * config.weight_bits / 8) as u64;
    let spike_bytes = (m_total * k_total) as u64 / 8 * n_passes;
    let output_bytes = (m_total * n_cols) as u64; // 8-bit post-neuron values
    events.dram_bytes += weight_bytes + spike_bytes + output_bytes;
    events.neuron_updates += (m_total * n_cols) as u64;

    let compute_side = overlap_tiles(&timings);
    let dram_cycles = (events.dram_bytes as f64 / config.dram_bytes_per_cycle()).ceil() as u64;
    let cycles = compute_side.max(dram_cycles);

    LayerPerf {
        cycles,
        compute_cycles: compute_side,
        dram_cycles,
        events,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1_matrix() -> SpikeMatrix {
        SpikeMatrix::from_rows_of_bits(&[
            &[1, 0, 1, 0],
            &[1, 0, 0, 1],
            &[1, 0, 1, 1],
            &[0, 0, 1, 0],
            &[1, 1, 0, 1],
            &[1, 1, 0, 1],
        ])
    }

    fn cfg(mode: SimMode) -> ProsperityConfig {
        ProsperityConfig {
            tile: spikemat::TileShape::new(6, 4),
            n_tile: 4,
            mode,
            ..ProsperityConfig::default()
        }
    }

    #[test]
    fn full_mode_reduces_pe_work_vs_bit_only() {
        let s = fig1_matrix();
        let full = simulate_layer(&s, 4, &cfg(SimMode::Full));
        let bit = simulate_layer(&s, 4, &cfg(SimMode::BitSparsityOnly));
        // Fig. 1: 14 bit ops vs 6 pro ops (×4 output cols).
        assert_eq!(bit.events.pe_accumulations, 14 * 4);
        assert_eq!(full.events.pe_accumulations, 6 * 4);
        assert!(full.stats.pro_ops < bit.stats.pro_ops);
    }

    #[test]
    fn compute_cycles_account_prefix_loads_and_em() {
        let s = fig1_matrix();
        let p = simulate_layer(&s, 4, &cfg(SimMode::Full));
        // Order [3,0,1,2,4,5]; costs: PM rows 1+pc, EM 1, roots max(1,pc).
        // r3 ends 1; r0 waits one forwarding bubble (1+1) → ends 4; r1 ends
        // 6; r2 waits on r1 (6+1) → ends 9; r4 ends 11; r5 waits on r4
        // (11+1) → ends 13. compute = 13 + 4 fill = 17; pro phase = 10.
        assert_eq!(p.compute_cycles, 10 + 17);
    }

    #[test]
    fn slow_dispatch_never_faster() {
        let s = fig1_matrix();
        let slow = simulate_layer(&s, 4, &cfg(SimMode::ProSparsitySlowDispatch));
        let fast = simulate_layer(&s, 4, &cfg(SimMode::Full));
        assert!(slow.compute_cycles >= fast.compute_cycles);
        // Same sparsity exploitation either way.
        assert_eq!(slow.events.pe_accumulations, fast.events.pe_accumulations);
    }

    #[test]
    fn bit_only_skips_detection_events() {
        let s = fig1_matrix();
        let p = simulate_layer(&s, 4, &cfg(SimMode::BitSparsityOnly));
        assert_eq!(p.events.tcam_bitops, 0);
        assert_eq!(p.events.sorter_comparators, 0);
        assert_eq!(p.events.prefix_loads, 0);
    }

    #[test]
    fn n_passes_scale_compute_and_events() {
        let s = fig1_matrix();
        let mut c = cfg(SimMode::Full);
        c.n_tile = 2; // N = 4 → 2 passes
        let p2 = simulate_layer(&s, 4, &c);
        let p1 = simulate_layer(&s, 4, &cfg(SimMode::Full));
        assert!(p2.compute_cycles > p1.compute_cycles);
        assert_eq!(p2.events.pe_accumulations, p1.events.pe_accumulations);
        assert_eq!(p2.events.output_writes, 2 * p1.events.output_writes);
    }

    #[test]
    fn dram_bound_layer_is_limited_by_bandwidth() {
        // Huge N with a tiny spike matrix: weight traffic dominates.
        let s = SpikeMatrix::zeros(4, 16);
        let c = ProsperityConfig {
            dram_bytes_per_sec: 1e9, // throttle
            ..ProsperityConfig::default()
        };
        let p = simulate_layer(&s, 4096, &c);
        assert_eq!(p.cycles, p.dram_cycles.max(p.compute_cycles));
        assert!(p.dram_cycles > p.compute_cycles);
    }

    #[test]
    fn stats_match_plan_densities() {
        use prosperity_core::ProSparsityPlan;
        let s = fig1_matrix();
        let p = simulate_layer(&s, 4, &cfg(SimMode::Full));
        let plan = ProSparsityPlan::build_tiled(&s, spikemat::TileShape::new(6, 4));
        assert_eq!(p.stats.pro_ops, plan.stats().pro_ops);
        assert_eq!(p.stats.bit_ops, plan.stats().bit_ops);
    }
}
