//! Energy and area models.
//!
//! The paper obtains energy from Synopsys DC (logic), CACTI 7.0 (SRAM) and
//! DRAMsim3 (DRAM) at 28 nm. We substitute an event-cost model whose
//! per-event energies are **anchored to the paper's published breakdown**
//! (Fig. 10: 0.529 mm², 915 mW on Spikformer/CIFAR-10, with the Detector's
//! TCAM dominating on-chip power and DRAM dominating overall). Ratios
//! between components — which is what every evaluation figure reports — are
//! therefore preserved by construction; see DESIGN.md §4.

use crate::config::ProsperityConfig;
use crate::events::EventCounts;

/// Per-event energies in picojoules (28 nm class, calibrated to Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// One TCAM bit comparison.
    pub tcam_bitop_pj: f64,
    /// One popcount-unit operation (16-bit).
    pub popcount_pj: f64,
    /// One pruner comparator operation (subset filter / argmax channel).
    pub prune_cmp_pj: f64,
    /// One bitonic-sorter comparator evaluation.
    pub sorter_cmp_pj: f64,
    /// One product-sparsity-table access (row-wide read or write).
    pub table_access_pj: f64,
    /// One 8-bit PE accumulation.
    pub pe_add_pj: f64,
    /// One SRAM byte transferred (any on-chip buffer).
    pub sram_byte_pj: f64,
    /// One DRAM byte transferred (DDR4, ≈15 pJ/bit).
    pub dram_byte_pj: f64,
    /// One LIF neuron update (SFU / spiking neuron array).
    pub neuron_update_pj: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self {
            tcam_bitop_pj: 0.64,
            popcount_pj: 1.0,
            prune_cmp_pj: 0.12,
            sorter_cmp_pj: 0.5,
            table_access_pj: 110.0,
            pe_add_pj: 2.2,
            sram_byte_pj: 0.38,
            dram_byte_pj: 120.0,
            neuron_update_pj: 10.0,
        }
    }
}

/// Energy per architectural component, in joules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Detector (TCAM + popcount units).
    pub detector: f64,
    /// Pruner (subset filter + argmax).
    pub pruner: f64,
    /// Dispatcher (product sparsity table + bitonic sorter).
    pub dispatcher: f64,
    /// Processor (PE array + address decoder).
    pub processor: f64,
    /// On-chip buffers (spike / weight / output).
    pub buffer: f64,
    /// Other (SFU + spiking neuron array).
    pub other: f64,
    /// Off-chip DRAM.
    pub dram: f64,
}

impl EnergyBreakdown {
    /// Total energy in joules.
    pub fn total(&self) -> f64 {
        self.detector
            + self.pruner
            + self.dispatcher
            + self.processor
            + self.buffer
            + self.other
            + self.dram
    }

    /// Total on-chip energy (everything but DRAM).
    pub fn on_chip(&self) -> f64 {
        self.total() - self.dram
    }
}

impl EnergyModel {
    /// Converts event counts into a per-component energy breakdown.
    pub fn energy(&self, ev: &EventCounts) -> EnergyBreakdown {
        let pj = |n: u64, e: f64| n as f64 * e * 1e-12;
        EnergyBreakdown {
            detector: pj(ev.tcam_bitops, self.tcam_bitop_pj) + pj(ev.popcounts, self.popcount_pj),
            pruner: pj(ev.prune_comparisons, self.prune_cmp_pj),
            dispatcher: pj(ev.sorter_comparators, self.sorter_cmp_pj)
                + pj(ev.table_accesses, self.table_access_pj),
            processor: pj(ev.pe_accumulations, self.pe_add_pj),
            buffer: pj(
                ev.weight_buffer_bytes + ev.spike_buffer_bytes + ev.output_buffer_bytes,
                self.sram_byte_pj,
            ),
            other: pj(ev.neuron_updates, self.neuron_update_pj),
            dram: pj(ev.dram_bytes, self.dram_byte_pj),
        }
    }
}

/// Component area model in mm² (28 nm), anchored to the Fig. 10 breakdown at
/// the default configuration and scaled with the structures' capacities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    /// Detector anchor (0.021 mm² at 1 KB TCAM).
    pub detector_anchor: f64,
    /// Pruner anchor (0.020 mm² at 256 channels).
    pub pruner_anchor: f64,
    /// Dispatcher anchor (0.088 mm² at a 1.5 KB table for 256 rows).
    pub dispatcher_anchor: f64,
    /// Processor anchor (0.074 mm² at 128 PEs).
    pub processor_anchor: f64,
    /// Fixed overhead (SFU, neuron array, control): 0.022 mm².
    pub other: f64,
    /// Buffer anchor (0.303 mm² at the default 101 KB of SRAM).
    pub buffer_anchor: f64,
}

impl Default for AreaModel {
    fn default() -> Self {
        Self {
            detector_anchor: 0.021,
            pruner_anchor: 0.020,
            dispatcher_anchor: 0.088,
            processor_anchor: 0.074,
            other: 0.022,
            buffer_anchor: 0.303,
        }
    }
}

/// Area per component for a given configuration, in mm².
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AreaBreakdown {
    /// Detector (TCAM + popcounts).
    pub detector: f64,
    /// Pruner.
    pub pruner: f64,
    /// Dispatcher.
    pub dispatcher: f64,
    /// Processor (PE array).
    pub processor: f64,
    /// SFU / neuron array / control.
    pub other: f64,
    /// On-chip buffers.
    pub buffer: f64,
}

impl AreaBreakdown {
    /// Total die area in mm².
    pub fn total(&self) -> f64 {
        self.detector + self.pruner + self.dispatcher + self.processor + self.other + self.buffer
    }
}

impl AreaModel {
    /// Area for a configuration. CAM-like structures grow mildly
    /// super-linearly with entry count (match-line/priority logic), matching
    /// the paper's observation that hardware overhead grows super-linearly
    /// with tile size `m` (Sec. VII-B).
    pub fn area(&self, config: &ProsperityConfig) -> AreaBreakdown {
        let def = ProsperityConfig::default();
        let m_ratio = config.tile.m as f64 / def.tile.m as f64;
        let k_ratio = config.tile.k as f64 / def.tile.k as f64;
        let n_ratio = config.n_tile as f64 / def.n_tile as f64;
        let cam_scale = m_ratio.powf(1.15) * k_ratio;
        let buf_bytes = |c: &ProsperityConfig| {
            (c.spike_buffer_bytes() + c.weight_buffer_bytes() + c.output_buffer_bytes()) as f64
        };
        AreaBreakdown {
            detector: self.detector_anchor * cam_scale,
            pruner: self.pruner_anchor * m_ratio,
            dispatcher: self.dispatcher_anchor * m_ratio.powf(1.15),
            processor: self.processor_anchor * n_ratio,
            other: self.other,
            buffer: self.buffer_anchor * buf_bytes(config) / buf_bytes(&def),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_area_matches_fig10_total() {
        let a = AreaModel::default().area(&ProsperityConfig::default());
        // Fig. 10 (a): 0.529 mm² total (component sum 0.528).
        assert!((a.total() - 0.528).abs() < 0.002, "total {}", a.total());
        assert!(a.buffer > a.dispatcher);
        assert!(a.dispatcher > a.detector); // dispatcher dominates non-buffer
    }

    #[test]
    fn area_grows_superlinearly_with_m() {
        let model = AreaModel::default();
        let a256 = model.area(&ProsperityConfig::with_tile(256, 16));
        let a512 = model.area(&ProsperityConfig::with_tile(512, 16));
        // Doubling m more than doubles CAM-like area.
        assert!(a512.detector / a256.detector > 2.0);
        assert!(a512.dispatcher / a256.dispatcher > 2.0);
        // …but the processor is untouched.
        assert!((a512.processor - a256.processor).abs() < 1e-12);
    }

    #[test]
    fn energy_breakdown_totals_are_additive() {
        let ev = EventCounts {
            tcam_bitops: 1_000_000,
            pe_accumulations: 500_000,
            dram_bytes: 10_000,
            ..EventCounts::default()
        };
        let e = EnergyModel::default().energy(&ev);
        let expect = 1e6 * 0.64e-12 + 5e5 * 2.2e-12 + 1e4 * 120e-12;
        assert!((e.total() - expect).abs() < 1e-15);
        assert!((e.on_chip() - (e.total() - e.dram)).abs() < 1e-18);
    }

    #[test]
    fn dram_byte_energy_dominates_sram() {
        let m = EnergyModel::default();
        assert!(m.dram_byte_pj > 100.0 * m.sram_byte_pj);
    }
}
