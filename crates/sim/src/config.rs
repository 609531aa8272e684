//! Architecture configuration (paper Table III).

use spikemat::TileShape;

/// Simulation mode, matching the Fig. 9 ablation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimMode {
    /// Unstructured bit sparsity only: the row-wise dataflow and address
    /// decoder skip every zero, but no prefix reuse happens.
    BitSparsityOnly,
    /// Product sparsity with the high-overhead Dispatcher: execution order
    /// is found by walking the ProSparsity forest (O(m·d)), serialized with
    /// computation.
    ProSparsitySlowDispatch,
    /// Full Prosperity: product sparsity with the overhead-free stable-sort
    /// dispatch, fully overlapped with computation.
    Full,
}

/// The Prosperity architecture setup (Table III defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProsperityConfig {
    /// Spike-tile geometry `m × k` (default 256 × 16).
    pub tile: TileShape,
    /// Output-tile width `n` = number of PEs (default 128).
    pub n_tile: usize,
    /// Clock frequency in Hz (default 500 MHz).
    pub freq_hz: f64,
    /// DRAM bandwidth in bytes/second (default 64 GB/s: DDR4-2133 ×4ch).
    pub dram_bytes_per_sec: f64,
    /// Weight precision in bits (default 8).
    pub weight_bits: usize,
    /// Output partial-sum precision in bits (default 24, sized so the
    /// 96 KB output buffer holds a 256 × 128 tile).
    pub output_bits: usize,
    /// Simulation mode (ablations).
    pub mode: SimMode,
}

impl Default for ProsperityConfig {
    fn default() -> Self {
        Self {
            tile: TileShape::prosperity_default(),
            n_tile: 128,
            freq_hz: 500e6,
            dram_bytes_per_sec: 64e9,
            weight_bits: 8,
            output_bits: 24,
            mode: SimMode::Full,
        }
    }
}

impl ProsperityConfig {
    /// Returns the default config with a different tile geometry (DSE).
    pub fn with_tile(m: usize, k: usize) -> Self {
        Self {
            tile: TileShape::new(m, k),
            ..Self::default()
        }
    }

    /// Returns the default config in the given mode.
    pub fn with_mode(mode: SimMode) -> Self {
        Self {
            mode,
            ..Self::default()
        }
    }

    /// DRAM bytes transferable per clock cycle (128 B at defaults).
    pub fn dram_bytes_per_cycle(&self) -> f64 {
        self.dram_bytes_per_sec / self.freq_hz
    }

    /// Spike buffer bytes: double-buffered `m × k` bit tile.
    pub fn spike_buffer_bytes(&self) -> usize {
        2 * self.tile.m * self.tile.k / 8
    }

    /// Weight buffer bytes: double-buffered `k × n` tile at weight precision.
    pub fn weight_buffer_bytes(&self) -> usize {
        2 * self.tile.k * self.n_tile * self.weight_bits / 8
    }

    /// Output buffer bytes: one `m × n` tile of partial sums.
    pub fn output_buffer_bytes(&self) -> usize {
        self.tile.m * self.n_tile * self.output_bits / 8
    }

    /// TCAM bytes: double-buffered `m × k` bits.
    pub fn tcam_bytes(&self) -> usize {
        2 * self.tile.m * self.tile.k / 8
    }

    /// Seconds per cycle.
    pub fn cycle_time(&self) -> f64 {
        1.0 / self.freq_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table3() {
        let c = ProsperityConfig::default();
        assert_eq!((c.tile.m, c.tile.k, c.n_tile), (256, 16, 128));
        assert_eq!(c.tcam_bytes(), 1024); // 1 KB TCAM
        assert_eq!(c.output_buffer_bytes(), 96 * 1024); // 96 KB output buffer
        assert_eq!(c.spike_buffer_bytes(), 1024);
        assert_eq!(c.weight_buffer_bytes(), 4096);
        assert!((c.dram_bytes_per_cycle() - 128.0).abs() < 1e-9);
    }

    #[test]
    fn with_tile_overrides_geometry() {
        let c = ProsperityConfig::with_tile(64, 32);
        assert_eq!((c.tile.m, c.tile.k), (64, 32));
        assert_eq!(c.n_tile, 128);
    }

    #[test]
    fn cycle_time_inverse_of_freq() {
        let c = ProsperityConfig::default();
        assert!((c.cycle_time() - 2e-9).abs() < 1e-15);
    }
}
