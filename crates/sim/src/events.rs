//! Micro-architectural event counters.
//!
//! Every unit of the PPU contributes countable events; the energy model
//! multiplies these by per-event costs. Counting events rather than
//! integrating power traces keeps the simulator fast while preserving the
//! paper's cost structure (Sec. VII-G counts exactly these events).

use std::ops::{Add, AddAssign};

/// Event counts accumulated over a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventCounts {
    /// TCAM subset-search queries (one per row per tile).
    pub tcam_queries: u64,
    /// TCAM bit comparisons (`m × k` per query) — the paper's cost unit.
    pub tcam_bitops: u64,
    /// Popcount-unit operations (one per row per tile).
    pub popcounts: u64,
    /// Pruner comparator operations (subset filter + argmax).
    pub prune_comparisons: u64,
    /// Bitonic-sorter comparator evaluations.
    pub sorter_comparators: u64,
    /// Product-sparsity-table accesses (row issue + prefix lookups).
    pub table_accesses: u64,
    /// PE weight accumulations (8-bit adds), the dominant compute event.
    pub pe_accumulations: u64,
    /// Prefix partial-sum loads from the output buffer (rows with a prefix).
    pub prefix_loads: u64,
    /// Output-row writebacks.
    pub output_writes: u64,
    /// Bytes read from the weight buffer.
    pub weight_buffer_bytes: u64,
    /// Bytes read from the spike buffer.
    pub spike_buffer_bytes: u64,
    /// Bytes read/written on the output buffer.
    pub output_buffer_bytes: u64,
    /// Bytes moved to/from DRAM.
    pub dram_bytes: u64,
    /// LIF neuron-array updates (one per output element).
    pub neuron_updates: u64,
}

impl EventCounts {
    /// Sum of all on-chip compute events, a coarse activity proxy.
    pub fn total_onchip_events(&self) -> u64 {
        self.tcam_bitops
            + self.popcounts
            + self.prune_comparisons
            + self.sorter_comparators
            + self.table_accesses
            + self.pe_accumulations
            + self.prefix_loads
            + self.output_writes
            + self.neuron_updates
    }
}

impl Add for EventCounts {
    type Output = Self;

    fn add(mut self, rhs: Self) -> Self {
        self += rhs;
        self
    }
}

impl AddAssign for EventCounts {
    fn add_assign(&mut self, r: Self) {
        self.tcam_queries += r.tcam_queries;
        self.tcam_bitops += r.tcam_bitops;
        self.popcounts += r.popcounts;
        self.prune_comparisons += r.prune_comparisons;
        self.sorter_comparators += r.sorter_comparators;
        self.table_accesses += r.table_accesses;
        self.pe_accumulations += r.pe_accumulations;
        self.prefix_loads += r.prefix_loads;
        self.output_writes += r.output_writes;
        self.weight_buffer_bytes += r.weight_buffer_bytes;
        self.spike_buffer_bytes += r.spike_buffer_bytes;
        self.output_buffer_bytes += r.output_buffer_bytes;
        self.dram_bytes += r.dram_bytes;
        self.neuron_updates += r.neuron_updates;
    }
}

impl std::iter::Sum for EventCounts {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates_all_fields() {
        let a = EventCounts {
            tcam_queries: 1,
            tcam_bitops: 2,
            popcounts: 3,
            prune_comparisons: 4,
            sorter_comparators: 5,
            table_accesses: 6,
            pe_accumulations: 7,
            prefix_loads: 8,
            output_writes: 9,
            weight_buffer_bytes: 10,
            spike_buffer_bytes: 11,
            output_buffer_bytes: 12,
            dram_bytes: 13,
            neuron_updates: 14,
        };
        let s = a + a;
        assert_eq!(s.tcam_bitops, 4);
        assert_eq!(s.dram_bytes, 26);
        assert_eq!(s.neuron_updates, 28);
        assert_eq!(
            s.total_onchip_events(),
            2 * (2 + 3 + 4 + 5 + 6 + 7 + 8 + 9 + 14)
        );
    }

    #[test]
    fn sum_over_iterator() {
        let parts = vec![EventCounts::default(); 3];
        let total: EventCounts = parts.into_iter().sum();
        assert_eq!(total, EventCounts::default());
    }
}
