//! Calibrated synthetic spike-activation generation.
//!
//! Real SNN activation traces have two properties that matter to product
//! sparsity: a per-layer firing rate (bit density) and strong inter-row
//! combinatorial similarity — the same neuron tends to fire in adjacent time
//! steps and adjacent spatial positions, so rows of the unrolled spike matrix
//! are frequently subsets or duplicates of nearby rows.
//!
//! [`TraceGen`] reproduces both knobs: each generated row is, with
//! probability [`TraceGenParams::reuse`], *derived* from a recent row (an
//! exact copy or a superset with a few extra bits), and otherwise sampled
//! i.i.d. Bernoulli. [`TraceGenParams::calibrate`] binary-searches `reuse` so
//! that the product density measured under the accelerator's default tile
//! geometry matches the paper's reported per-workload value.

use prosperity_core::ProSparsityPlan;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spikemat::{BitRow, SpikeMatrix, TileShape};

/// Parameters of the synthetic activation generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceGenParams {
    /// Target fraction of 1-bits.
    pub bit_density: f64,
    /// Probability that a row is derived from a recent earlier row.
    pub reuse: f64,
    /// Among derived rows, the fraction that are exact copies (the rest are
    /// supersets with extra bits — Partial Match material).
    pub em_fraction: f64,
    /// Mean number of extra bits added to a superset-derived row, *per 64
    /// columns of row width* (so the pattern density of derived rows is
    /// independent of the layer's `K`).
    pub extra_bits: f64,
    /// How far back (in rows) a derived row may copy from; models the
    /// temporal/spatial locality window (e.g. `T` time steps × row stride).
    pub window: usize,
    /// Maximum derivation-chain depth. Real traces have bounded reuse
    /// chains (a neuron's activity is correlated over at most the `T` time
    /// steps plus local spatial structure); without a cap the generator
    /// would build arbitrarily deep prefix chains that no hardware trace
    /// exhibits.
    pub max_chain: usize,
}

impl TraceGenParams {
    /// Pure i.i.d. Bernoulli activations (no deliberate correlation).
    pub fn uncorrelated(bit_density: f64) -> Self {
        Self {
            bit_density,
            reuse: 0.0,
            em_fraction: 0.3,
            extra_bits: 2.0,
            window: 64,
            max_chain: 6,
        }
    }

    /// Calibrates `reuse` so the generated product density under `tile`
    /// matches `target_pro_density` as closely as the generator allows.
    ///
    /// Product density is monotonically non-increasing in `reuse`, so a
    /// bisection over `[0, 1]` converges; the result is clamped when the
    /// target lies outside the generator's reachable band (e.g. a target
    /// above the intrinsic reuse of random matrices).
    pub fn calibrate(
        bit_density: f64,
        target_pro_density: f64,
        tile: TileShape,
        seed: u64,
    ) -> Self {
        let mut params = Self {
            bit_density,
            reuse: 0.5,
            em_fraction: 0.3,
            extra_bits: 2.0,
            window: 64,
            max_chain: 6,
        };
        let probe = |p: &Self| -> f64 {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let m = TraceGen::new(*p).generate(768, 64, &mut rng);
            ProSparsityPlan::build_tiled(&m, tile).stats().pro_density()
        };
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        for _ in 0..14 {
            params.reuse = 0.5 * (lo + hi);
            if probe(&params) > target_pro_density {
                lo = params.reuse; // need more reuse to lower density
            } else {
                hi = params.reuse;
            }
        }
        params.reuse = 0.5 * (lo + hi);
        params
    }
}

/// The synthetic spike-matrix generator.
#[derive(Debug, Clone)]
pub struct TraceGen {
    params: TraceGenParams,
}

impl TraceGen {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if parameters are out of range.
    pub fn new(params: TraceGenParams) -> Self {
        assert!(
            (0.0..=1.0).contains(&params.bit_density),
            "bit_density must be in [0,1]"
        );
        assert!(
            (0.0..=1.0).contains(&params.reuse),
            "reuse must be in [0,1]"
        );
        assert!(
            (0.0..=1.0).contains(&params.em_fraction),
            "em_fraction must be in [0,1]"
        );
        assert!(params.window > 0, "window must be positive");
        assert!(params.max_chain > 0, "max_chain must be positive");
        Self { params }
    }

    /// Generator parameters.
    pub fn params(&self) -> &TraceGenParams {
        &self.params
    }

    /// Generates a temporally-correlated sequence of `steps` per-timestep
    /// spike matrices of shape `rows × k`.
    ///
    /// Step 0 is a fresh [`TraceGen::generate`] sample; in every later step
    /// each row *persists* (is copied verbatim from the previous step) with
    /// probability `persistence`, and is otherwise resampled at the
    /// generator's fresh-row density. This models the dominant temporal
    /// structure of real SNN activations — most neurons keep their firing
    /// pattern across adjacent timesteps — which is exactly the redundancy a
    /// tile-level plan cache exploits: a spike tile whose rows all persisted
    /// is bit-identical to the previous step's tile.
    ///
    /// # Panics
    ///
    /// Panics if `persistence` is outside `[0, 1]`.
    pub fn generate_timesteps<R: Rng + ?Sized>(
        &self,
        steps: usize,
        rows: usize,
        k: usize,
        persistence: f64,
        rng: &mut R,
    ) -> Vec<SpikeMatrix> {
        assert!(
            (0.0..=1.0).contains(&persistence),
            "persistence must be in [0,1]"
        );
        let mut out = Vec::with_capacity(steps);
        if steps == 0 {
            return out;
        }
        out.push(self.generate(rows, k, rng));
        let density = self.params.bit_density;
        for _ in 1..steps {
            let prev = out.last().expect("step 0 exists");
            let mut step = prev.clone();
            for i in 0..rows {
                if rng.gen_bool(persistence) {
                    continue; // row persists bit-for-bit
                }
                for j in 0..k {
                    step.set(i, j, rng.gen_bool(density));
                }
            }
            out.push(step);
        }
        out
    }

    /// Generates `tenants` temporally-correlated timestep streams that are
    /// additionally correlated *across* tenants — the multi-user serving
    /// workload where concurrent requests run the same model on similar
    /// inputs.
    ///
    /// A base stream is sampled with [`TraceGen::generate_timesteps`];
    /// tenant 0 is the base itself, and every other tenant derives each
    /// timestep from the base: a row is copied verbatim with probability
    /// `tenant_correlation` and otherwise resampled at the generator's bit
    /// density. A spike tile whose rows all copied is bit-identical across
    /// tenants, which is exactly the redundancy a shared plan cache turns
    /// into cross-request hits.
    ///
    /// # Panics
    ///
    /// Panics if `persistence` or `tenant_correlation` is outside `[0, 1]`.
    // The stream geometry really is six orthogonal knobs; a params struct
    // would just restate the argument list.
    #[allow(clippy::too_many_arguments)]
    pub fn generate_tenant_streams<R: Rng + ?Sized>(
        &self,
        tenants: usize,
        steps: usize,
        rows: usize,
        k: usize,
        persistence: f64,
        tenant_correlation: f64,
        rng: &mut R,
    ) -> Vec<Vec<SpikeMatrix>> {
        assert!(
            (0.0..=1.0).contains(&tenant_correlation),
            "tenant_correlation must be in [0,1]"
        );
        if tenants == 0 {
            return Vec::new();
        }
        let base = self.generate_timesteps(steps, rows, k, persistence, rng);
        let density = self.params.bit_density;
        let mut out = Vec::with_capacity(tenants);
        for _ in 1..tenants {
            let stream = base
                .iter()
                .map(|b| {
                    let mut step = b.clone();
                    for i in 0..rows {
                        if rng.gen_bool(tenant_correlation) {
                            continue; // row shared with the base tenant
                        }
                        for j in 0..k {
                            step.set(i, j, rng.gen_bool(density));
                        }
                    }
                    step
                })
                .collect();
            out.push(stream);
        }
        out.insert(0, base);
        out
    }

    /// Generates an `m × k` spike matrix.
    pub fn generate<R: Rng + ?Sized>(&self, m: usize, k: usize, rng: &mut R) -> SpikeMatrix {
        let p = &self.params;
        // Fresh-row density compensated for the extra bits added by
        // superset-derived rows, so the matrix-wide density hits the target.
        let extra_mean = p.extra_bits * (k.max(1) as f64 / 64.0);
        // Derivation chains (depth ≤ max_chain) accumulate extra bits over
        // roughly two levels on average, hence the empirical 2.2 factor.
        let extra_per_row = 2.2 * p.reuse * (1.0 - p.em_fraction) * extra_mean / k.max(1) as f64;
        let fresh_density = (p.bit_density - extra_per_row).clamp(0.0, 1.0);
        let mut rows: Vec<BitRow> = Vec::with_capacity(m);
        let mut depth: Vec<usize> = Vec::with_capacity(m);
        for i in 0..m {
            let lo = i.saturating_sub(p.window);
            let src = if i > 0 {
                Some(rng.gen_range(lo..i))
            } else {
                None
            };
            // Derive only while the source's chain is shallow enough.
            let derived = matches!(src, Some(s) if rng.gen_bool(p.reuse) && depth[s] < p.max_chain);
            let row = if derived {
                let src = src.expect("derived implies a source");
                depth.push(depth[src] + 1);
                let mut row = rows[src].clone();
                if !rng.gen_bool(p.em_fraction) {
                    // Superset: sprinkle extra bits on zero positions.
                    let extra = sample_extra(extra_mean, rng);
                    for _ in 0..extra {
                        let j = rng.gen_range(0..k.max(1));
                        if k > 0 {
                            row.set(j, true);
                        }
                    }
                }
                row
            } else {
                depth.push(0);
                let mut row = BitRow::zeros(k);
                for j in 0..k {
                    if rng.gen_bool(fresh_density) {
                        row.set(j, true);
                    }
                }
                row
            };
            rows.push(row);
        }
        SpikeMatrix::from_rows(rows)
    }
}

/// Samples the number of extra bits: geometric-ish around `mean`, ≥ 1.
fn sample_extra<R: Rng + ?Sized>(mean: f64, rng: &mut R) -> usize {
    let mean = mean.max(1.0);
    // 1 + Geometric(p) with expectation `mean`, truncated generously.
    let p = (1.0 / mean).clamp(1e-6, 1.0);
    let cap = (8.0 * mean) as usize;
    let mut count = 1;
    while count < cap && !rng.gen_bool(p) {
        count += 1;
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_matches_target() {
        let mut rng = StdRng::seed_from_u64(1);
        for target in [0.1, 0.3, 0.5] {
            let g = TraceGen::new(TraceGenParams {
                bit_density: target,
                reuse: 0.4,
                em_fraction: 0.3,
                extra_bits: 2.0,
                window: 32,
                max_chain: 6,
            });
            let m = g.generate(512, 64, &mut rng);
            assert!(
                (m.density() - target).abs() < 0.05,
                "target {target}, got {}",
                m.density()
            );
        }
    }

    #[test]
    fn reuse_lowers_product_density() {
        let mut rng = StdRng::seed_from_u64(2);
        let tile = TileShape::new(256, 16);
        let mk_density = |reuse: f64, rng: &mut StdRng| {
            let g = TraceGen::new(TraceGenParams {
                bit_density: 0.3,
                reuse,
                em_fraction: 0.3,
                extra_bits: 2.0,
                window: 32,
                max_chain: 6,
            });
            let m = g.generate(512, 64, rng);
            ProSparsityPlan::build_tiled(&m, tile).stats().pro_density()
        };
        let low = mk_density(0.0, &mut rng);
        let high = mk_density(0.9, &mut rng);
        assert!(
            high < low,
            "reuse 0.9 should lower pro density: {high} vs {low}"
        );
    }

    #[test]
    fn calibration_hits_reachable_target() {
        let tile = TileShape::new(256, 16);
        let params = TraceGenParams::calibrate(0.34, 0.06, tile, 7);
        let mut rng = StdRng::seed_from_u64(99);
        let m = TraceGen::new(params).generate(1024, 64, &mut rng);
        let plan = ProSparsityPlan::build_tiled(&m, tile);
        let pro = plan.stats().pro_density();
        assert!(
            (pro - 0.06).abs() < 0.03,
            "calibrated pro density {pro} far from 0.06 (reuse={})",
            params.reuse
        );
        // Bit density must stay near its own target too.
        assert!(
            (m.density() - 0.34).abs() < 0.06,
            "bit density {}",
            m.density()
        );
    }

    #[test]
    fn timesteps_persist_rows_at_the_requested_rate() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = TraceGen::new(TraceGenParams::uncorrelated(0.3));
        let steps = g.generate_timesteps(6, 256, 32, 0.9, &mut rng);
        assert_eq!(steps.len(), 6);
        let mut persisted = 0usize;
        let mut total = 0usize;
        for w in steps.windows(2) {
            for i in 0..256 {
                total += 1;
                if w[0].row(i) == w[1].row(i) {
                    persisted += 1;
                }
            }
        }
        let rate = persisted as f64 / total as f64;
        // Resampled rows occasionally reproduce the old row by chance, so
        // the observed rate sits at or slightly above the target.
        assert!(rate > 0.85 && rate < 0.97, "persistence rate {rate}");
    }

    #[test]
    fn full_persistence_repeats_the_first_step() {
        let mut rng = StdRng::seed_from_u64(22);
        let g = TraceGen::new(TraceGenParams::uncorrelated(0.25));
        let steps = g.generate_timesteps(4, 64, 16, 1.0, &mut rng);
        for s in &steps[1..] {
            assert_eq!(s, &steps[0]);
        }
    }

    #[test]
    fn zero_steps_is_empty() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = TraceGen::new(TraceGenParams::uncorrelated(0.25));
        assert!(g.generate_timesteps(0, 8, 8, 0.5, &mut rng).is_empty());
    }

    #[test]
    #[should_panic(expected = "persistence must be in [0,1]")]
    fn invalid_persistence_panics() {
        let mut rng = StdRng::seed_from_u64(24);
        let g = TraceGen::new(TraceGenParams::uncorrelated(0.25));
        let _ = g.generate_timesteps(2, 8, 8, 1.5, &mut rng);
    }

    #[test]
    fn tenant_streams_share_rows_with_the_base() {
        let mut rng = StdRng::seed_from_u64(25);
        let g = TraceGen::new(TraceGenParams::uncorrelated(0.3));
        let streams = g.generate_tenant_streams(4, 3, 128, 32, 0.95, 0.9, &mut rng);
        assert_eq!(streams.len(), 4);
        assert!(streams.iter().all(|s| s.len() == 3));
        let mut shared = 0usize;
        let mut total = 0usize;
        for tenant in &streams[1..] {
            for (t, step) in tenant.iter().enumerate() {
                for i in 0..128 {
                    total += 1;
                    if step.row(i) == streams[0][t].row(i) {
                        shared += 1;
                    }
                }
            }
        }
        let rate = shared as f64 / total as f64;
        assert!(rate > 0.85 && rate < 0.97, "cross-tenant share rate {rate}");
    }

    #[test]
    fn full_tenant_correlation_duplicates_the_base() {
        let mut rng = StdRng::seed_from_u64(26);
        let g = TraceGen::new(TraceGenParams::uncorrelated(0.25));
        let streams = g.generate_tenant_streams(3, 2, 32, 16, 0.9, 1.0, &mut rng);
        for tenant in &streams[1..] {
            assert_eq!(tenant, &streams[0]);
        }
    }

    #[test]
    fn zero_tenants_is_empty() {
        let mut rng = StdRng::seed_from_u64(27);
        let g = TraceGen::new(TraceGenParams::uncorrelated(0.25));
        assert!(g
            .generate_tenant_streams(0, 2, 8, 8, 0.5, 0.5, &mut rng)
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "tenant_correlation must be in [0,1]")]
    fn invalid_tenant_correlation_panics() {
        let mut rng = StdRng::seed_from_u64(28);
        let g = TraceGen::new(TraceGenParams::uncorrelated(0.25));
        let _ = g.generate_tenant_streams(2, 2, 8, 8, 0.5, -0.1, &mut rng);
    }

    #[test]
    fn zero_density_produces_empty_matrix() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = TraceGen::new(TraceGenParams::uncorrelated(0.0));
        let m = g.generate(64, 32, &mut rng);
        assert_eq!(m.total_spikes(), 0);
    }

    #[test]
    fn derived_rows_are_supersets_of_sources() {
        // With reuse = 1 every row after the first derives from an earlier
        // one, so every row has a subset predecessor in its window.
        let mut rng = StdRng::seed_from_u64(4);
        let g = TraceGen::new(TraceGenParams {
            bit_density: 0.3,
            reuse: 1.0,
            em_fraction: 0.5,
            extra_bits: 1.0,
            window: 8,
            max_chain: 6,
        });
        let m = g.generate(64, 32, &mut rng);
        let mut with_prefix = 0;
        for i in 1..64usize {
            let lo = i.saturating_sub(8);
            if (lo..i).any(|j| m.row(j).is_subset_of(m.row(i)) && m.row(j).popcount() > 0) {
                with_prefix += 1;
            }
        }
        assert!(with_prefix > 50, "only {with_prefix}/63 rows had a prefix");
    }

    #[test]
    #[should_panic(expected = "reuse must be in [0,1]")]
    fn invalid_reuse_panics() {
        let _ = TraceGen::new(TraceGenParams {
            bit_density: 0.5,
            reuse: 1.5,
            em_fraction: 0.0,
            extra_bits: 1.0,
            window: 1,
            max_chain: 6,
        });
    }
}
