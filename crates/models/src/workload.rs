//! The paper's model × dataset evaluation suite.
//!
//! Each [`Workload`] pairs an architecture and dataset with the
//! *paper-reported* bit and product densities ([`PaperRef`]); the trace
//! generator is calibrated against these so the reproduced experiments
//! exercise the same sparsity regime as the paper's measurements. Reference
//! densities are taken from Fig. 11 (read off the chart), anchored by the
//! exact values the text quotes: VGG-16/CIFAR-100 = 34.21 % → 2.79 %,
//! SpikingBERT/SST-2 = 20.49 % → 2.98 %, SpikeBERT mean = 13.19 % → 1.23 %.

use crate::dataset::Dataset;
use crate::layer::LayerSpec;
use crate::tracegen::{TraceGen, TraceGenParams};
use crate::zoo::Architecture;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spikemat::gemm::WeightMatrix;
use spikemat::{SpikeMatrix, TileShape};

/// Paper-reported reference values for one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperRef {
    /// Bit density of the activations (Fig. 11, blue bars).
    pub bit_density: f64,
    /// Product density under the default tile geometry (Fig. 11, ours).
    pub pro_density: f64,
}

impl PaperRef {
    /// The paper's density-reduction factor (bit / product).
    pub fn reduction(&self) -> f64 {
        self.bit_density / self.pro_density
    }
}

/// One evaluated model × dataset pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Model architecture.
    pub arch: Architecture,
    /// Dataset (fixes input geometry / sequence length).
    pub dataset: Dataset,
    /// Paper-reported densities used for calibration and comparison.
    pub paper: PaperRef,
    /// RNG seed for reproducible trace generation.
    pub seed: u64,
}

/// A generated activation trace for one layer.
#[derive(Debug, Clone)]
pub struct LayerTrace {
    /// The layer's shape descriptor.
    pub spec: LayerSpec,
    /// The generated binary activation matrix (`M × K`).
    pub spikes: SpikeMatrix,
}

impl LayerTrace {
    /// The row range of timestep `t` when `M` is the unrolled concatenation
    /// of `time_steps` per-step blocks (`M = T·L`; a scaled trace whose `M`
    /// is not an exact multiple gets `⌈M/T⌉`-row blocks with a short tail).
    ///
    /// # Panics
    ///
    /// Panics if `t >= time_steps` or `time_steps == 0`.
    pub fn timestep_rows(&self, t: usize, time_steps: usize) -> std::ops::Range<usize> {
        assert!(time_steps > 0, "time_steps must be positive");
        assert!(t < time_steps, "timestep {t} out of range ({time_steps})");
        let m = self.spikes.rows();
        let block = m.div_ceil(time_steps);
        (t * block).min(m)..((t + 1) * block).min(m)
    }

    /// Extracts timestep `t`'s spike block into a caller-owned matrix
    /// (resized in place) — the engine-friendly per-timestep view.
    pub fn timestep_spikes_into(&self, t: usize, time_steps: usize, out: &mut SpikeMatrix) {
        let rows = self.timestep_rows(t, time_steps);
        self.spikes
            .submatrix_into(rows.start, 0, rows.len(), self.spikes.cols(), out);
    }

    /// Deterministic synthetic integer weights for this layer (`K × N` from
    /// the layer shape, values in `[-127, 127]` seeded by `seed` and the
    /// layer name). We cannot ship trained weights; ProSparsity is exact for
    /// any integers, so benches and tests only need reproducibility.
    pub fn synthetic_weights(&self, seed: u64) -> WeightMatrix<i64> {
        let mix = self
            .spec
            .name
            .bytes()
            .fold(seed ^ 0x9E37_79B9_7F4A_7C15, |h, b| {
                (h.rotate_left(7) ^ b as u64).wrapping_mul(0x100_0000_01B3)
            });
        let mut rng = StdRng::seed_from_u64(mix);
        WeightMatrix::from_fn(self.spec.shape.k, self.spec.shape.n, |_, _| {
            rng.gen_range(-127i64..=127)
        })
    }
}

/// A complete model trace: one spike matrix per spiking-GeMM layer.
#[derive(Debug, Clone)]
pub struct ModelTrace {
    /// The originating workload.
    pub workload: Workload,
    /// Per-layer traces in network order.
    pub layers: Vec<LayerTrace>,
}

impl ModelTrace {
    /// Total dense ops `Σ M·K·N` across layers.
    pub fn dense_ops(&self) -> u64 {
        self.layers.iter().map(|l| l.spec.shape.dense_ops()).sum()
    }

    /// Iterates the trace's spiking GeMMs in network order as
    /// `(spec, spikes)` pairs; pair each spec with
    /// [`LayerTrace::synthetic_weights`] (or real weights) to feed an
    /// execution engine.
    pub fn iter_gemms(&self) -> impl Iterator<Item = (&LayerSpec, &SpikeMatrix)> {
        self.layers.iter().map(|l| (&l.spec, &l.spikes))
    }

    /// Number of SNN timesteps unrolled into every layer's `M` dimension.
    pub fn time_steps(&self) -> usize {
        self.workload.arch.time_steps()
    }

    /// A correlated sibling of this trace: per layer, each spike row is
    /// kept verbatim with probability `1 - divergence` and otherwise
    /// resampled at that layer's observed bit density. This models another
    /// tenant running the same model on a similar input — kept rows give a
    /// shared plan cache cross-request hits, resampled rows do not.
    ///
    /// # Panics
    ///
    /// Panics if `divergence` is outside `[0, 1]`.
    pub fn perturbed(&self, divergence: f64, seed: u64) -> ModelTrace {
        assert!(
            (0.0..=1.0).contains(&divergence),
            "divergence must be in [0,1]"
        );
        let layers = self
            .layers
            .iter()
            .enumerate()
            .map(|(li, layer)| {
                let mut rng = StdRng::seed_from_u64(seed ^ (li as u64).wrapping_mul(0x9E37));
                let density = layer.spikes.density();
                let mut spikes = layer.spikes.clone();
                for i in 0..spikes.rows() {
                    if !rng.gen_bool(divergence) {
                        continue;
                    }
                    for j in 0..spikes.cols() {
                        spikes.set(i, j, rng.gen_bool(density));
                    }
                }
                LayerTrace {
                    spec: layer.spec.clone(),
                    spikes,
                }
            })
            .collect();
        ModelTrace {
            workload: self.workload,
            layers,
        }
    }

    /// Matrix-wide bit density across all layers (spike-weighted).
    pub fn bit_density(&self) -> f64 {
        let (mut ones, mut cells) = (0u64, 0u64);
        for l in &self.layers {
            ones += l.spikes.total_spikes() as u64;
            cells += (l.spikes.rows() * l.spikes.cols()) as u64;
        }
        if cells == 0 {
            0.0
        } else {
            ones as f64 / cells as f64
        }
    }
}

impl Workload {
    /// Creates a workload with explicit paper references.
    pub fn new(arch: Architecture, dataset: Dataset, bit: f64, pro: f64, seed: u64) -> Self {
        Self {
            arch,
            dataset,
            paper: PaperRef {
                bit_density: bit,
                pro_density: pro,
            },
            seed,
        }
    }

    /// `"VGG16/CIFAR100"`-style display name.
    pub fn name(&self) -> String {
        format!("{}/{}", self.arch, self.dataset)
    }

    /// The model's layer list at full size.
    pub fn layers(&self) -> Vec<LayerSpec> {
        self.arch.layers(self.dataset)
    }

    /// Calibrated generator parameters for this workload's density regime.
    pub fn gen_params(&self) -> TraceGenParams {
        TraceGenParams::calibrate(
            self.paper.bit_density,
            self.paper.pro_density,
            TileShape::prosperity_default(),
            self.seed,
        )
    }

    /// Generates the full activation trace at `scale` (1.0 = paper size;
    /// smaller values subsample rows for fast tests/smoke runs).
    pub fn generate_trace(&self, scale: f64) -> ModelTrace {
        let params = self.gen_params();
        let gen = TraceGen::new(params);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let layers = self
            .arch
            .layers_scaled(self.dataset, scale)
            .into_iter()
            .map(|spec| {
                let spikes = gen.generate(spec.shape.m, spec.shape.k, &mut rng);
                LayerTrace { spec, spikes }
            })
            .collect();
        ModelTrace {
            workload: *self,
            layers,
        }
    }

    /// A multi-tenant batch of this workload: the base trace plus
    /// `tenants - 1` correlated siblings ([`ModelTrace::perturbed`] with
    /// the given `divergence`), the input set for cross-request batch
    /// serving through one shared plan cache.
    pub fn generate_tenant_traces(
        &self,
        scale: f64,
        tenants: usize,
        divergence: f64,
    ) -> Vec<ModelTrace> {
        if tenants == 0 {
            return Vec::new();
        }
        let base = self.generate_trace(scale);
        let mut out = Vec::with_capacity(tenants);
        for t in 1..tenants {
            out.push(base.perturbed(divergence, self.seed ^ ((t as u64) << 32)));
        }
        out.insert(0, base);
        out
    }

    /// The 16 model × dataset pairs of the end-to-end evaluation (Fig. 8).
    pub fn fig8_suite() -> Vec<Workload> {
        use Architecture as A;
        use Dataset as D;
        vec![
            Workload::new(A::Vgg16, D::Cifar10, 0.320, 0.027, 101),
            Workload::new(A::Vgg16, D::Cifar100, 0.3421, 0.0279, 102),
            Workload::new(A::ResNet18, D::Cifar10, 0.180, 0.026, 103),
            Workload::new(A::ResNet18, D::Cifar100, 0.200, 0.030, 104),
            Workload::new(A::Spikformer, D::Cifar10, 0.250, 0.040, 105),
            Workload::new(A::Spikformer, D::Cifar10Dvs, 0.220, 0.035, 106),
            Workload::new(A::Spikformer, D::Cifar100, 0.260, 0.045, 107),
            Workload::new(A::Sdt, D::Cifar10, 0.150, 0.030, 108),
            Workload::new(A::Sdt, D::Cifar10Dvs, 0.130, 0.028, 109),
            Workload::new(A::Sdt, D::Cifar100, 0.160, 0.033, 110),
            Workload::new(A::SpikeBert, D::Sst2, 0.134, 0.0125, 111),
            Workload::new(A::SpikeBert, D::Mr, 0.132, 0.0130, 112),
            Workload::new(A::SpikeBert, D::Sst5, 0.130, 0.0066, 113),
            Workload::new(A::SpikingBert, D::Sst2, 0.2049, 0.0298, 114),
            Workload::new(A::SpikingBert, D::Qqp, 0.210, 0.031, 115),
            Workload::new(A::SpikingBert, D::Mnli, 0.220, 0.032, 116),
        ]
    }

    /// The density-comparison suite of Fig. 11 (Fig. 8 plus the small CNNs).
    pub fn fig11_suite() -> Vec<Workload> {
        use Architecture as A;
        use Dataset as D;
        let mut suite = vec![
            Workload::new(A::Vgg16, D::Cifar10Dvs, 0.250, 0.034, 120),
            Workload::new(A::Vgg9, D::Cifar10, 0.310, 0.030, 121),
            Workload::new(A::Vgg9, D::Cifar100, 0.330, 0.035, 122),
            Workload::new(A::LeNet5, D::Mnist, 0.480, 0.085, 123),
        ];
        suite.extend(Self::fig8_suite());
        suite
    }

    /// The VGG-16 / CIFAR-100 workload used by Tables I, II and IV.
    pub fn vgg16_cifar100() -> Workload {
        Self::fig8_suite()[1]
    }

    /// The SpikingBERT / SST-2 workload used by Table II.
    pub fn spikingbert_sst2() -> Workload {
        Self::fig8_suite()[13]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_have_paper_sizes() {
        assert_eq!(Workload::fig8_suite().len(), 16);
        assert_eq!(Workload::fig11_suite().len(), 20);
    }

    #[test]
    fn anchor_densities_match_paper_text() {
        let v = Workload::vgg16_cifar100();
        assert!((v.paper.bit_density - 0.3421).abs() < 1e-9);
        assert!((v.paper.pro_density - 0.0279).abs() < 1e-9);
        let s = Workload::spikingbert_sst2();
        assert!((s.paper.bit_density - 0.2049).abs() < 1e-9);
        assert!((s.paper.pro_density - 0.0298).abs() < 1e-9);
    }

    #[test]
    fn reduction_factors_are_plausible() {
        // Paper: up to 19.7× and average 5.0× density reduction.
        let suite = Workload::fig11_suite();
        let max = suite
            .iter()
            .map(|w| w.paper.reduction())
            .fold(0.0f64, f64::max);
        assert!(max > 15.0 && max < 25.0, "max reduction {max}");
        let mean: f64 = suite.iter().map(|w| w.paper.reduction()).sum::<f64>() / suite.len() as f64;
        assert!(mean > 4.0 && mean < 12.0, "mean reduction {mean}");
    }

    #[test]
    fn trace_generation_is_reproducible() {
        let w = Workload::new(Architecture::LeNet5, Dataset::Mnist, 0.4, 0.1, 42);
        let a = w.generate_trace(0.25);
        let b = w.generate_trace(0.25);
        assert_eq!(a.layers.len(), b.layers.len());
        for (x, y) in a.layers.iter().zip(&b.layers) {
            assert_eq!(x.spikes, y.spikes);
        }
    }

    #[test]
    fn timestep_views_cover_layer_exactly() {
        let w = Workload::new(Architecture::LeNet5, Dataset::Mnist, 0.4, 0.1, 5);
        let t = w.generate_trace(0.3);
        let steps = t.time_steps();
        assert!(steps > 0);
        for layer in &t.layers {
            let mut covered = 0;
            let mut buf = SpikeMatrix::zeros(0, 0);
            for s in 0..steps {
                let range = layer.timestep_rows(s, steps);
                assert_eq!(range.start, covered);
                covered = range.end;
                layer.timestep_spikes_into(s, steps, &mut buf);
                assert_eq!(buf.rows(), range.len());
                assert_eq!(buf.cols(), layer.spikes.cols());
                for (r, src) in range.clone().enumerate() {
                    assert_eq!(buf.row(r), layer.spikes.row(src));
                }
            }
            assert_eq!(covered, layer.spikes.rows());
        }
    }

    #[test]
    fn iter_gemms_matches_layers() {
        let w = Workload::new(Architecture::LeNet5, Dataset::Mnist, 0.4, 0.1, 5);
        let t = w.generate_trace(0.2);
        let pairs: Vec<_> = t.iter_gemms().collect();
        assert_eq!(pairs.len(), t.layers.len());
        assert_eq!(pairs[0].0, &t.layers[0].spec);
    }

    #[test]
    fn synthetic_weights_are_reproducible_and_shaped() {
        let w = Workload::new(Architecture::LeNet5, Dataset::Mnist, 0.4, 0.1, 5);
        let t = w.generate_trace(0.2);
        let l = &t.layers[0];
        let a = l.synthetic_weights(9);
        let b = l.synthetic_weights(9);
        let c = l.synthetic_weights(10);
        assert_eq!((a.rows(), a.cols()), (l.spec.shape.k, l.spec.shape.n));
        assert_eq!(a, b);
        assert_ne!(a, c); // different seed, different weights
    }

    #[test]
    fn perturbed_trace_keeps_most_rows_and_all_shapes() {
        let w = Workload::new(Architecture::LeNet5, Dataset::Mnist, 0.4, 0.1, 31);
        let base = w.generate_trace(0.3);
        let sib = base.perturbed(0.2, 99);
        assert_eq!(sib.layers.len(), base.layers.len());
        let (mut kept, mut total) = (0usize, 0usize);
        for (a, b) in base.layers.iter().zip(&sib.layers) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.spikes.rows(), b.spikes.rows());
            assert_eq!(a.spikes.cols(), b.spikes.cols());
            for i in 0..a.spikes.rows() {
                total += 1;
                kept += usize::from(a.spikes.row(i) == b.spikes.row(i));
            }
        }
        let rate = kept as f64 / total as f64;
        assert!(rate > 0.7 && rate < 0.95, "kept-row rate {rate}");
        // Zero divergence is an exact copy.
        let same = base.perturbed(0.0, 7);
        for (a, b) in base.layers.iter().zip(&same.layers) {
            assert_eq!(a.spikes, b.spikes);
        }
    }

    #[test]
    fn tenant_traces_are_reproducible_and_distinct() {
        let w = Workload::new(Architecture::LeNet5, Dataset::Mnist, 0.4, 0.1, 31);
        let a = w.generate_tenant_traces(0.25, 3, 0.3);
        let b = w.generate_tenant_traces(0.25, 3, 0.3);
        assert_eq!(a.len(), 3);
        assert!(w.generate_tenant_traces(0.25, 0, 0.3).is_empty());
        for (x, y) in a.iter().zip(&b) {
            for (lx, ly) in x.layers.iter().zip(&y.layers) {
                assert_eq!(lx.spikes, ly.spikes);
            }
        }
        // Tenants differ from the base (divergence > 0 on non-trivial rows).
        let differs = a[1]
            .layers
            .iter()
            .zip(&a[0].layers)
            .any(|(s, b)| s.spikes != b.spikes);
        assert!(differs, "tenant 1 should diverge from the base");
    }

    #[test]
    fn trace_density_tracks_paper_bit_density() {
        let w = Workload::new(Architecture::LeNet5, Dataset::Mnist, 0.45, 0.12, 9);
        let t = w.generate_trace(0.5);
        assert!(
            (t.bit_density() - 0.45).abs() < 0.08,
            "density {}",
            t.bit_density()
        );
        assert!(t.dense_ops() > 0);
    }
}
