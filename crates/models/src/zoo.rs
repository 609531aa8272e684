//! Architecture definitions: every evaluated SNN lowered to its sequence of
//! spiking GeMMs (paper Sec. VII-A model suite).
//!
//! Convolutions are lowered with im2col shape arithmetic
//! ([`spikemat::im2col::Conv2dParams`]); linear and attention layers map
//! directly. `M` always includes the unrolled time steps.

use crate::dataset::Dataset;
use crate::layer::{GemmShape, LayerKind, LayerSpec};
use spikemat::im2col::Conv2dParams;
use std::fmt;

/// The eight SNN architectures of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// Spiking VGG-16 (13 conv + classifier).
    Vgg16,
    /// Spiking VGG-9 (6 conv + 2 FC).
    Vgg9,
    /// Spiking LeNet-5 ("LN5" in Fig. 11).
    LeNet5,
    /// Spiking ResNet-18 (basic blocks).
    ResNet18,
    /// Spikformer (4 blocks, dim 384 on CIFAR).
    Spikformer,
    /// Spike-driven Transformer (2 blocks, dim 512).
    Sdt,
    /// SpikeBERT (12 encoder blocks, dim 768).
    SpikeBert,
    /// SpikingBERT (4 encoder blocks, dim 768).
    SpikingBert,
}

impl Architecture {
    /// Default number of SNN time steps `T` (paper model defaults).
    pub fn time_steps(&self) -> usize {
        4
    }

    /// `true` for the spiking-transformer architectures, which contain
    /// attention GeMMs unsupported by prior SNN ASICs.
    pub fn is_transformer(&self) -> bool {
        matches!(
            self,
            Architecture::Spikformer
                | Architecture::Sdt
                | Architecture::SpikeBert
                | Architecture::SpikingBert
        )
    }

    /// Lowers the architecture on `dataset` into its spiking-GeMM layers.
    ///
    /// # Panics
    ///
    /// Panics if the dataset modality does not fit the architecture (e.g. a
    /// CNN on an NLP dataset).
    pub fn layers(&self, dataset: Dataset) -> Vec<LayerSpec> {
        self.layers_scaled(dataset, 1.0)
    }

    /// Like [`Architecture::layers`], but scales every layer's `M` by
    /// `scale` (row subsampling) for fast tests and smoke benches. Shapes in
    /// `K`/`N` are preserved so density behaviour is unchanged.
    pub fn layers_scaled(&self, dataset: Dataset, scale: f64) -> Vec<LayerSpec> {
        let mut layers = match self {
            Architecture::Vgg16 => vgg(dataset, &VGG16_PLAN, self.time_steps()),
            Architecture::Vgg9 => vgg(dataset, &VGG9_PLAN, self.time_steps()),
            Architecture::LeNet5 => lenet5(dataset, self.time_steps()),
            Architecture::ResNet18 => resnet18(dataset, self.time_steps()),
            Architecture::Spikformer => transformer(dataset, &SPIKFORMER_CFG, self.time_steps()),
            Architecture::Sdt => transformer(dataset, &SDT_CFG, self.time_steps()),
            Architecture::SpikeBert => transformer(dataset, &SPIKEBERT_CFG, self.time_steps()),
            Architecture::SpikingBert => transformer(dataset, &SPIKINGBERT_CFG, self.time_steps()),
        };
        if scale < 1.0 {
            for l in &mut layers {
                l.shape.m = ((l.shape.m as f64 * scale).round() as usize).max(1);
            }
        }
        layers
    }

    /// All eight architectures.
    pub fn all() -> [Architecture; 8] {
        [
            Architecture::Vgg16,
            Architecture::Vgg9,
            Architecture::LeNet5,
            Architecture::ResNet18,
            Architecture::Spikformer,
            Architecture::Sdt,
            Architecture::SpikeBert,
            Architecture::SpikingBert,
        ]
    }
}

impl fmt::Display for Architecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Architecture::Vgg16 => "VGG16",
            Architecture::Vgg9 => "VGG9",
            Architecture::LeNet5 => "LN5",
            Architecture::ResNet18 => "ResNet18",
            Architecture::Spikformer => "Spikformer",
            Architecture::Sdt => "SDT",
            Architecture::SpikeBert => "SpikeBERT",
            Architecture::SpikingBert => "SpikingBERT",
        };
        f.write_str(s)
    }
}

/// One step of a VGG-style plan: `Conv(out_channels)` or a 2×2 max-pool.
enum VggStep {
    Conv(usize),
    Pool,
}

use VggStep::{Conv, Pool};

const VGG16_PLAN: [VggStep; 18] = [
    Conv(64),
    Conv(64),
    Pool,
    Conv(128),
    Conv(128),
    Pool,
    Conv(256),
    Conv(256),
    Conv(256),
    Pool,
    Conv(512),
    Conv(512),
    Conv(512),
    Pool,
    Conv(512),
    Conv(512),
    Conv(512),
    Pool,
];

const VGG9_PLAN: [VggStep; 9] = [
    Conv(64),
    Conv(64),
    Pool,
    Conv(128),
    Conv(128),
    Pool,
    Conv(256),
    Conv(256),
    Pool,
];

fn image_shape(dataset: Dataset) -> (usize, usize, usize) {
    dataset
        .image_shape()
        .unwrap_or_else(|| panic!("{dataset} is not an image dataset"))
}

#[allow(clippy::too_many_arguments)] // mirrors the Conv2dParams fields
fn conv_layer(
    name: String,
    cin: usize,
    cout: usize,
    size: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    t: usize,
) -> (LayerSpec, usize) {
    let p = Conv2dParams::square(cin, cout, size, kernel, stride, padding);
    let (m, k, n) = p.gemm_shape(t);
    (
        LayerSpec::new(name, LayerKind::Conv, GemmShape::new(m, k, n)),
        p.out_h(),
    )
}

fn vgg(dataset: Dataset, plan: &[VggStep], t: usize) -> Vec<LayerSpec> {
    let (c0, h, _) = image_shape(dataset);
    let mut layers = Vec::new();
    let mut cin = c0;
    let mut size = h;
    let mut conv_idx = 0;
    for step in plan {
        match step {
            Conv(cout) => {
                conv_idx += 1;
                let (l, out) = conv_layer(format!("conv{conv_idx}"), cin, *cout, size, 3, 1, 1, t);
                layers.push(l);
                cin = *cout;
                size = out;
            }
            Pool => size /= 2,
        }
    }
    // Classifier: global feature vector per time step.
    let feat = cin * size * size;
    layers.push(LayerSpec::new(
        "fc1",
        LayerKind::Linear,
        GemmShape::new(t, feat, 512),
    ));
    layers.push(LayerSpec::new(
        "fc2",
        LayerKind::Linear,
        GemmShape::new(t, 512, dataset.classes()),
    ));
    layers
}

fn lenet5(dataset: Dataset, t: usize) -> Vec<LayerSpec> {
    let (c0, h, _) = image_shape(dataset);
    let mut layers = Vec::new();
    let (l1, s1) = conv_layer("conv1".into(), c0, 6, h, 5, 1, 2, t);
    layers.push(l1);
    let s1p = s1 / 2;
    let (l2, s2) = conv_layer("conv2".into(), 6, 16, s1p, 5, 1, 0, t);
    layers.push(l2);
    let s2p = s2 / 2;
    let feat = 16 * s2p * s2p;
    layers.push(LayerSpec::new(
        "fc1",
        LayerKind::Linear,
        GemmShape::new(t, feat, 120),
    ));
    layers.push(LayerSpec::new(
        "fc2",
        LayerKind::Linear,
        GemmShape::new(t, 120, 84),
    ));
    layers.push(LayerSpec::new(
        "fc3",
        LayerKind::Linear,
        GemmShape::new(t, 84, dataset.classes()),
    ));
    layers
}

fn resnet18(dataset: Dataset, t: usize) -> Vec<LayerSpec> {
    let (c0, h, _) = image_shape(dataset);
    let mut layers = Vec::new();
    let (stem, mut size) = conv_layer("conv1".into(), c0, 64, h, 3, 1, 1, t);
    layers.push(stem);
    let mut cin = 64;
    for (stage, &cout) in [64usize, 128, 256, 512].iter().enumerate() {
        for block in 0..2 {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            let (l1, out) = conv_layer(
                format!("layer{}.{}.conv1", stage + 1, block),
                cin,
                cout,
                size,
                3,
                stride,
                1,
                t,
            );
            layers.push(l1);
            let (l2, _) = conv_layer(
                format!("layer{}.{}.conv2", stage + 1, block),
                cout,
                cout,
                out,
                3,
                1,
                1,
                t,
            );
            layers.push(l2);
            if stride != 1 || cin != cout {
                let (ds, _) = conv_layer(
                    format!("layer{}.{}.downsample", stage + 1, block),
                    cin,
                    cout,
                    size,
                    1,
                    stride,
                    0,
                    t,
                );
                layers.push(ds);
            }
            cin = cout;
            size = out;
        }
    }
    layers.push(LayerSpec::new(
        "fc",
        LayerKind::Linear,
        GemmShape::new(t, 512, dataset.classes()),
    ));
    layers
}

/// Transformer configuration.
struct TransformerCfg {
    name: &'static str,
    blocks: usize,
    dim: usize,
    ffn_dim: usize,
    heads: usize,
    /// Patch-grid divisor for vision datasets (`L = (h/div)²`).
    patch_div: usize,
    /// Whether the model has a convolutional patch-embedding stem (SPS).
    conv_stem: bool,
}

const SPIKFORMER_CFG: TransformerCfg = TransformerCfg {
    name: "spikformer",
    blocks: 4,
    dim: 384,
    ffn_dim: 4 * 384,
    heads: 12,
    patch_div: 4,
    conv_stem: true,
};

const SDT_CFG: TransformerCfg = TransformerCfg {
    name: "sdt",
    blocks: 2,
    dim: 512,
    ffn_dim: 4 * 512,
    heads: 8,
    patch_div: 4,
    conv_stem: true,
};

const SPIKEBERT_CFG: TransformerCfg = TransformerCfg {
    name: "spikebert",
    blocks: 12,
    dim: 768,
    ffn_dim: 3072,
    heads: 12,
    patch_div: 4,
    conv_stem: false,
};

const SPIKINGBERT_CFG: TransformerCfg = TransformerCfg {
    name: "spikingbert",
    blocks: 4,
    dim: 768,
    ffn_dim: 3072,
    heads: 12,
    patch_div: 4,
    conv_stem: false,
};

fn transformer(dataset: Dataset, cfg: &TransformerCfg, t: usize) -> Vec<LayerSpec> {
    let mut layers = Vec::new();
    let l = match dataset.seq_len() {
        Some(l) => l,
        None => {
            let (_, h, _) = image_shape(dataset);
            (h / cfg.patch_div) * (h / cfg.patch_div)
        }
    };
    if cfg.conv_stem {
        // Spiking patch splitting: a small conv stack halving resolution.
        let (c0, h, _) = image_shape(dataset);
        let mut cin = c0;
        let mut size = h;
        for (i, cout) in [cfg.dim / 8, cfg.dim / 4, cfg.dim / 2, cfg.dim]
            .into_iter()
            .enumerate()
        {
            let (conv, out) = conv_layer(
                format!("{}.sps{}", cfg.name, i),
                cin,
                cout,
                size,
                3,
                1,
                1,
                t,
            );
            layers.push(conv);
            cin = cout;
            if size > h / cfg.patch_div {
                size = out / 2; // max-pool between SPS stages
            }
        }
    }
    let m = t * l;
    let head_dim = cfg.dim / cfg.heads;
    for b in 0..cfg.blocks {
        for proj in ["q", "k", "v"] {
            layers.push(LayerSpec::new(
                format!("{}.block{b}.{proj}_proj", cfg.name),
                LayerKind::Linear,
                GemmShape::new(m, cfg.dim, cfg.dim),
            ));
        }
        // Q·Kᵀ across all heads: Σ_h (T·L × d_h × L)  ⇔  (T·L × dim × L).
        layers.push(LayerSpec::new(
            format!("{}.block{b}.attn_qk", cfg.name),
            LayerKind::Attention,
            GemmShape::new(m, cfg.dim, l),
        ));
        // attn·V across all heads: Σ_h (T·L × L × d_h)  ⇔  (T·L × L·heads, d_h)
        // modelled as (T·L × L × dim/heads) per head aggregated.
        layers.push(LayerSpec::new(
            format!("{}.block{b}.attn_v", cfg.name),
            LayerKind::Attention,
            GemmShape::new(m, l * cfg.heads, head_dim),
        ));
        layers.push(LayerSpec::new(
            format!("{}.block{b}.out_proj", cfg.name),
            LayerKind::Linear,
            GemmShape::new(m, cfg.dim, cfg.dim),
        ));
        layers.push(LayerSpec::new(
            format!("{}.block{b}.ffn1", cfg.name),
            LayerKind::Linear,
            GemmShape::new(m, cfg.dim, cfg.ffn_dim),
        ));
        layers.push(LayerSpec::new(
            format!("{}.block{b}.ffn2", cfg.name),
            LayerKind::Linear,
            GemmShape::new(m, cfg.ffn_dim, cfg.dim),
        ));
    }
    layers.push(LayerSpec::new(
        format!("{}.classifier", cfg.name),
        LayerKind::Linear,
        GemmShape::new(t, cfg.dim, dataset.classes()),
    ));
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vgg16_has_13_convs() {
        let layers = Architecture::Vgg16.layers(Dataset::Cifar100);
        let convs = layers.iter().filter(|l| l.kind == LayerKind::Conv).count();
        assert_eq!(convs, 13);
        // First conv: M = 4·32·32, K = 3·9, N = 64.
        assert_eq!(layers[0].shape, GemmShape::new(4096, 27, 64));
        // Final FC maps to 100 classes.
        assert_eq!(layers.last().unwrap().shape.n, 100);
    }

    #[test]
    fn resnet18_has_expected_conv_count() {
        let layers = Architecture::ResNet18.layers(Dataset::Cifar10);
        let convs = layers.iter().filter(|l| l.kind == LayerKind::Conv).count();
        // stem + 16 block convs + 3 downsample 1×1.
        assert_eq!(convs, 20);
    }

    #[test]
    fn spikformer_block_structure() {
        let layers = Architecture::Spikformer.layers(Dataset::Cifar10);
        let attn = layers
            .iter()
            .filter(|l| l.kind == LayerKind::Attention)
            .count();
        assert_eq!(attn, 2 * 4); // 2 attention GeMMs per block, 4 blocks
                                 // QKV projection: M = T·L = 4·64 = 256, K = N = 384.
        let q = layers
            .iter()
            .find(|l| l.name.contains("block0.q_proj"))
            .unwrap();
        assert_eq!(q.shape, GemmShape::new(256, 384, 384));
    }

    #[test]
    fn spikebert_is_large() {
        let layers = Architecture::SpikeBert.layers(Dataset::Sst2);
        let total: u64 = layers.iter().map(|l| l.shape.dense_ops()).sum();
        let small: u64 = Architecture::LeNet5
            .layers(Dataset::Mnist)
            .iter()
            .map(|l| l.shape.dense_ops())
            .sum();
        assert!(total > 50 * small);
        // 12 blocks × 8 GeMMs + classifier.
        assert_eq!(layers.len(), 12 * 8 + 1);
    }

    #[test]
    fn scaling_reduces_m_only() {
        let full = Architecture::Vgg16.layers(Dataset::Cifar10);
        let half = Architecture::Vgg16.layers_scaled(Dataset::Cifar10, 0.5);
        for (f, h) in full.iter().zip(&half) {
            assert_eq!(f.shape.k, h.shape.k);
            assert_eq!(f.shape.n, h.shape.n);
            assert!(h.shape.m <= f.shape.m);
            assert!(h.shape.m >= 1);
        }
    }

    #[test]
    #[should_panic(expected = "not an image dataset")]
    fn cnn_on_text_panics() {
        let _ = Architecture::Vgg16.layers(Dataset::Sst2);
    }

    #[test]
    fn nlp_transformer_on_text_works() {
        let layers = Architecture::SpikingBert.layers(Dataset::Mnli);
        assert!(!layers.is_empty());
        // M = T·L = 4·256.
        let q = layers.iter().find(|l| l.name.contains("q_proj")).unwrap();
        assert_eq!(q.shape.m, 1024);
    }

    #[test]
    fn all_architectures_lower_on_a_valid_dataset() {
        for arch in Architecture::all() {
            let ds = if arch.is_transformer()
                && !matches!(arch, Architecture::Spikformer | Architecture::Sdt)
            {
                Dataset::Sst2
            } else {
                Dataset::Cifar10
            };
            let layers = arch.layers(ds);
            assert!(!layers.is_empty(), "{arch}");
            for l in &layers {
                assert!(
                    l.shape.m > 0 && l.shape.k > 0 && l.shape.n > 0,
                    "{}",
                    l.name
                );
            }
        }
    }
}
