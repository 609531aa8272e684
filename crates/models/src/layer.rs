//! Per-layer spiking-GeMM shape descriptors.

/// The `(M, K, N)` shape of one spiking GeMM.
///
/// `M` already includes the unrolled time steps (`M = T·L` or `T·OH·OW`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmShape {
    /// Spike-matrix rows.
    pub m: usize,
    /// Inner (reduction) dimension.
    pub k: usize,
    /// Output columns.
    pub n: usize,
}

impl GemmShape {
    /// Creates a shape.
    pub fn new(m: usize, k: usize, n: usize) -> Self {
        Self { m, k, n }
    }

    /// Dense scalar-operation count `M·K·N`.
    pub fn dense_ops(&self) -> u64 {
        self.m as u64 * self.k as u64 * self.n as u64
    }
}

/// What kind of network operation a spiking GeMM was lowered from.
///
/// The kind matters for baseline support: prior SNN ASICs handle
/// convolutions and linear projections but not the attention GeMMs of
/// spiking transformers (paper Sec. VII-A runs PTB/SATO/MINT on linear
/// layers only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Convolution lowered by im2col.
    Conv,
    /// Fully connected / linear projection (incl. QKV, FFN).
    Linear,
    /// Spiking attention GeMM (`Q·Kᵀ` or `attn·V`), binary × binary.
    Attention,
}

/// One spiking-GeMM layer of a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerSpec {
    /// Human-readable layer name (e.g. `conv3_2`, `block5.ffn1`).
    pub name: String,
    /// Operation kind.
    pub kind: LayerKind,
    /// GeMM shape with time steps unrolled into `M`.
    pub shape: GemmShape,
}

impl LayerSpec {
    /// Creates a layer spec.
    pub fn new(name: impl Into<String>, kind: LayerKind, shape: GemmShape) -> Self {
        Self {
            name: name.into(),
            kind,
            shape,
        }
    }

    /// `true` if prior SNN accelerators (PTB/SATO/MINT/Stellar) support this
    /// layer natively; attention GeMMs are not supported (Sec. II-B).
    pub fn supported_by_prior_asics(&self) -> bool {
        !matches!(self.kind, LayerKind::Attention)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_ops_product() {
        assert_eq!(GemmShape::new(4, 5, 6).dense_ops(), 120);
    }

    #[test]
    fn attention_unsupported_by_prior_asics() {
        let l = LayerSpec::new("attn.qk", LayerKind::Attention, GemmShape::new(1, 1, 1));
        assert!(!l.supported_by_prior_asics());
        let c = LayerSpec::new("conv1", LayerKind::Conv, GemmShape::new(1, 1, 1));
        assert!(c.supported_by_prior_asics());
    }
}
