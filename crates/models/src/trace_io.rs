//! Compact binary serialization of activation traces.
//!
//! The paper's artifact ships pre-extracted sparse activation matrices and
//! replays them through the simulator. This module provides the equivalent:
//! a versioned, bit-packed on-disk format for [`ModelTrace`]s so expensive
//! calibrated generation can be done once and replayed across experiments.
//!
//! Format (little-endian):
//!
//! ```text
//! magic "PSPT" | version u32 | layer count u32
//! per layer: name len u32 | name bytes | kind u8 | m u64 | k u64 | n u64
//!            | packed row bits (⌈k/64⌉ u64 limbs per row)
//! ```

use crate::layer::{GemmShape, LayerKind, LayerSpec};
use crate::workload::{LayerTrace, ModelTrace, Workload};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use spikemat::{BitRow, SpikeMatrix};
use std::fmt;

const MAGIC: &[u8; 4] = b"PSPT";
const VERSION: u32 = 1;

/// Smallest possible serialized layer: empty name (4-byte length), kind
/// byte, and the three u64 shape fields. Used to bound a declared layer
/// count against the bytes actually present before allocating.
const MIN_LAYER_BYTES: usize = 4 + 1 + 24;

/// Rows a zero-width (`k == 0`) layer may declare. Such rows occupy zero
/// bytes on the wire, so the length check cannot bound them; a hostile
/// header could otherwise demand billions of empty rows.
const MAX_EMPTY_ROWS: usize = 1 << 20;

/// Errors raised while decoding a serialized trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceIoError {
    /// The buffer does not start with the `PSPT` magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// The buffer ended before the declared contents.
    Truncated,
    /// A field held an invalid value (e.g. unknown layer kind).
    Corrupt(&'static str),
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::BadMagic => write!(f, "not a Prosperity trace (bad magic)"),
            TraceIoError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceIoError::Truncated => write!(f, "trace buffer truncated"),
            TraceIoError::Corrupt(what) => write!(f, "corrupt trace field: {what}"),
        }
    }
}

impl std::error::Error for TraceIoError {}

/// Serializes the layers of a trace into the compact binary format.
///
/// The originating [`Workload`] is not embedded; store its descriptor
/// alongside the bytes if the reader needs it.
pub fn encode_layers(trace: &ModelTrace) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(trace.layers.len() as u32);
    for layer in &trace.layers {
        let name = layer.spec.name.as_bytes();
        buf.put_u32_le(name.len() as u32);
        buf.put_slice(name);
        buf.put_u8(match layer.spec.kind {
            LayerKind::Conv => 0,
            LayerKind::Linear => 1,
            LayerKind::Attention => 2,
        });
        buf.put_u64_le(layer.spec.shape.m as u64);
        buf.put_u64_le(layer.spec.shape.k as u64);
        buf.put_u64_le(layer.spec.shape.n as u64);
        for row in layer.spikes.row_slice() {
            for &limb in row.limbs() {
                buf.put_u64_le(limb);
            }
        }
    }
    buf.freeze()
}

/// Decodes layers previously written by [`encode_layers`], re-attaching the
/// given workload descriptor.
pub fn decode_layers(mut buf: Bytes, workload: Workload) -> Result<ModelTrace, TraceIoError> {
    let need = |buf: &Bytes, n: usize| {
        if buf.remaining() < n {
            Err(TraceIoError::Truncated)
        } else {
            Ok(())
        }
    };
    need(&buf, 4)?;
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(TraceIoError::BadMagic);
    }
    need(&buf, 8)?;
    let version = buf.get_u32_le();
    if version != VERSION {
        return Err(TraceIoError::BadVersion(version));
    }
    let layer_count = buf.get_u32_le() as usize;
    // Bound the declared count by the bytes actually present before
    // trusting it with an allocation: a hostile header can declare 2^32
    // layers in a 12-byte buffer.
    if layer_count > buf.remaining() / MIN_LAYER_BYTES {
        return Err(TraceIoError::Truncated);
    }
    let mut layers = Vec::with_capacity(layer_count);
    for _ in 0..layer_count {
        need(&buf, 4)?;
        let name_len = buf.get_u32_le() as usize;
        need(&buf, name_len + 1 + 24)?;
        let name_bytes = buf.copy_to_bytes(name_len);
        let name = std::str::from_utf8(&name_bytes)
            .map_err(|_| TraceIoError::Corrupt("layer name"))?
            .to_string();
        let kind = match buf.get_u8() {
            0 => LayerKind::Conv,
            1 => LayerKind::Linear,
            2 => LayerKind::Attention,
            _ => return Err(TraceIoError::Corrupt("layer kind")),
        };
        let m = buf.get_u64_le() as usize;
        let k = buf.get_u64_le() as usize;
        let n = buf.get_u64_le() as usize;
        let limbs_per_row = k.div_ceil(64);
        // `k == 0` rows are zero bytes on the wire, so the byte-count check
        // below is vacuous for them; cap the row count explicitly.
        if limbs_per_row == 0 && m > MAX_EMPTY_ROWS {
            return Err(TraceIoError::Corrupt("row count"));
        }
        let payload = m
            .checked_mul(limbs_per_row)
            .and_then(|limbs| limbs.checked_mul(8))
            .ok_or(TraceIoError::Corrupt("layer geometry"))?;
        need(&buf, payload)?;
        let mut rows = Vec::with_capacity(m);
        for _ in 0..m {
            let mut row = BitRow::zeros(k);
            for limb_idx in 0..limbs_per_row {
                let limb = buf.get_u64_le();
                for bit in 0..64 {
                    let j = limb_idx * 64 + bit;
                    if j < k && (limb >> bit) & 1 == 1 {
                        row.set(j, true);
                    }
                }
            }
            rows.push(row);
        }
        layers.push(LayerTrace {
            spec: LayerSpec::new(name, kind, GemmShape::new(m, k, n)),
            spikes: SpikeMatrix::from_rows(rows),
        });
    }
    Ok(ModelTrace { workload, layers })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::Architecture;
    use crate::Dataset;

    fn sample_trace() -> ModelTrace {
        Workload::new(Architecture::LeNet5, Dataset::Mnist, 0.4, 0.1, 21).generate_trace(0.2)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let trace = sample_trace();
        let bytes = encode_layers(&trace);
        let decoded = decode_layers(bytes, trace.workload).expect("decode");
        assert_eq!(decoded.layers.len(), trace.layers.len());
        for (a, b) in trace.layers.iter().zip(&decoded.layers) {
            assert_eq!(a.spec, b.spec);
            assert_eq!(a.spikes, b.spikes);
        }
    }

    #[test]
    fn roundtrip_property_over_seeded_random_traces() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Arbitrary layer lists (ragged widths, limb-boundary K values,
        // empty layers, zero-row layers) must survive encode → decode
        // bit-for-bit — not just the shapes the zoo happens to produce.
        let workload = Workload::new(Architecture::LeNet5, Dataset::Mnist, 0.4, 0.1, 1);
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(0xC0DEC ^ seed);
            let n_layers = rng.gen_range(0..5);
            let layers: Vec<LayerTrace> = (0..n_layers)
                .map(|i| {
                    let m = rng.gen_range(0..20);
                    let k = *[0usize, 1, 7, 63, 64, 65, 100]
                        .get(rng.gen_range(0..7))
                        .unwrap();
                    let n = rng.gen_range(0..10);
                    let kind = match rng.gen_range(0..3) {
                        0 => LayerKind::Conv,
                        1 => LayerKind::Linear,
                        _ => LayerKind::Attention,
                    };
                    LayerTrace {
                        spec: LayerSpec::new(format!("layer{i}"), kind, GemmShape::new(m, k, n)),
                        spikes: SpikeMatrix::random(m, k, rng.gen_range(0.0..0.8), &mut rng),
                    }
                })
                .collect();
            let trace = ModelTrace { workload, layers };
            let bytes = encode_layers(&trace);
            let decoded = decode_layers(bytes, workload).expect("decode");
            assert_eq!(decoded.layers.len(), trace.layers.len(), "seed {seed}");
            for (a, b) in trace.layers.iter().zip(&decoded.layers) {
                assert_eq!(a.spec, b.spec, "seed {seed}");
                assert_eq!(a.spikes, b.spikes, "seed {seed}");
            }
        }
    }

    #[test]
    fn every_truncation_point_errors_cleanly() {
        // Cutting the buffer at *any* byte must yield Err (almost always
        // Truncated; a cut inside the magic gives BadMagic) — never a panic
        // and never a silently short decode.
        use rand::SeedableRng;
        let workload = Workload::new(Architecture::LeNet5, Dataset::Mnist, 0.4, 0.1, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let trace = ModelTrace {
            workload,
            layers: vec![LayerTrace {
                spec: LayerSpec::new("l0", LayerKind::Linear, GemmShape::new(3, 70, 2)),
                spikes: SpikeMatrix::random(3, 70, 0.5, &mut rng),
            }],
        };
        let bytes = encode_layers(&trace);
        for cut in 0..bytes.len() {
            let sliced = bytes.slice(0..cut);
            assert!(
                decode_layers(sliced, workload).is_err(),
                "cut at {cut}/{} must fail",
                bytes.len()
            );
        }
        assert!(decode_layers(bytes, workload).is_ok());
    }

    #[test]
    fn bad_magic_rejected() {
        let trace = sample_trace();
        let mut bytes = encode_layers(&trace).to_vec();
        bytes[0] = b'X';
        assert!(matches!(
            decode_layers(Bytes::from(bytes), trace.workload),
            Err(TraceIoError::BadMagic)
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let trace = sample_trace();
        let mut bytes = encode_layers(&trace).to_vec();
        bytes[4] = 99;
        assert!(matches!(
            decode_layers(Bytes::from(bytes), trace.workload),
            Err(TraceIoError::BadVersion(_))
        ));
    }

    #[test]
    fn truncation_rejected() {
        let trace = sample_trace();
        let bytes = encode_layers(&trace);
        for cut in [3usize, 10, bytes.len() / 2, bytes.len() - 1] {
            let sliced = bytes.slice(0..cut);
            assert!(
                decode_layers(sliced, trace.workload).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn corrupt_kind_rejected() {
        let trace = sample_trace();
        let mut bytes = encode_layers(&trace).to_vec();
        // kind byte sits after magic(4) + version(4) + count(4) + name_len(4)
        // + name.
        let name_len = trace.layers[0].spec.name.len();
        bytes[16 + name_len] = 7;
        assert!(matches!(
            decode_layers(Bytes::from(bytes), trace.workload),
            Err(TraceIoError::Corrupt("layer kind"))
        ));
    }

    #[test]
    fn hostile_layer_count_is_rejected_before_allocating() {
        // A 12-byte header declaring u32::MAX layers must fail fast with
        // Truncated instead of reserving gigabytes.
        let mut bytes = BytesMut::new();
        bytes.put_slice(MAGIC);
        bytes.put_u32_le(VERSION);
        bytes.put_u32_le(u32::MAX);
        let workload = Workload::new(Architecture::LeNet5, Dataset::Mnist, 0.4, 0.1, 3);
        assert!(matches!(
            decode_layers(bytes.freeze(), workload),
            Err(TraceIoError::Truncated)
        ));
    }

    #[test]
    fn hostile_shape_fields_are_rejected_without_overflow_or_oom() {
        // Encode one layer, then rewrite its m/k fields with hostile
        // values: (a) m·⌈k/64⌉·8 overflowing usize must surface as Corrupt,
        // not wrap around and pass the length check; (b) k == 0 with an
        // enormous m must be capped, because empty rows occupy no payload
        // bytes and would otherwise allocate unboundedly.
        let workload = Workload::new(Architecture::LeNet5, Dataset::Mnist, 0.4, 0.1, 4);
        let trace = ModelTrace {
            workload,
            layers: vec![LayerTrace {
                spec: LayerSpec::new("l0", LayerKind::Linear, GemmShape::new(2, 64, 2)),
                spikes: SpikeMatrix::zeros(2, 64),
            }],
        };
        let base = encode_layers(&trace).to_vec();
        // m sits after magic(4)+version(4)+count(4)+name_len(4)+name(2)+kind(1).
        let m_off = 19;
        let k_off = m_off + 8;

        let mut overflowing = base.clone();
        overflowing[m_off..m_off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode_layers(Bytes::from(overflowing), workload),
            Err(TraceIoError::Corrupt("layer geometry"))
        ));

        let mut empty_rows = base.clone();
        empty_rows[m_off..m_off + 8].copy_from_slice(&(u64::MAX).to_le_bytes());
        empty_rows[k_off..k_off + 8].copy_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            decode_layers(Bytes::from(empty_rows), workload),
            Err(TraceIoError::Corrupt("row count"))
        ));
    }

    #[test]
    fn random_header_mutations_never_panic() {
        // Fuzz-lite: flip bytes all over the serialized form. Any result is
        // acceptable except a panic or runaway allocation (the harness would
        // OOM/abort on either).
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let trace = sample_trace();
        let base = encode_layers(&trace).to_vec();
        let mut rng = StdRng::seed_from_u64(0xFEED);
        for _ in 0..400 {
            let mut bytes = base.clone();
            for _ in 0..rng.gen_range(1..4) {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = rng.gen();
            }
            let _ = decode_layers(Bytes::from(bytes), trace.workload);
        }
    }

    #[test]
    fn encoding_is_compact() {
        // Packed bits: roughly M·K/8 bytes per layer plus headers.
        let trace = sample_trace();
        let bytes = encode_layers(&trace);
        let raw_bits: usize = trace
            .layers
            .iter()
            .map(|l| l.spikes.rows() * l.spikes.cols())
            .sum();
        // Limb padding can cost up to 64 bits per row on narrow layers, so
        // allow ~4 bits per spike bit; a textual/byte format would be ≥ 8.
        assert!(
            bytes.len() < raw_bits / 2,
            "packed format too large: {} bytes for {} bits",
            bytes.len(),
            raw_bits
        );
    }
}
