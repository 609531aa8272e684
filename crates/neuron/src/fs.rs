//! A simplified few-spikes (FS) neuron, after Stöckl & Maass (the neuron
//! model Stellar co-designs for).
//!
//! The FS neuron replaces rate coding by a short temporal code: within a
//! `T`-step window it emits at most a handful of spikes whose *positions*
//! carry a binary expansion of the activation value. The consequence the
//! paper cares about (Fig. 11) is simply that FS activations are sparser
//! than LIF activations for the same signal. This implementation is a
//! faithful functional model of that coding scheme, not of Stellar's RTL.

/// FS neuron parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FsParams {
    /// Length of the coding window (number of time steps / code bits).
    pub window: usize,
    /// Full-scale value represented by the all-ones code.
    pub full_scale: f32,
    /// Maximum number of spikes allowed per window (the "few" in few-spikes;
    /// Stellar's neuron uses 2).
    pub max_spikes: usize,
}

impl Default for FsParams {
    fn default() -> Self {
        Self {
            window: 4,
            full_scale: 2.0,
            max_spikes: 2,
        }
    }
}

/// A few-spikes neuron: encodes one activation value per window.
#[derive(Debug, Clone)]
pub struct FsNeuron {
    params: FsParams,
}

impl FsNeuron {
    /// Creates an FS neuron.
    pub fn new(params: FsParams) -> Self {
        assert!(params.window > 0, "window must be positive");
        Self { params }
    }

    /// Encodes `value` into its spike train of length `window`.
    ///
    /// The value is quantized against binary-weighted thresholds
    /// `full_scale/2, full_scale/4, …` (greedy binary expansion), and only
    /// the `max_spikes` most significant spikes are kept.
    pub fn encode(&self, value: f32) -> Vec<u8> {
        let mut residual = value.clamp(0.0, self.params.full_scale);
        let mut spikes = vec![0u8; self.params.window];
        let mut emitted = 0;
        let mut weight = self.params.full_scale / 2.0;
        for slot in spikes.iter_mut() {
            if emitted >= self.params.max_spikes {
                break;
            }
            if residual >= weight {
                *slot = 1;
                residual -= weight;
                emitted += 1;
            }
            weight /= 2.0;
        }
        spikes
    }

    /// Decodes a spike train back to its represented value.
    pub fn decode(&self, spikes: &[u8]) -> f32 {
        let mut value = 0.0;
        let mut weight = self.params.full_scale / 2.0;
        for &s in spikes.iter().take(self.params.window) {
            if s != 0 {
                value += weight;
            }
            weight /= 2.0;
        }
        value
    }

    /// Expected number of spikes for `value` — the quantity driving the FS
    /// density in Fig. 11.
    pub fn spike_count(&self, value: f32) -> usize {
        self.encode(value).iter().map(|&s| s as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_value_emits_no_spikes() {
        let n = FsNeuron::new(FsParams::default());
        assert_eq!(n.spike_count(0.0), 0);
    }

    #[test]
    fn at_most_max_spikes() {
        let n = FsNeuron::new(FsParams {
            window: 8,
            full_scale: 2.0,
            max_spikes: 2,
        });
        // Full scale would need many bits, but the cap holds.
        assert!(n.spike_count(1.999) <= 2);
        for v in [0.1f32, 0.4, 0.9, 1.3, 1.7] {
            assert!(n.spike_count(v) <= 2, "value {v}");
        }
    }

    #[test]
    fn encode_decode_roundtrip_within_quantization() {
        let n = FsNeuron::new(FsParams {
            window: 6,
            full_scale: 2.0,
            max_spikes: 6,
        });
        for v in [0.0f32, 0.25, 0.5, 1.0, 1.5, 1.9] {
            let decoded = n.decode(&n.encode(v));
            // Quantization step is full_scale / 2^window.
            assert!(
                (decoded - v).abs() <= 2.0 / 32.0 + 1e-6,
                "value {v} decoded {decoded}"
            );
        }
    }

    #[test]
    fn fs_is_sparser_than_rate_code() {
        // A rate code of value v over T steps needs ≈ v·T/full_scale spikes;
        // FS needs ≤ max_spikes.
        let n = FsNeuron::new(FsParams::default());
        let v = 1.8f32;
        let rate_spikes = (v / 2.0 * 4.0).round() as usize; // ≈ 4
        assert!(n.spike_count(v) < rate_spikes);
    }

    #[test]
    fn msb_first_coding() {
        let n = FsNeuron::new(FsParams {
            window: 4,
            full_scale: 2.0,
            max_spikes: 4,
        });
        // 1.0 = full_scale/2 → single spike at slot 0.
        assert_eq!(n.encode(1.0), vec![1, 0, 0, 0]);
        // 0.5 = full_scale/4 → spike at slot 1.
        assert_eq!(n.encode(0.5), vec![0, 1, 0, 0]);
        // 1.5 → spikes at slots 0 and 1.
        assert_eq!(n.encode(1.5), vec![1, 1, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let _ = FsNeuron::new(FsParams {
            window: 0,
            full_scale: 1.0,
            max_spikes: 1,
        });
    }
}
