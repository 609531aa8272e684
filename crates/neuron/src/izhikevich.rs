//! The Izhikevich spiking neuron (cited by the paper as one of the standard
//! neuron models, Sec. II-A).
//!
//! Two-variable quadratic model
//!
//! ```text
//! v' = 0.04 v² + 5 v + 140 − u + I
//! u' = a (b v − u)
//! if v ≥ 30 mV: spike, v ← c, u ← u + d
//! ```
//!
//! With the classic parameter presets it reproduces regular-spiking,
//! fast-spiking and bursting cortical behaviours. Prosperity itself is
//! neuron-agnostic — only the emitted binary spikes matter — so this model
//! plugs into the same trace machinery as LIF.

/// Izhikevich model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IzhikevichParams {
    /// Recovery time scale `a`.
    pub a: f32,
    /// Recovery sensitivity `b`.
    pub b: f32,
    /// Post-spike reset potential `c` (mV).
    pub c: f32,
    /// Post-spike recovery increment `d`.
    pub d: f32,
    /// Integration step in ms.
    pub dt: f32,
}

impl IzhikevichParams {
    /// Regular-spiking cortical neuron (a=0.02, b=0.2, c=−65, d=8).
    pub fn regular_spiking() -> Self {
        Self {
            a: 0.02,
            b: 0.2,
            c: -65.0,
            d: 8.0,
            dt: 1.0,
        }
    }

    /// Fast-spiking interneuron (a=0.1, b=0.2, c=−65, d=2).
    pub fn fast_spiking() -> Self {
        Self {
            a: 0.1,
            b: 0.2,
            c: -65.0,
            d: 2.0,
            dt: 1.0,
        }
    }

    /// Intrinsically bursting neuron (a=0.02, b=0.2, c=−55, d=4).
    pub fn bursting() -> Self {
        Self {
            a: 0.02,
            b: 0.2,
            c: -55.0,
            d: 4.0,
            dt: 1.0,
        }
    }
}

/// A single Izhikevich neuron.
#[derive(Debug, Clone)]
pub struct IzhikevichNeuron {
    params: IzhikevichParams,
    v: f32,
    u: f32,
}

impl IzhikevichNeuron {
    /// Firing threshold in mV.
    pub const THRESHOLD_MV: f32 = 30.0;

    /// Creates a neuron at the resting state (`v = c`, `u = b·c`).
    pub fn new(params: IzhikevichParams) -> Self {
        Self {
            params,
            v: params.c,
            u: params.b * params.c,
        }
    }

    /// Membrane potential in mV.
    pub fn potential(&self) -> f32 {
        self.v
    }

    /// Recovery variable.
    pub fn recovery(&self) -> f32 {
        self.u
    }

    /// Advances one step with input current `i`; returns `true` on a spike.
    pub fn step(&mut self, i: f32) -> bool {
        let p = self.params;
        // Two half-steps for v improve numerical stability (Izhikevich 2003).
        for _ in 0..2 {
            self.v += 0.5 * p.dt * (0.04 * self.v * self.v + 5.0 * self.v + 140.0 - self.u + i);
        }
        self.u += p.dt * p.a * (p.b * self.v - self.u);
        if self.v >= Self::THRESHOLD_MV {
            self.v = p.c;
            self.u += p.d;
            true
        } else {
            false
        }
    }

    /// Returns the neuron to its resting state.
    pub fn reset(&mut self) {
        self.v = self.params.c;
        self.u = self.params.b * self.params.c;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spike_count(params: IzhikevichParams, current: f32, steps: usize) -> usize {
        let mut n = IzhikevichNeuron::new(params);
        (0..steps).filter(|_| n.step(current)).count()
    }

    #[test]
    fn no_input_no_spikes() {
        assert_eq!(
            spike_count(IzhikevichParams::regular_spiking(), 0.0, 500),
            0
        );
    }

    #[test]
    fn strong_input_fires_repeatedly() {
        let spikes = spike_count(IzhikevichParams::regular_spiking(), 10.0, 500);
        assert!(spikes > 5, "fired {spikes}");
    }

    #[test]
    fn fast_spiking_fires_more_than_regular() {
        let rs = spike_count(IzhikevichParams::regular_spiking(), 10.0, 1000);
        let fs = spike_count(IzhikevichParams::fast_spiking(), 10.0, 1000);
        assert!(fs > rs, "FS {fs} vs RS {rs}");
    }

    #[test]
    fn reset_restores_rest_state() {
        let p = IzhikevichParams::regular_spiking();
        let mut n = IzhikevichNeuron::new(p);
        for _ in 0..50 {
            n.step(10.0);
        }
        n.reset();
        assert_eq!(n.potential(), p.c);
        assert_eq!(n.recovery(), p.b * p.c);
    }

    #[test]
    fn potential_resets_to_c_after_spike() {
        let p = IzhikevichParams::regular_spiking();
        let mut n = IzhikevichNeuron::new(p);
        let mut spiked = false;
        for _ in 0..1000 {
            if n.step(15.0) {
                spiked = true;
                assert_eq!(n.potential(), p.c);
                break;
            }
        }
        assert!(spiked, "neuron never fired");
    }
}
