//! The leaky integrate-and-fire (LIF) neuron.

/// How the membrane potential is reset after a spike.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ResetMode {
    /// Reset to a fixed value (`V ← V_reset`).
    Hard(f32),
    /// Subtract the threshold (`V ← V − V_th`), preserving the overshoot.
    Soft,
}

/// LIF parameters.
///
/// The update per time step is
///
/// ```text
/// V ← leak · V + I          (integrate with decay)
/// if V ≥ threshold: spike, then reset per `reset`
/// ```
///
/// `leak = 1.0` gives a plain integrate-and-fire neuron; `leak = 1 − 1/τ`
/// approximates the SpikingJelly LIF with membrane time constant `τ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifParams {
    /// Firing threshold `V_th`.
    pub threshold: f32,
    /// Multiplicative decay applied to the potential each step, in `[0, 1]`.
    pub leak: f32,
    /// Reset behaviour.
    pub reset: ResetMode,
}

impl Default for LifParams {
    /// Threshold 1.0, leak 0.5 (τ = 2, the SpikingJelly default), hard reset
    /// to 0 — the configuration used throughout the paper's model suite.
    fn default() -> Self {
        Self {
            threshold: 1.0,
            leak: 0.5,
            reset: ResetMode::Hard(0.0),
        }
    }
}

/// A single LIF neuron holding its membrane potential.
#[derive(Debug, Clone)]
pub struct LifNeuron {
    params: LifParams,
    potential: f32,
}

impl LifNeuron {
    /// Creates a neuron at resting potential 0.
    pub fn new(params: LifParams) -> Self {
        Self {
            params,
            potential: 0.0,
        }
    }

    /// Current membrane potential.
    pub fn potential(&self) -> f32 {
        self.potential
    }

    /// Advances one time step with input current `i`; returns `true` iff the
    /// neuron fires.
    pub fn step(&mut self, i: f32) -> bool {
        self.potential = self.params.leak * self.potential + i;
        if self.potential >= self.params.threshold {
            match self.params.reset {
                ResetMode::Hard(v) => self.potential = v,
                ResetMode::Soft => self.potential -= self.params.threshold,
            }
            true
        } else {
            false
        }
    }

    /// Returns the potential to rest (0, or the hard-reset value).
    pub fn reset(&mut self) {
        self.potential = match self.params.reset {
            ResetMode::Hard(v) => v,
            ResetMode::Soft => 0.0,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrates_until_threshold() {
        let mut n = LifNeuron::new(LifParams {
            threshold: 1.0,
            leak: 1.0,
            reset: ResetMode::Hard(0.0),
        });
        assert!(!n.step(0.4));
        assert!(!n.step(0.4));
        assert!(n.step(0.4)); // 1.2 ≥ 1.0
        assert_eq!(n.potential(), 0.0); // hard reset
    }

    #[test]
    fn soft_reset_keeps_overshoot() {
        let mut n = LifNeuron::new(LifParams {
            threshold: 1.0,
            leak: 1.0,
            reset: ResetMode::Soft,
        });
        assert!(n.step(1.3));
        assert!((n.potential() - 0.3).abs() < 1e-6);
    }

    #[test]
    fn leak_decays_potential() {
        let mut n = LifNeuron::new(LifParams {
            threshold: 10.0,
            leak: 0.5,
            reset: ResetMode::Hard(0.0),
        });
        n.step(1.0); // V = 1.0
        n.step(0.0); // V = 0.5
        assert!((n.potential() - 0.5).abs() < 1e-6);
        n.step(0.0); // V = 0.25
        assert!((n.potential() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn constant_drive_fires_periodically() {
        let mut n = LifNeuron::new(LifParams::default());
        let mut fired = 0;
        for _ in 0..8 {
            if n.step(0.6) {
                fired += 1;
            }
        }
        // With leak 0.5 and input 0.6: V approaches 1.2 > 1 → periodic firing.
        assert!(fired >= 2, "fired {fired}");
        assert!(fired < 8);
    }

    #[test]
    fn negative_current_inhibits() {
        let mut n = LifNeuron::new(LifParams::default());
        assert!(!n.step(-0.5));
        assert!(n.potential() < 0.0);
    }
}
