//! The leakage model: switching activity → instantaneous power.
//!
//! CMOS dynamic power is dominated by node toggles, so the standard
//! side-channel simulation models (the same ones underpinning DPA/CPA
//! literature) map Hamming distances and Hamming weights of registered state
//! and nets to a per-cycle dissipation figure. [`WeightedComponentModel`]
//! does so with a static base term plus per-component weights over the
//! four activity counters the netlist simulator reports.

use ipmark_netlist::ActivityRecord;

use crate::error::PowerError;

/// Per-component weights over the four activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ComponentWeights {
    /// Energy per toggled state bit.
    pub state_hd: f64,
    /// Energy per set state bit.
    pub state_hw: f64,
    /// Energy per toggled output-net bit.
    pub output_hd: f64,
    /// Energy per set output-net bit.
    pub output_hw: f64,
}

impl ComponentWeights {
    /// A register-toggle-only weight set.
    pub fn state_toggle(w: f64) -> Self {
        Self {
            state_hd: w,
            ..Self::default()
        }
    }

    /// Contribution of one component's activity under these weights.
    pub fn contribution(&self, a: &ipmark_netlist::ComponentActivity) -> f64 {
        self.state_hd * f64::from(a.state_hd)
            + self.state_hw * f64::from(a.state_hw)
            + self.output_hd * f64::from(a.output_hd)
            + self.output_hw * f64::from(a.output_hw)
    }

    /// Multiplies every weight by `factor` (used by process-variation
    /// sampling).
    pub fn scaled(&self, factor: f64) -> Self {
        Self {
            state_hd: self.state_hd * factor,
            state_hw: self.state_hw * factor,
            output_hd: self.output_hd * factor,
            output_hw: self.output_hw * factor,
        }
    }
}

/// Static base power plus per-component weighted activity — the model the
/// `ipmark` experiments use.
///
/// The base term is important for reproducing the paper's Figure 4: it is
/// the clock/common-mode component that every device shares, which is why
/// even *mismatched* (RefD, DUT) pairs show substantial mean correlation,
/// while only matched pairs show low correlation *variance*.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedComponentModel {
    base: f64,
    weights: Vec<ComponentWeights>,
}

impl WeightedComponentModel {
    /// Creates a model with a static `base` term and one weight set per
    /// circuit component.
    pub fn new(base: f64, weights: Vec<ComponentWeights>) -> Self {
        Self { base, weights }
    }

    /// The static base power.
    pub fn base(&self) -> f64 {
        self.base
    }

    /// The per-component weights.
    pub fn weights(&self) -> &[ComponentWeights] {
        &self.weights
    }

    /// Mutable access to the per-component weights (for calibration).
    pub fn weights_mut(&mut self) -> &mut [ComponentWeights] {
        &mut self.weights
    }

    /// Power dissipated during the cycle described by `record` (arbitrary
    /// units; only relative structure matters for correlation analysis).
    pub fn cycle_power(&self, record: &ActivityRecord) -> f64 {
        debug_assert_eq!(record.components.len(), self.weights.len());
        self.base
            + record
                .components
                .iter()
                .zip(&self.weights)
                .map(|(a, w)| w.contribution(a))
                .sum::<f64>()
    }

    /// Checks the model against the number of components of the target
    /// circuit.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::ModelShapeMismatch`] when the model carries a
    /// weight set per component for a different number of components.
    pub fn validate(&self, circuit_components: usize) -> Result<(), PowerError> {
        if self.weights.len() != circuit_components {
            return Err(PowerError::ModelShapeMismatch {
                model_components: self.weights.len(),
                circuit_components,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipmark_netlist::ComponentActivity;

    fn record(acts: Vec<ComponentActivity>) -> ActivityRecord {
        ActivityRecord {
            cycle: 0,
            components: acts,
        }
    }

    #[test]
    fn weighted_model_combines_base_and_components() {
        let m = WeightedComponentModel::new(
            10.0,
            vec![
                ComponentWeights {
                    state_hd: 1.0,
                    state_hw: 0.0,
                    output_hd: 0.5,
                    output_hw: 0.0,
                },
                ComponentWeights::state_toggle(2.0),
            ],
        );
        let r = record(vec![
            ComponentActivity {
                state_hd: 2,
                state_hw: 9,
                output_hd: 4,
                output_hw: 9,
            },
            ComponentActivity {
                state_hd: 3,
                ..Default::default()
            },
        ]);
        // 10 + (2*1 + 4*0.5) + (3*2) = 10 + 4 + 6
        assert_eq!(m.cycle_power(&r), 20.0);
    }

    #[test]
    fn weighted_model_validates_shape() {
        let m = WeightedComponentModel::new(0.0, vec![ComponentWeights::default(); 3]);
        assert!(m.validate(3).is_ok());
        assert!(matches!(
            m.validate(4),
            Err(PowerError::ModelShapeMismatch {
                model_components: 3,
                circuit_components: 4
            })
        ));
    }

    #[test]
    fn scaled_weights() {
        let w = ComponentWeights {
            state_hd: 1.0,
            state_hw: 2.0,
            output_hd: 3.0,
            output_hw: 4.0,
        };
        let s = w.scaled(0.5);
        assert_eq!(s.state_hd, 0.5);
        assert_eq!(s.output_hw, 2.0);
    }
}
