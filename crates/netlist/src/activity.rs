//! Per-cycle switching-activity records.
//!
//! Dynamic power in CMOS is proportional to switching activity, so the
//! simulator reports, for every component and every clock cycle, how many
//! register bits toggled ([`ComponentActivity::state_hd`]) and how many
//! output-net bits toggled ([`ComponentActivity::output_hd`]), together with
//! the Hamming weights of the new values. Power models in `ipmark-power`
//! turn these counts into a dissipation figure.

use serde::{Deserialize, Serialize};

/// Switching activity of one component over one clock cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComponentActivity {
    /// Bits toggled in the component's registered state at the clock edge.
    /// Zero for combinational components.
    pub state_hd: u32,
    /// Hamming weight of the registered state after the edge. Zero for
    /// combinational components.
    pub state_hw: u32,
    /// Bits toggled across the component's output nets relative to the
    /// previous cycle (zero on the first cycle after reset).
    pub output_hd: u32,
    /// Hamming weight of the component's outputs this cycle.
    pub output_hw: u32,
}

/// Switching activity of the whole circuit over one clock cycle.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActivityRecord {
    /// Index of the cycle this record describes (0 = first cycle after reset).
    pub cycle: u64,
    /// Per-component activity, indexed by component id.
    pub components: Vec<ComponentActivity>,
}

impl ActivityRecord {
    /// Sum of registered-state toggles over all components.
    pub fn total_state_hd(&self) -> u32 {
        self.components.iter().map(|c| c.state_hd).sum()
    }

    /// Sum of output-net toggles over all components.
    pub fn total_output_hd(&self) -> u32 {
        self.components.iter().map(|c| c.output_hd).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_over_components() {
        let rec = ActivityRecord {
            cycle: 3,
            components: vec![
                ComponentActivity {
                    state_hd: 1,
                    state_hw: 2,
                    output_hd: 3,
                    output_hw: 4,
                },
                ComponentActivity {
                    state_hd: 10,
                    state_hw: 20,
                    output_hd: 30,
                    output_hw: 40,
                },
            ],
        };
        assert_eq!(rec.total_state_hd(), 11);
        assert_eq!(rec.total_output_hd(), 33);
    }

    #[test]
    fn default_record_is_empty() {
        let rec = ActivityRecord::default();
        assert_eq!(rec.total_state_hd(), 0);
        assert!(rec.components.is_empty());
    }
}
