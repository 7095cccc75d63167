//! The watermarked IPs of the paper's experiment (Fig. 3) and their
//! simulated fabrication.
//!
//! Each IP is an 8-bit counter FSM — binary for `IP_A`, Gray for
//! `IP_B`/`IP_C`/`IP_D` — extended with the side-channel leakage component:
//! the state is XOR-ed with a watermark key `Kw` and fed through the AES
//! S-Box (held in a synchronous RAM) into the output register `H`. Counters
//! are the *worst case* for power-based verification (extremely linear,
//! cyclic, minimal leakage), which is exactly why the paper picks them.

use ipmark_crypto::sbox::{sbox_table_u64, sub_byte};
use ipmark_netlist::codes::gray_encode;
use ipmark_netlist::comb::{Constant, Xor2};
use ipmark_netlist::memory::SyncRom;
use ipmark_netlist::seq::{BinaryCounter, GrayCounter};
use ipmark_netlist::{BitVec, Circuit, CircuitBuilder};
use ipmark_power::chain::{MeasurementChain, PulseShape};
use ipmark_power::device::{DeviceModel, ProcessVariation};
use ipmark_power::leakage::{ComponentWeights, WeightedComponentModel};
use ipmark_power::SimulatedAcquisition;
use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::key::WatermarkKey;

/// State width of the paper's FSMs (8-bit counters).
pub const STATE_WIDTH: u16 = 8;

/// Default number of simulated clock cycles per trace — one full period of
/// an 8-bit counter, satisfying the paper's requirement that "the state
/// sequence must be longer than the periodicity of the tested FSM".
pub const DEFAULT_CYCLES: usize = 256;

/// Default oscilloscope samples per clock cycle.
pub const SAMPLES_PER_CYCLE: usize = 8;

/// The paper's first watermark key (`Kw1`, shared by `IP_A` and `IP_B`).
pub const KW1: WatermarkKey = WatermarkKey::from_const(0xa7);
/// The paper's second watermark key (`Kw2`, used by `IP_C`).
pub const KW2: WatermarkKey = WatermarkKey::from_const(0x3c);
/// The paper's third watermark key (`Kw3`, used by `IP_D`).
pub const KW3: WatermarkKey = WatermarkKey::from_const(0xe5);

/// Which counter implements the FSM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CounterKind {
    /// Natural binary up-counter (≈ 2 bit toggles per cycle on average).
    Binary,
    /// Reflected-Gray-code counter (exactly 1 bit toggle per cycle).
    Gray,
}

impl CounterKind {
    /// The FSM state value at sequence position `pos` (what the state
    /// register holds).
    pub fn state_at(&self, pos: u64) -> u8 {
        match self {
            CounterKind::Binary => (pos & 0xff) as u8,
            CounterKind::Gray => (gray_encode(pos & 0xff) & 0xff) as u8,
        }
    }
}

/// The substitution table inside the leakage component.
///
/// The paper uses the AES S-Box for its strong non-linearity; the
/// [`Substitution::Identity`] variant exists for the *ablation* experiment
/// (extension X4): with a linear table, `H = state ⊕ Kw`, the register
/// toggles become key-independent and CPA can no longer recover `Kw` — nor
/// can two keys be told apart, demonstrating why the S-Box is load-bearing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Substitution {
    /// The AES S-Box (the paper's choice).
    #[default]
    AesSbox,
    /// The identity table (ablation: no non-linearity).
    Identity,
}

impl Substitution {
    /// The 256-entry lookup table.
    pub fn table(&self) -> Vec<u64> {
        match self {
            Substitution::AesSbox => sbox_table_u64(),
            Substitution::Identity => (0..256).collect(),
        }
    }

    /// Applies the substitution to one byte.
    pub fn apply(&self, x: u8) -> u8 {
        match self {
            Substitution::AesSbox => sub_byte(x),
            Substitution::Identity => x,
        }
    }
}

/// Specification of one IP: an FSM plus (optionally) the watermark leakage
/// component.
///
/// `key: None` models a *counterfeit / unmarked* IP — the same FSM without
/// the leakage component, used to exercise the paper's second verification
/// objective (detecting IPs that do not carry the mark).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct IpSpec {
    name: String,
    counter: CounterKind,
    key: Option<WatermarkKey>,
    substitution: Substitution,
}

/// Indices of the components inside a watermarked IP circuit, in builder
/// order. The nominal leakage model is keyed to this layout.
pub mod layout {
    /// The counter FSM.
    pub const COUNTER: usize = 0;
    // Index 1 is the `Kw` constant driver; no model weight keys on it.
    /// The XOR mixing stage.
    pub const XOR: usize = 2;
    /// The S-Box RAM with its output register `H`.
    pub const SBOX: usize = 3;
    /// Number of components in a watermarked IP.
    pub const WATERMARKED_COMPONENTS: usize = 4;
    /// Number of components in an unmarked IP (just the counter).
    pub const UNMARKED_COMPONENTS: usize = 1;
}

impl IpSpec {
    /// A watermarked IP: `counter` FSM + leakage component keyed by `key`.
    pub fn watermarked(name: impl Into<String>, counter: CounterKind, key: WatermarkKey) -> Self {
        Self {
            name: name.into(),
            counter,
            key: Some(key),
            substitution: Substitution::AesSbox,
        }
    }

    /// A watermarked IP with an explicit substitution table (for the
    /// S-Box-ablation experiment).
    pub fn watermarked_with_substitution(
        name: impl Into<String>,
        counter: CounterKind,
        key: WatermarkKey,
        substitution: Substitution,
    ) -> Self {
        Self {
            name: name.into(),
            counter,
            key: Some(key),
            substitution,
        }
    }

    /// An unmarked IP: the bare counter FSM, no leakage component.
    pub fn unmarked(name: impl Into<String>, counter: CounterKind) -> Self {
        Self {
            name: name.into(),
            counter,
            key: None,
            substitution: Substitution::AesSbox,
        }
    }

    /// IP label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The FSM kind.
    pub fn counter(&self) -> CounterKind {
        self.counter
    }

    /// The watermark key, if the IP carries the leakage component.
    pub fn key(&self) -> Option<WatermarkKey> {
        self.key
    }

    /// The substitution table of the leakage component.
    pub fn substitution(&self) -> Substitution {
        self.substitution
    }

    /// Builds the IP as a netlist (Fig. 3 of the paper).
    ///
    /// # Errors
    ///
    /// Propagates netlist construction errors.
    pub fn circuit(&self) -> Result<Circuit, CoreError> {
        let mut b = CircuitBuilder::new();
        let counter = match self.counter {
            CounterKind::Binary => b.add("fsm", BinaryCounter::new(STATE_WIDTH, 0)?),
            CounterKind::Gray => b.add("fsm", GrayCounter::new(STATE_WIDTH, 0)?),
        };
        match self.key {
            Some(kw) => {
                let key = b.add(
                    "kw",
                    Constant::new(BitVec::new(u64::from(kw.value()), STATE_WIDTH)?),
                );
                let xor = b.add("mix", Xor2::new(STATE_WIDTH));
                let sbox = b.add(
                    "sbox",
                    SyncRom::new(self.substitution.table(), STATE_WIDTH, 0)?,
                );
                b.connect_ports(counter, 0, xor, 0)?;
                b.connect_ports(key, 0, xor, 1)?;
                b.connect_ports(xor, 0, sbox, 0)?;
                b.expose(sbox, 0, "h")?;
            }
            None => {
                b.expose(counter, 0, "state")?;
            }
        }
        Ok(b.build()?)
    }

    /// Number of components in the circuit this spec builds.
    pub fn component_count(&self) -> usize {
        if self.key.is_some() {
            layout::WATERMARKED_COMPONENTS
        } else {
            layout::UNMARKED_COMPONENTS
        }
    }

    /// The nominal (pre-variation) leakage model for this IP's circuit
    /// layout, with the calibrated default weights.
    pub fn nominal_model(&self) -> WeightedComponentModel {
        let mut weights = vec![ComponentWeights::default(); self.component_count()];
        if self.key.is_some() {
            weights[layout::COUNTER] = ComponentWeights::state_toggle(COUNTER_HD_WEIGHT);
            weights[layout::XOR] = ComponentWeights {
                output_hd: XOR_HD_WEIGHT,
                ..ComponentWeights::default()
            };
            weights[layout::SBOX] = ComponentWeights {
                state_hd: SBOX_HD_WEIGHT,
                state_hw: SBOX_HW_WEIGHT,
                ..ComponentWeights::default()
            };
        } else {
            weights[layout::COUNTER] = ComponentWeights::state_toggle(COUNTER_HD_WEIGHT);
        }
        WeightedComponentModel::new(BASE_POWER, weights)
    }

    /// The deterministic sequence of S-Box output register values `H` over
    /// `cycles` cycles, or `None` for an unmarked IP.
    ///
    /// `H` lags the address by one cycle (synchronous RAM): `H₀` is the
    /// reset value 0.
    pub fn sbox_output_sequence(&self, cycles: usize) -> Option<Vec<u8>> {
        let kw = self.key?;
        let mut out = Vec::with_capacity(cycles);
        let mut h = 0u8;
        for c in 0..cycles as u64 {
            out.push(h);
            h = self.substitution.apply(kw.mix(self.counter.state_at(c)));
        }
        Some(out)
    }
}

// === Calibrated default power-model constants ===
//
// These reproduce the *shape* of the paper's Figure 4 / Tables I & II with
// the simulated substrate: matched (RefD, DUT) pairs correlate at ≈ 0.9+
// with variance orders of magnitude below mismatched pairs, while the
// shared clock/pulse structure keeps mismatched means substantially above
// zero (the reason the mean is a poor distinguisher).

/// Static (clock tree, control) power per cycle.
pub const BASE_POWER: f64 = 5.0;
/// Energy per toggled counter state bit.
pub const COUNTER_HD_WEIGHT: f64 = 0.8;
/// Energy per toggled XOR output bit.
pub const XOR_HD_WEIGHT: f64 = 0.3;
/// Energy per toggled bit of the S-Box output register `H`.
pub const SBOX_HD_WEIGHT: f64 = 1.0;
/// Energy per set bit of `H` (bus/precharge leakage).
pub const SBOX_HW_WEIGHT: f64 = 0.2;
/// Per-sample Gaussian measurement-noise σ of the default chain.
pub const DEFAULT_NOISE_SIGMA: f64 = 7.0;
/// Analog-bandwidth low-pass coefficient of the default chain.
pub const DEFAULT_BANDWIDTH_ALPHA: f64 = 0.7;

/// The paper's four reference IPs.
///
/// `IP_A` (binary, Kw1) and `IP_B` (Gray, Kw1) share a key across different
/// FSMs; `IP_B`, `IP_C` (Kw2) and `IP_D` (Kw3) share an FSM across
/// different keys — together proving both identification axes.
pub fn ip_a() -> IpSpec {
    IpSpec::watermarked("IP_A", CounterKind::Binary, KW1)
}

/// `IP_B`: 8-bit Gray counter, key `Kw1`.
pub fn ip_b() -> IpSpec {
    IpSpec::watermarked("IP_B", CounterKind::Gray, KW1)
}

/// `IP_C`: 8-bit Gray counter, key `Kw2`.
pub fn ip_c() -> IpSpec {
    IpSpec::watermarked("IP_C", CounterKind::Gray, KW2)
}

/// `IP_D`: 8-bit Gray counter, key `Kw3`.
pub fn ip_d() -> IpSpec {
    IpSpec::watermarked("IP_D", CounterKind::Gray, KW3)
}

/// All four reference IPs in paper order.
pub fn reference_ips() -> Vec<IpSpec> {
    vec![ip_a(), ip_b(), ip_c(), ip_d()]
}

/// The calibrated default measurement chain: a mildly peaked per-cycle
/// current pulse, 70 % single-pole bandwidth, and heavy per-sample Gaussian
/// noise (single-trace SNR well below 1, as in real power measurements —
/// this is what the paper's k-averaging is for).
///
/// # Errors
///
/// Never fails for the built-in constants; the `Result` is kept so custom
/// chains built the same way compose with `?`.
pub fn default_chain() -> Result<MeasurementChain, CoreError> {
    let coefficients = (0..SAMPLES_PER_CYCLE)
        .map(|i| 0.7 + 0.9 * (-(i as f64) / 1.2).exp())
        .collect();
    let pulse = PulseShape::from_coefficients(coefficients).map_err(CoreError::Power)?;
    MeasurementChain::new(pulse, DEFAULT_BANDWIDTH_ALPHA, DEFAULT_NOISE_SIGMA, None)
        .map_err(CoreError::Power)
}

/// One fabricated die carrying one IP: the circuit plus its
/// process-variation-sampled device model.
#[derive(Debug)]
pub struct FabricatedDevice {
    spec: IpSpec,
    device: DeviceModel,
    circuit: Circuit,
}

impl FabricatedDevice {
    /// "Manufactures" the IP on a die drawn from `variation` with the given
    /// per-die seed.
    ///
    /// # Errors
    ///
    /// Propagates circuit construction and model sampling errors.
    pub fn fabricate(
        spec: &IpSpec,
        variation: &ProcessVariation,
        die_seed: u64,
    ) -> Result<Self, CoreError> {
        let circuit = spec.circuit()?;
        let device = DeviceModel::sample(
            format!("{}@die{die_seed}", spec.name()),
            &spec.nominal_model(),
            variation,
            die_seed,
        )
        .map_err(CoreError::Power)?;
        Ok(Self {
            spec: spec.clone(),
            device,
            circuit,
        })
    }

    /// The IP carried by this die.
    pub fn spec(&self) -> &IpSpec {
        &self.spec
    }

    /// The die's device model.
    pub fn device(&self) -> &DeviceModel {
        &self.device
    }

    /// Prepares a measurement campaign of `num_traces` traces of `cycles`
    /// cycles on this die — the paper's `Pw(device, n)`, served lazily.
    ///
    /// # Errors
    ///
    /// Propagates acquisition errors.
    pub fn acquisition(
        &mut self,
        chain: &MeasurementChain,
        cycles: usize,
        num_traces: usize,
        campaign_seed: u64,
    ) -> Result<SimulatedAcquisition, CoreError> {
        SimulatedAcquisition::prepare(
            &mut self.circuit,
            &self.device,
            chain,
            cycles,
            num_traces,
            campaign_seed,
        )
        .map_err(CoreError::Power)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipmark_traces::TraceSource;

    #[test]
    fn reference_ips_match_paper_fig3() {
        let ips = reference_ips();
        assert_eq!(ips.len(), 4);
        assert_eq!(ips[0].counter(), CounterKind::Binary);
        for ip in &ips[1..] {
            assert_eq!(ip.counter(), CounterKind::Gray);
        }
        assert_eq!(ips[0].key(), Some(KW1));
        assert_eq!(ips[1].key(), Some(KW1));
        assert_eq!(ips[2].key(), Some(KW2));
        assert_eq!(ips[3].key(), Some(KW3));
        // Distinct keys where the paper requires them.
        assert_ne!(KW1, KW2);
        assert_ne!(KW2, KW3);
        assert_ne!(KW1, KW3);
    }

    #[test]
    fn watermarked_circuit_has_expected_layout() {
        let c = ip_a().circuit().unwrap();
        assert_eq!(c.component_count(), layout::WATERMARKED_COMPONENTS);
        let infos = c.component_infos();
        assert_eq!(infos[layout::COUNTER].type_name, "binary-counter");
        assert_eq!(infos[1].type_name, "constant");
        assert_eq!(infos[layout::XOR].type_name, "xor");
        assert_eq!(infos[layout::SBOX].type_name, "sync-rom");
        assert_eq!(c.output_names(), vec!["h"]);
    }

    #[test]
    fn unmarked_circuit_is_bare_counter() {
        let spec = IpSpec::unmarked("clone", CounterKind::Gray);
        let c = spec.circuit().unwrap();
        assert_eq!(c.component_count(), layout::UNMARKED_COMPONENTS);
        assert_eq!(spec.nominal_model().weights().len(), 1);
        assert!(spec.sbox_output_sequence(8).is_none());
    }

    #[test]
    fn circuit_h_matches_analytic_sequence() {
        for spec in reference_ips() {
            let mut c = spec.circuit().unwrap();
            let expected = spec.sbox_output_sequence(32).unwrap();
            for (cycle, &e) in expected.iter().enumerate() {
                let out = c.step().unwrap().outputs[0].value() as u8;
                assert_eq!(out, e, "{} cycle {cycle}", spec.name());
            }
        }
    }

    #[test]
    fn state_sequences_differ_between_counters() {
        let states = |ip: IpSpec| (0..16).map(|c| ip.counter.state_at(c)).collect::<Vec<u8>>();
        let (a, b) = (states(ip_a()), states(ip_b()));
        assert_eq!(a[..4], [0, 1, 2, 3]);
        assert_eq!(b[..4], [0, 1, 3, 2]);
        assert_ne!(a, b);
    }

    #[test]
    fn same_fsm_different_keys_give_different_h_sequences() {
        let hb = ip_b().sbox_output_sequence(64).unwrap();
        let hc = ip_c().sbox_output_sequence(64).unwrap();
        let hd = ip_d().sbox_output_sequence(64).unwrap();
        assert_ne!(hb, hc);
        assert_ne!(hc, hd);
        assert_ne!(hb, hd);
    }

    #[test]
    fn nominal_model_validates_against_circuit() {
        for spec in reference_ips() {
            let c = spec.circuit().unwrap();
            spec.nominal_model().validate(c.component_count()).unwrap();
        }
    }

    #[test]
    fn fabrication_is_deterministic_per_seed() {
        let spec = ip_c();
        let v = ProcessVariation::typical();
        let d1 = FabricatedDevice::fabricate(&spec, &v, 5).unwrap();
        let d2 = FabricatedDevice::fabricate(&spec, &v, 5).unwrap();
        assert_eq!(d1.device(), d2.device());
        let d3 = FabricatedDevice::fabricate(&spec, &v, 6).unwrap();
        assert_ne!(d1.device(), d3.device());
    }

    #[test]
    fn acquisition_produces_expected_shape() {
        let chain = default_chain().unwrap();
        let mut die =
            FabricatedDevice::fabricate(&ip_b(), &ProcessVariation::typical(), 1).unwrap();
        let acq = die.acquisition(&chain, 64, 10, 0).unwrap();
        assert_eq!(acq.num_traces(), 10);
        assert_eq!(acq.trace_len(), 64 * SAMPLES_PER_CYCLE);
    }

    #[test]
    fn default_chain_is_noisy_and_bandlimited() {
        let chain = default_chain().unwrap();
        assert_eq!(chain.samples_per_cycle(), SAMPLES_PER_CYCLE);
        let pulse = PulseShape::from_coefficients(
            (0..SAMPLES_PER_CYCLE)
                .map(|i| 0.7 + 0.9 * (-(i as f64) / 1.2).exp())
                .collect(),
        )
        .unwrap();
        let with = |alpha: f64, sigma: f64| {
            MeasurementChain::new(pulse.clone(), alpha, sigma, None).unwrap()
        };
        assert_eq!(chain, with(DEFAULT_BANDWIDTH_ALPHA, DEFAULT_NOISE_SIGMA));
        assert_ne!(chain, with(1.0, DEFAULT_NOISE_SIGMA), "band-limited");
        assert_ne!(chain, with(DEFAULT_BANDWIDTH_ALPHA, 0.0), "noisy");
        const { assert!(DEFAULT_NOISE_SIGMA > 0.0 && DEFAULT_BANDWIDTH_ALPHA < 1.0) };
    }
}
