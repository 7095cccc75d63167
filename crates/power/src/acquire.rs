//! Trace acquisition — the paper's `Pw(device, n)` function.
//!
//! Acquisition resets the circuit (the paper places every FSM "in the exact
//! same state before starting any power consumption measurements"),
//! simulates the requested number of cycles once to obtain the
//! *deterministic* per-cycle power waveform of the device, then produces `n`
//! measured traces that share that waveform but carry independent
//! measurement noise.
//!
//! [`SimulatedAcquisition`] also implements
//! `ipmark_traces::TraceSource` — so the verification
//! can draw k-averages from a population of `n2 = 10 000` traces without
//! materializing 10 000 × trace-length samples: trace *i* is regenerated
//! on demand from a per-index seed.

use rand::SeedableRng;

use ipmark_netlist::Circuit;
use ipmark_traces::{Trace, TraceBlock, TraceError, TraceSource};

use crate::chain::MeasurementChain;
use crate::device::DeviceModel;
use crate::error::PowerError;
use crate::noise::NoiseRng;

/// Simulates the circuit for `cycles` cycles on the given die and returns
/// the deterministic per-cycle power waveform.
///
/// The circuit is reset first, so repeated calls produce identical output.
///
/// # Errors
///
/// Returns [`PowerError::ModelShapeMismatch`] when the device model does not
/// cover the circuit's components, and propagates simulation errors.
pub fn cycle_powers(
    circuit: &mut Circuit,
    device: &DeviceModel,
    cycles: usize,
) -> Result<Vec<f64>, PowerError> {
    device.validate(circuit.component_count())?;
    circuit.reset();
    let records = circuit.run_free(cycles)?;
    Ok(records.iter().map(|r| device.cycle_power(r)).collect())
}

use crate::device::splitmix64;

/// A virtual measurement campaign on one device: `num_traces` traces, each
/// regenerable on demand from its index.
///
/// # Examples
///
/// ```
/// use ipmark_netlist::{seq::BinaryCounter, CircuitBuilder};
/// use ipmark_power::{
///     acquire::SimulatedAcquisition,
///     chain::MeasurementChain,
///     device::DeviceModel,
///     leakage::{ComponentWeights, WeightedComponentModel},
/// };
/// use ipmark_traces::TraceSource;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CircuitBuilder::new();
/// b.add("cnt", BinaryCounter::new(8, 0)?);
/// let mut circuit = b.build()?;
///
/// let model = WeightedComponentModel::new(1.0, vec![ComponentWeights::state_toggle(0.5)]);
/// let device = DeviceModel::nominal("RefD", model);
/// let chain = MeasurementChain::ideal(4)?;
/// let acq = SimulatedAcquisition::prepare(&mut circuit, &device, &chain, 256, 400, 42)?;
/// assert_eq!(acq.num_traces(), 400);
/// assert_eq!(acq.trace_len(), 256 * 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SimulatedAcquisition {
    device_name: String,
    clean: Vec<f64>,
    chain: MeasurementChain,
    num_traces: usize,
    /// Campaign seed with the device identity folded in, so two campaigns
    /// that share a raw seed (e.g. two CLI `acquire` runs with the default
    /// `--seed 0`) still draw *independent* noise per trace index.
    effective_seed: u64,
}

impl SimulatedAcquisition {
    /// Simulates the device once and fixes the campaign parameters.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::Config`] for a zero-cycle or zero-trace
    /// campaign and propagates model/simulation errors.
    pub fn prepare(
        circuit: &mut Circuit,
        device: &DeviceModel,
        chain: &MeasurementChain,
        cycles: usize,
        num_traces: usize,
        seed: u64,
    ) -> Result<Self, PowerError> {
        if cycles == 0 {
            return Err(PowerError::Config(
                "campaign needs at least one cycle".into(),
            ));
        }
        if num_traces == 0 {
            return Err(PowerError::Config(
                "campaign needs at least one trace".into(),
            ));
        }
        let powers = cycle_powers(circuit, device, cycles)?;
        let clean = chain.expand(&powers);
        // FNV-1a over the device name: campaigns on different dies get
        // independent per-index noise even under identical raw seeds.
        let mut name_hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in device.name().bytes() {
            name_hash ^= u64::from(b);
            name_hash = name_hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(Self {
            device_name: device.name().to_owned(),
            clean,
            chain: chain.clone(),
            num_traces,
            effective_seed: splitmix64(seed).wrapping_add(name_hash),
        })
    }

    /// The device label this campaign was measured on.
    pub fn device_name(&self) -> &str {
        &self.device_name
    }

    /// The clean (noise-free, unfiltered) waveform shared by all traces.
    pub fn clean_waveform(&self) -> &[f64] {
        &self.clean
    }

    /// Regenerates measured trace `index`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::IndexOutOfRange`] when `index` is outside the
    /// campaign.
    pub fn trace(&self, index: usize) -> Result<Trace, TraceError> {
        let mut samples = vec![0.0; self.clean.len()];
        self.trace_into(index, &mut samples)?;
        Ok(Trace::from_samples(samples))
    }

    /// Regenerates measured trace `index` into a caller-provided buffer
    /// (e.g. one row of a preallocated campaign arena), producing the same
    /// sample bits as [`SimulatedAcquisition::trace`] without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::IndexOutOfRange`] when `index` is outside the
    /// campaign and [`TraceError::LengthMismatch`] when `out` is not
    /// `trace_len()` samples.
    pub fn trace_into(&self, index: usize, out: &mut [f64]) -> Result<(), TraceError> {
        let mut rng = self.trace_rng(index)?;
        self.chain
            .measure_into(&self.clean, out, &mut rng)
            .map_err(into_trace_error)
    }

    /// The noise stream of trace `index`: a [`NoiseRng`] seeded from the
    /// campaign seed and the index, so every path that regenerates trace
    /// `index` draws the same samples.
    fn trace_rng(&self, index: usize) -> Result<NoiseRng, TraceError> {
        self.check_index(index)?;
        Ok(self.rng_unchecked(index))
    }

    /// Trace `index`'s stream, for an index already checked.
    fn rng_unchecked(&self, index: usize) -> NoiseRng {
        NoiseRng::seed_from_u64(self.effective_seed ^ splitmix64(index as u64))
    }

    fn check_index(&self, index: usize) -> Result<(), TraceError> {
        if index < self.num_traces {
            Ok(())
        } else {
            Err(TraceError::IndexOutOfRange {
                index,
                available: self.num_traces,
            })
        }
    }

    /// Materializes the whole campaign into one contiguous [`TraceBlock`]
    /// — the paper's `T_device = Pw(device, n)` — performing exactly one
    /// allocation for all `num_traces` traces.
    ///
    /// Each trace regenerates from its own per-index seed directly into its
    /// arena row, so the workers write disjoint row ranges of the shared
    /// allocation. The sample bits equal
    /// [`SimulatedAcquisition::trace`]'s for every row and thread count.
    ///
    /// # Errors
    ///
    /// Propagates container errors (cannot occur for a valid campaign).
    pub fn acquire_block(&self) -> Result<TraceBlock, TraceError> {
        let mut block =
            TraceBlock::zeros(self.device_name.clone(), self.num_traces, self.clean.len())?;
        let trace_len = self.clean.len();
        ipmark_parallel::Pool::from_env().try_fill_rows(
            block.samples_mut(),
            trace_len,
            |i, row| self.trace_into(i, row),
        )?;
        Ok(block)
    }
}

impl TraceSource for SimulatedAcquisition {
    fn num_traces(&self) -> usize {
        self.num_traces
    }

    fn trace_len(&self) -> usize {
        self.clean.len()
    }

    /// Synthesizes trace `index` straight into `acc` in one sweep, with no
    /// per-trace allocation; bit-identical to adding
    /// [`SimulatedAcquisition::trace`] with `kernels::accumulate`.
    fn accumulate(&self, index: usize, acc: &mut [f64]) -> Result<(), TraceError> {
        let mut rng = self.trace_rng(index)?;
        self.chain
            .accumulate_into(&self.clean, acc, &mut rng)
            .map_err(into_trace_error)
    }

    /// Synthesizes the selected traces two per pass through the measurement
    /// chain's paired sweep, an odd last one alone. Bit-identical to the
    /// per-index [`TraceSource::accumulate`] loop, because each sample still
    /// adds the traces onto `acc` one at a time in list order. Checks the
    /// length and every index first, and on failure returns the loop's first
    /// error with `acc` untouched.
    fn accumulate_indices(&self, indices: &[usize], acc: &mut [f64]) -> Result<(), TraceError> {
        let Some(&first) = indices.first() else {
            return Ok(());
        };
        self.check_index(first)?;
        if acc.len() != self.clean.len() {
            return Err(TraceError::LengthMismatch {
                expected: self.clean.len(),
                provided: acc.len(),
            });
        }
        for &i in indices {
            self.check_index(i)?;
        }
        let mut pairs = indices.chunks_exact(2);
        for pair in &mut pairs {
            if let &[a, b] = pair {
                let rngs = [&mut self.rng_unchecked(a), &mut self.rng_unchecked(b)];
                self.chain
                    .accumulate_pair_into(&self.clean, acc, rngs)
                    .map_err(into_trace_error)?;
            }
        }
        for &i in pairs.remainder() {
            self.chain
                .accumulate_into(&self.clean, acc, &mut self.rng_unchecked(i))
                .map_err(into_trace_error)?;
        }
        Ok(())
    }
}

/// Carries a measurement-chain error into the trace layer. The chain's
/// sweeps fail only on a buffer of the wrong length, which keeps its typed
/// form; any other error arrives as the trace error it wraps, or (never,
/// today) as an empty-trace error.
fn into_trace_error(e: PowerError) -> TraceError {
    match e {
        PowerError::LengthMismatch { expected, provided } => {
            TraceError::LengthMismatch { expected, provided }
        }
        PowerError::Trace(e) => e,
        PowerError::Netlist(_) | PowerError::Config(_) | PowerError::ModelShapeMismatch { .. } => {
            TraceError::EmptyTrace
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::PulseShape;
    use crate::leakage::{ComponentWeights, WeightedComponentModel};
    use ipmark_netlist::seq::BinaryCounter;
    use ipmark_netlist::CircuitBuilder;
    use ipmark_traces::streaming::ChunkedSource;

    fn test_circuit() -> Circuit {
        let mut b = CircuitBuilder::new();
        b.add("cnt", BinaryCounter::new(4, 0).unwrap());
        b.build().unwrap()
    }

    fn test_device() -> DeviceModel {
        DeviceModel::nominal(
            "dev",
            WeightedComponentModel::new(2.0, vec![ComponentWeights::state_toggle(1.0)]),
        )
    }

    #[test]
    fn cycle_powers_deterministic_and_reset() {
        let mut circuit = test_circuit();
        let device = test_device();
        let p1 = cycle_powers(&mut circuit, &device, 16).unwrap();
        let p2 = cycle_powers(&mut circuit, &device, 16).unwrap();
        assert_eq!(p1, p2);
        // counter 0->1 toggles 1 bit: base 2 + 1 = 3; 1->2 toggles 2 bits: 4.
        assert_eq!(p1[0], 3.0);
        assert_eq!(p1[1], 4.0);
    }

    #[test]
    fn cycle_powers_validates_model_shape() {
        let mut circuit = test_circuit();
        let device = DeviceModel::nominal(
            "bad",
            WeightedComponentModel::new(0.0, vec![ComponentWeights::default(); 2]),
        );
        assert!(matches!(
            cycle_powers(&mut circuit, &device, 4),
            Err(PowerError::ModelShapeMismatch { .. })
        ));
    }

    #[test]
    fn prepare_rejects_degenerate_campaigns() {
        let mut circuit = test_circuit();
        let device = test_device();
        let chain = MeasurementChain::ideal(2).unwrap();
        assert!(SimulatedAcquisition::prepare(&mut circuit, &device, &chain, 0, 5, 0).is_err());
        assert!(SimulatedAcquisition::prepare(&mut circuit, &device, &chain, 5, 0, 0).is_err());
    }

    #[test]
    fn traces_are_deterministic_per_index() {
        let mut circuit = test_circuit();
        let device = test_device();
        let chain = MeasurementChain::new(PulseShape::rectangular(2).unwrap(), 1.0, 0.1).unwrap();
        let acq = SimulatedAcquisition::prepare(&mut circuit, &device, &chain, 8, 10, 7).unwrap();
        assert_eq!(acq.trace(3).unwrap(), acq.trace(3).unwrap());
        assert_ne!(
            acq.trace(3).unwrap().samples(),
            acq.trace(4).unwrap().samples()
        );
        assert!(acq.trace(10).is_err());
    }

    #[test]
    fn noiseless_campaign_traces_equal_clean_waveform() {
        let mut circuit = test_circuit();
        let device = test_device();
        let chain = MeasurementChain::ideal(3).unwrap();
        let acq = SimulatedAcquisition::prepare(&mut circuit, &device, &chain, 8, 4, 0).unwrap();
        for i in 0..4 {
            assert_eq!(acq.trace(i).unwrap().samples(), acq.clean_waveform());
        }
    }

    #[test]
    fn trace_source_accumulate_matches_trace() {
        let mut circuit = test_circuit();
        let device = test_device();
        let chain = MeasurementChain::new(PulseShape::rectangular(2).unwrap(), 1.0, 0.2).unwrap();
        let acq = SimulatedAcquisition::prepare(&mut circuit, &device, &chain, 4, 5, 11).unwrap();
        let mut acc = vec![0.0; acq.trace_len()];
        acq.accumulate(2, &mut acc).unwrap();
        assert_eq!(acc, acq.trace(2).unwrap().samples().to_vec());
        let mut bad = vec![0.0; 3];
        assert!(acq.accumulate(2, &mut bad).is_err());
    }

    #[test]
    fn chunked_stream_matches_materialized_campaign() {
        let mut circuit = test_circuit();
        let device = test_device();
        let chain = MeasurementChain::new(PulseShape::rectangular(2).unwrap(), 0.9, 0.1).unwrap();
        let acq = SimulatedAcquisition::prepare(&mut circuit, &device, &chain, 8, 11, 9).unwrap();
        let mut chunks = ChunkedSource::new(&acq, 4).unwrap();
        let mut streamed: Vec<Vec<f64>> = Vec::new();
        while let Some(chunk) = chunks.next_chunk().unwrap() {
            streamed.extend(chunk.rows().map(|r| r.samples().to_vec()));
        }
        let batch = acq.acquire_block().unwrap();
        assert_eq!(streamed.len(), batch.len());
        for (i, samples) in streamed.iter().enumerate() {
            assert_eq!(samples.as_slice(), batch.row(i).unwrap().samples());
        }
        assert!(ChunkedSource::new(&acq, 0).is_err());
    }

    #[test]
    fn acquire_block_is_bitwise_equal_to_per_trace_acquisition() {
        let mut circuit = test_circuit();
        let device = test_device();
        let chain = MeasurementChain::new(PulseShape::rectangular(2).unwrap(), 0.9, 0.2).unwrap();
        let acq = SimulatedAcquisition::prepare(&mut circuit, &device, &chain, 8, 13, 4).unwrap();
        let block = acq.acquire_block().unwrap();
        assert_eq!(block.len(), 13);
        assert_eq!(block.device(), "dev");
        for i in 0..13 {
            let row: Vec<u64> = block
                .row(i)
                .unwrap()
                .samples()
                .iter()
                .map(|s| s.to_bits())
                .collect();
            let want: Vec<u64> = acq
                .trace(i)
                .unwrap()
                .samples()
                .iter()
                .map(|s| s.to_bits())
                .collect();
            assert_eq!(row, want, "row {i}");
        }
        // trace_into validates its buffer.
        let mut bad = vec![0.0; 3];
        assert!(acq.trace_into(0, &mut bad).is_err());
        assert!(acq.trace_into(13, &mut vec![0.0; acq.trace_len()]).is_err());
    }

    #[test]
    fn different_campaign_seeds_give_different_noise() {
        let mut circuit = test_circuit();
        let device = test_device();
        let chain = MeasurementChain::new(PulseShape::rectangular(1).unwrap(), 1.0, 0.3).unwrap();
        let a = SimulatedAcquisition::prepare(&mut circuit, &device, &chain, 8, 3, 1)
            .unwrap()
            .trace(0)
            .unwrap();
        let b = SimulatedAcquisition::prepare(&mut circuit, &device, &chain, 8, 3, 2)
            .unwrap()
            .trace(0)
            .unwrap();
        assert_ne!(a.samples(), b.samples());
    }
}
