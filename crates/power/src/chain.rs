//! The measurement chain: per-cycle power → oscilloscope samples.
//!
//! A real acquisition (the paper measures FPGAs with an oscilloscope over a
//! shunt) involves several transformations that this module models
//! explicitly:
//!
//! 1. **pulse shaping** — the current drawn at a clock edge is spread over
//!    the cycle as a decaying pulse ([`PulseShape`]);
//! 2. **analog bandwidth** — the probe/scope front-end low-pass filters the
//!    signal (single-pole IIR);
//! 3. **additive noise** — thermal + quantization-floor noise, Gaussian per
//!    sample;
//! 4. **ADC quantization** — the scope digitizes into `bits` levels over a
//!    fixed full-scale range ([`AdcConfig`]).
//!
//! [`MeasurementChain`] runs noise, low-pass, AC coupling and ADC as one
//! per-sample sweep. Which of them run is decided once per call, and the
//! sweep is compiled for that shape, so its per-sample step carries no
//! configuration branch.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::error::PowerError;
use crate::noise::NoiseProfile;

/// How one cycle's energy is distributed over the oscilloscope samples of
/// that cycle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PulseShape {
    /// One coefficient per sample within a cycle; the cycle's power scalar
    /// is multiplied by each coefficient in turn.
    coefficients: Vec<f64>,
}

impl PulseShape {
    /// A flat (rectangular) pulse over `samples_per_cycle` samples.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::Config`] when `samples_per_cycle` is zero.
    pub fn rectangular(samples_per_cycle: usize) -> Result<Self, PowerError> {
        Self::from_coefficients(vec![1.0; samples_per_cycle])
    }

    /// An exponentially decaying pulse `exp(-i/tau)` — the classic
    /// current-spike shape after a clock edge.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::Config`] when `samples_per_cycle` is zero or
    /// `tau` is not positive.
    pub fn exponential(samples_per_cycle: usize, tau: f64) -> Result<Self, PowerError> {
        if tau <= 0.0 || !tau.is_finite() {
            return Err(PowerError::Config(format!(
                "pulse tau must be positive, got {tau}"
            )));
        }
        Self::from_coefficients(
            (0..samples_per_cycle)
                .map(|i| (-(i as f64) / tau).exp())
                .collect(),
        )
    }

    /// A raised-cosine pulse peaking early in the cycle.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::Config`] when `samples_per_cycle` is zero.
    pub fn raised_cosine(samples_per_cycle: usize) -> Result<Self, PowerError> {
        let n = samples_per_cycle as f64;
        Self::from_coefficients(
            (0..samples_per_cycle)
                .map(|i| 0.5 * (1.0 + (std::f64::consts::PI * (2.0 * i as f64 / n - 0.25)).cos()))
                .collect(),
        )
    }

    /// Builds a pulse from raw coefficients.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::Config`] for an empty or non-finite coefficient
    /// list.
    pub fn from_coefficients(coefficients: Vec<f64>) -> Result<Self, PowerError> {
        if coefficients.is_empty() {
            return Err(PowerError::Config(
                "pulse shape needs at least one sample per cycle".to_owned(),
            ));
        }
        if coefficients.iter().any(|c| !c.is_finite()) {
            return Err(PowerError::Config(
                "pulse shape coefficients must be finite".to_owned(),
            ));
        }
        Ok(Self { coefficients })
    }

    /// Samples per clock cycle.
    pub fn samples_per_cycle(&self) -> usize {
        self.coefficients.len()
    }

    /// The coefficients.
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }
}

/// Oscilloscope ADC configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdcConfig {
    /// Resolution in bits (scopes are typically 8–12 bit).
    pub bits: u8,
    /// Bottom of the full-scale range.
    pub full_scale_min: f64,
    /// Top of the full-scale range.
    pub full_scale_max: f64,
}

impl AdcConfig {
    /// Validates resolution and range.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::Config`] for zero/overwide resolution or an
    /// empty range.
    pub fn validate(&self) -> Result<(), PowerError> {
        if self.bits == 0 || self.bits > 24 {
            return Err(PowerError::Config(format!(
                "ADC resolution must be 1..=24 bits, got {}",
                self.bits
            )));
        }
        // Finiteness first so the comparison below never sees a NaN (a raw
        // `partial_cmp` here would silently yield `None` — lint CC003).
        if !self.full_scale_min.is_finite()
            || !self.full_scale_max.is_finite()
            || self.full_scale_max <= self.full_scale_min
        {
            return Err(PowerError::Config(format!(
                "ADC full scale [{}, {}] is invalid",
                self.full_scale_min, self.full_scale_max
            )));
        }
        Ok(())
    }

    /// Quantizes one sample: clamp to full scale, round to the nearest of
    /// `2^bits` levels, return the level's center value.
    pub fn quantize(&self, x: f64) -> f64 {
        let levels = (1u64 << self.bits) as f64 - 1.0;
        let span = self.full_scale_max - self.full_scale_min;
        let clamped = x.clamp(self.full_scale_min, self.full_scale_max);
        let code = ((clamped - self.full_scale_min) / span * levels).round();
        self.full_scale_min + code / levels * span
    }
}

/// The complete measurement chain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasurementChain {
    pulse: PulseShape,
    /// Single-pole low-pass coefficient in (0, 1]; 1.0 = no filtering.
    bandwidth_alpha: f64,
    /// The per-sample noise mixture.
    noise: NoiseProfile,
    /// Single-pole high-pass (AC-coupling) coefficient in (0, 1); `None`
    /// for DC coupling.
    ac_alpha: Option<f64>,
    adc: Option<AdcConfig>,
}

impl MeasurementChain {
    /// Creates a chain.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::Config`] when `bandwidth_alpha` is outside
    /// (0, 1], `noise_sigma` is negative/non-finite, or the ADC config is
    /// invalid.
    pub fn new(
        pulse: PulseShape,
        bandwidth_alpha: f64,
        noise_sigma: f64,
        adc: Option<AdcConfig>,
    ) -> Result<Self, PowerError> {
        if !(bandwidth_alpha > 0.0 && bandwidth_alpha <= 1.0) {
            return Err(PowerError::Config(format!(
                "bandwidth alpha must be in (0, 1], got {bandwidth_alpha}"
            )));
        }
        if !noise_sigma.is_finite() || noise_sigma < 0.0 {
            return Err(PowerError::Config(format!(
                "noise sigma must be finite and non-negative, got {noise_sigma}"
            )));
        }
        if let Some(a) = &adc {
            a.validate()?;
        }
        Ok(Self {
            pulse,
            bandwidth_alpha,
            noise: NoiseProfile::white(noise_sigma),
            ac_alpha: None,
            adc,
        })
    }

    /// Creates a chain with a full noise mixture and optional AC coupling
    /// (high-pass) at the scope input.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::Config`] for an out-of-range bandwidth or
    /// AC-coupling coefficient, an invalid noise profile, or an invalid
    /// ADC configuration.
    pub fn with_extras(
        pulse: PulseShape,
        bandwidth_alpha: f64,
        noise: NoiseProfile,
        ac_coupling_alpha: Option<f64>,
        adc: Option<AdcConfig>,
    ) -> Result<Self, PowerError> {
        let mut chain = Self::new(pulse, bandwidth_alpha, 0.0, adc)?;
        noise.validate()?;
        if let Some(a) = ac_coupling_alpha {
            if !(a > 0.0 && a < 1.0) {
                return Err(PowerError::Config(format!(
                    "AC-coupling alpha must be in (0, 1), got {a}"
                )));
            }
        }
        chain.noise = noise;
        chain.ac_alpha = ac_coupling_alpha;
        Ok(chain)
    }

    /// An ideal chain: rectangular pulse, full bandwidth, no noise, no ADC.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::Config`] when `samples_per_cycle` is zero.
    pub fn ideal(samples_per_cycle: usize) -> Result<Self, PowerError> {
        Self::new(PulseShape::rectangular(samples_per_cycle)?, 1.0, 0.0, None)
    }

    /// Samples per clock cycle.
    pub fn samples_per_cycle(&self) -> usize {
        self.pulse.samples_per_cycle()
    }

    /// Per-sample white-noise standard deviation.
    pub fn noise_sigma(&self) -> f64 {
        self.noise.white_sigma
    }

    /// The full noise mixture.
    pub fn noise_profile(&self) -> &NoiseProfile {
        &self.noise
    }

    /// The AC-coupling (high-pass) coefficient, if enabled.
    pub fn ac_coupling_alpha(&self) -> Option<f64> {
        self.ac_alpha
    }

    /// Low-pass coefficient.
    pub fn bandwidth_alpha(&self) -> f64 {
        self.bandwidth_alpha
    }

    /// The ADC, if any.
    pub fn adc(&self) -> Option<&AdcConfig> {
        self.adc.as_ref()
    }

    /// Expands per-cycle powers into the clean (noise-free, unfiltered)
    /// sample waveform: each cycle scalar × pulse coefficients.
    pub fn expand(&self, cycle_powers: &[f64]) -> Vec<f64> {
        let spc = self.pulse.samples_per_cycle();
        let mut out = Vec::with_capacity(cycle_powers.len() * spc);
        for &p in cycle_powers {
            for &c in self.pulse.coefficients() {
                out.push(p * c);
            }
        }
        out
    }

    /// The low-pass stage, or `None` at full bandwidth.
    fn low_pass(&self) -> Option<LowPass> {
        (self.bandwidth_alpha < 1.0).then(|| LowPass::new(self.bandwidth_alpha))
    }

    /// The AC-coupling stage, or `None` for DC coupling.
    fn ac_coupling(&self) -> Option<AcCoupling> {
        self.ac_alpha.map(AcCoupling::new)
    }

    /// Produces one measured trace from the clean expanded waveform:
    /// add the noise mixture, band-limit, AC-couple, quantize.
    pub fn measure<R: Rng + ?Sized>(&self, clean: &[f64], rng: &mut R) -> Vec<f64> {
        let mut out = vec![0.0; clean.len()];
        self.write(clean, &mut out, rng);
        out
    }

    /// [`MeasurementChain::measure`] into a caller-provided buffer (e.g. one
    /// row of a preallocated campaign arena), performing no heap
    /// allocation. Runs the same sweep, so the produced sample bits match
    /// `measure` exactly.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::LengthMismatch`] when `out.len() != clean.len()`,
    /// leaving `out` and `rng` untouched.
    pub fn measure_into<R: Rng + ?Sized>(
        &self,
        clean: &[f64],
        out: &mut [f64],
        rng: &mut R,
    ) -> Result<(), PowerError> {
        check_len(clean, out)?;
        self.write(clean, out, rng);
        Ok(())
    }

    /// Adds one measured trace onto `acc` without materializing it: the
    /// k-average step of an on-demand source. Bit-identical to
    /// [`MeasurementChain::measure`] followed by an element-wise `acc += trace`.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::LengthMismatch`] when `acc.len() != clean.len()`,
    /// leaving `acc` and `rng` untouched.
    pub fn accumulate_into<R: Rng + ?Sized>(
        &self,
        clean: &[f64],
        acc: &mut [f64],
        rng: &mut R,
    ) -> Result<(), PowerError> {
        check_len(clean, acc)?;
        self.with_shape(Sweep {
            clean,
            out: acc,
            rngs: [rng],
            put: |a: &mut f64, [y]: [f64; 1]| *a += y,
        });
        Ok(())
    }

    /// Adds two measured traces onto `acc` in one pass, the first drawn from
    /// `rngs[0]` and the second from `rngs[1]`: at every sample
    /// `acc ← (acc + t₀) + t₁`. That is the operation sequence of two
    /// [`MeasurementChain::accumulate_into`] calls in that order, so the
    /// result is bit-identical to them; each trace still draws its noise
    /// from its own stream in its own order.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::LengthMismatch`] when `acc.len() != clean.len()`,
    /// leaving `acc` and both streams untouched.
    pub(crate) fn accumulate_pair_into<R: Rng + ?Sized>(
        &self,
        clean: &[f64],
        acc: &mut [f64],
        rngs: [&mut R; 2],
    ) -> Result<(), PowerError> {
        check_len(clean, acc)?;
        self.with_shape(Sweep {
            clean,
            out: acc,
            rngs,
            put: |a: &mut f64, [y0, y1]: [f64; 2]| *a = (*a + y0) + y1,
        });
        Ok(())
    }

    /// The sweep behind `measure` and `measure_into`: writes one trace.
    fn write<R: Rng + ?Sized>(&self, clean: &[f64], out: &mut [f64], rng: &mut R) {
        self.with_shape(Sweep {
            clean,
            out,
            rngs: [rng],
            put: |o: &mut f64, [y]: [f64; 1]| *o = y,
        });
    }

    /// Resolves the chain's shape — which noise components, and whether
    /// low-pass, AC coupling and ADC run — into one [`Stage`] type, and
    /// hands it to `sweep`. Every stage the chain leaves out is a
    /// [`Through`], so the per-sample step of the resolved type carries no
    /// configuration branch; the choice is made here, once per call.
    fn with_shape<V: ShapeVisitor>(&self, sweep: V) {
        match self.noise.white_stage() {
            Some(white) => self.then_pink(sweep, white),
            None => self.then_pink(sweep, Through),
        }
    }

    fn then_pink<V: ShapeVisitor, S: Stage>(&self, sweep: V, head: S) {
        match self.noise.pink_stage() {
            Some(pink) => self.then_drift(sweep, (head, pink)),
            None => self.then_drift(sweep, (head, Through)),
        }
    }

    fn then_drift<V: ShapeVisitor, S: Stage>(&self, sweep: V, head: S) {
        match self.noise.drift_stage() {
            Some(drift) => self.then_low_pass(sweep, (head, drift)),
            None => self.then_low_pass(sweep, (head, Through)),
        }
    }

    fn then_low_pass<V: ShapeVisitor, S: Stage>(&self, sweep: V, head: S) {
        match self.low_pass() {
            Some(low_pass) => self.then_ac(sweep, (head, low_pass)),
            None => self.then_ac(sweep, (head, Through)),
        }
    }

    fn then_ac<V: ShapeVisitor, S: Stage>(&self, sweep: V, head: S) {
        match self.ac_coupling() {
            Some(ac) => self.then_adc(sweep, (head, ac)),
            None => self.then_adc(sweep, (head, Through)),
        }
    }

    fn then_adc<V: ShapeVisitor, S: Stage>(&self, sweep: V, head: S) {
        match self.adc {
            Some(adc) => sweep.visit((head, adc)),
            None => sweep.visit((head, Through)),
        }
    }
}

fn check_len(clean: &[f64], buf: &[f64]) -> Result<(), PowerError> {
    if buf.len() == clean.len() {
        Ok(())
    } else {
        Err(PowerError::LengthMismatch {
            expected: clean.len(),
            provided: buf.len(),
        })
    }
}

/// One per-sample stage of the measurement chain: a noise component, the
/// low-pass, AC coupling or the ADC. A stage sees one trace's samples in
/// order; stages compose in order as pairs `(A, B)`.
pub(crate) trait Stage: Copy {
    /// The trace's first sample: seeds any state from this input, then
    /// applies.
    #[inline(always)]
    fn first<R: Rng + ?Sized>(&mut self, x: f64, rng: &mut R) -> f64 {
        self.apply(x, rng)
    }

    /// Every later sample.
    fn apply<R: Rng + ?Sized>(&mut self, x: f64, rng: &mut R) -> f64;
}

/// A stage the chain leaves out: the identity, with no state and no draws.
#[derive(Debug, Clone, Copy)]
struct Through;

impl Stage for Through {
    #[inline(always)]
    fn apply<R: Rng + ?Sized>(&mut self, x: f64, _: &mut R) -> f64 {
        x
    }
}

impl<A: Stage, B: Stage> Stage for (A, B) {
    #[inline(always)]
    fn first<R: Rng + ?Sized>(&mut self, x: f64, rng: &mut R) -> f64 {
        let x = self.0.first(x, rng);
        self.1.first(x, rng)
    }

    #[inline(always)]
    fn apply<R: Rng + ?Sized>(&mut self, x: f64, rng: &mut R) -> f64 {
        let x = self.0.apply(x, rng);
        self.1.apply(x, rng)
    }
}

/// Single-pole low-pass `y ← y + α (x − y)`, its state seeded with the
/// first input.
#[derive(Debug, Clone, Copy)]
struct LowPass {
    alpha: f64,
    y: f64,
}

impl LowPass {
    fn new(alpha: f64) -> Self {
        Self { alpha, y: 0.0 }
    }
}

impl Stage for LowPass {
    #[inline(always)]
    fn first<R: Rng + ?Sized>(&mut self, x: f64, rng: &mut R) -> f64 {
        self.y = x;
        self.apply(x, rng)
    }

    #[inline(always)]
    fn apply<R: Rng + ?Sized>(&mut self, x: f64, _: &mut R) -> f64 {
        self.y += self.alpha * (x - self.y);
        self.y
    }
}

/// Single-pole high-pass `y ← α (y' + x − x')`, starting from `x' = x₀`
/// and `y' = 0`.
#[derive(Debug, Clone, Copy)]
struct AcCoupling {
    alpha: f64,
    prev_x: f64,
    prev_y: f64,
}

impl AcCoupling {
    fn new(alpha: f64) -> Self {
        Self {
            alpha,
            prev_x: 0.0,
            prev_y: 0.0,
        }
    }
}

impl Stage for AcCoupling {
    #[inline(always)]
    fn first<R: Rng + ?Sized>(&mut self, x: f64, rng: &mut R) -> f64 {
        self.prev_x = x;
        self.prev_y = 0.0;
        self.apply(x, rng)
    }

    #[inline(always)]
    fn apply<R: Rng + ?Sized>(&mut self, x: f64, _: &mut R) -> f64 {
        let y = self.alpha * (self.prev_y + x - self.prev_x);
        self.prev_x = x;
        self.prev_y = y;
        y
    }
}

impl Stage for AdcConfig {
    #[inline(always)]
    fn apply<R: Rng + ?Sized>(&mut self, x: f64, _: &mut R) -> f64 {
        self.quantize(x)
    }
}

/// Something to run over a chain shape once [`MeasurementChain::with_shape`]
/// has resolved it to a [`Stage`] type. A trait rather than a closure
/// because the shape's type is known only inside the dispatch, and a
/// closure cannot be generic over it.
trait ShapeVisitor {
    fn visit<S: Stage>(self, shape: S);
}

/// `L` traces of one chain through the resolved shape in one pass, lane
/// `l` drawing from `rngs[l]`. At every sample each lane steps once, lane
/// 0 first, and `put` folds the `L` outputs into that sample of `out`. A
/// lane's draws are its own trace's, in its own order, so a pass over two
/// lanes draws exactly what two one-lane passes would.
struct Sweep<'a, const L: usize, R: ?Sized, F> {
    clean: &'a [f64],
    out: &'a mut [f64],
    rngs: [&'a mut R; L],
    put: F,
}

impl<const L: usize, R, F> ShapeVisitor for Sweep<'_, L, R, F>
where
    R: Rng + ?Sized,
    F: FnMut(&mut f64, [f64; L]),
{
    #[inline]
    fn visit<S: Stage>(self, shape: S) {
        let Self {
            clean,
            out,
            rngs,
            mut put,
        } = self;
        let mut lanes = rngs.map(|rng| (shape, rng));
        let (Some((&c, clean)), Some((o, out))) = (clean.split_first(), out.split_first_mut())
        else {
            return;
        };
        put(o, lanes.each_mut().map(|(stage, rng)| stage.first(c, *rng)));
        for (o, &c) in out.iter_mut().zip(clean) {
            put(o, lanes.each_mut().map(|(stage, rng)| stage.apply(c, *rng)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn pulse_constructors_validate() {
        assert!(PulseShape::rectangular(0).is_err());
        assert!(PulseShape::exponential(4, 0.0).is_err());
        assert!(PulseShape::exponential(4, -1.0).is_err());
        assert!(PulseShape::from_coefficients(vec![]).is_err());
        assert!(PulseShape::from_coefficients(vec![f64::NAN]).is_err());
        assert_eq!(PulseShape::raised_cosine(8).unwrap().samples_per_cycle(), 8);
    }

    #[test]
    fn exponential_pulse_decays() {
        let p = PulseShape::exponential(4, 1.5).unwrap();
        let c = p.coefficients();
        assert_eq!(c[0], 1.0);
        assert!(c.windows(2).all(|w| w[1] < w[0]));
    }

    #[test]
    fn adc_validation() {
        assert!(AdcConfig {
            bits: 0,
            full_scale_min: 0.0,
            full_scale_max: 1.0
        }
        .validate()
        .is_err());
        assert!(AdcConfig {
            bits: 8,
            full_scale_min: 1.0,
            full_scale_max: 1.0
        }
        .validate()
        .is_err());
        assert!(AdcConfig {
            bits: 8,
            full_scale_min: 0.0,
            full_scale_max: 1.0
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn adc_quantizes_and_clamps() {
        let adc = AdcConfig {
            bits: 3,
            full_scale_min: 0.0,
            full_scale_max: 7.0,
        };
        // 8 levels over [0,7]: integers are representable exactly.
        assert_eq!(adc.quantize(3.2), 3.0);
        assert_eq!(adc.quantize(3.6), 4.0);
        assert_eq!(adc.quantize(-5.0), 0.0);
        assert_eq!(adc.quantize(99.0), 7.0);
    }

    #[test]
    fn chain_validates_parameters() {
        let p = PulseShape::rectangular(2).unwrap();
        assert!(MeasurementChain::new(p.clone(), 0.0, 0.0, None).is_err());
        assert!(MeasurementChain::new(p.clone(), 1.5, 0.0, None).is_err());
        assert!(MeasurementChain::new(p.clone(), 0.5, -1.0, None).is_err());
        assert!(MeasurementChain::new(p, 0.5, 0.1, None).is_ok());
    }

    #[test]
    fn expand_multiplies_pulse() {
        let chain = MeasurementChain::new(
            PulseShape::from_coefficients(vec![1.0, 0.5]).unwrap(),
            1.0,
            0.0,
            None,
        )
        .unwrap();
        assert_eq!(chain.expand(&[2.0, 4.0]), vec![2.0, 1.0, 4.0, 2.0]);
    }

    #[test]
    fn ideal_chain_measure_is_identity() {
        let chain = MeasurementChain::ideal(3).unwrap();
        let clean = chain.expand(&[1.0, 2.0]);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert_eq!(chain.measure(&clean, &mut rng), clean);
    }

    #[test]
    fn filter_smooths_steps() {
        // No noise and no ADC: the measurement is the low-pass alone.
        let chain =
            MeasurementChain::new(PulseShape::rectangular(1).unwrap(), 0.3, 0.0, None).unwrap();
        let clean = [0.0, 0.0, 10.0, 10.0, 10.0];
        let signal = chain.measure(&clean, &mut ChaCha8Rng::seed_from_u64(0));
        assert!(signal[2] > 0.0 && signal[2] < 10.0);
        assert!(signal[3] > signal[2]);
        assert!(signal[4] > signal[3]);
    }

    #[test]
    fn noise_has_requested_spread() {
        let chain =
            MeasurementChain::new(PulseShape::rectangular(1).unwrap(), 1.0, 0.5, None).unwrap();
        let clean = vec![1.0; 20_000];
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let noisy = chain.measure(&clean, &mut rng);
        let mean = noisy.iter().sum::<f64>() / noisy.len() as f64;
        let var = noisy.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / noisy.len() as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
        assert!((var.sqrt() - 0.5).abs() < 0.02, "sigma {}", var.sqrt());
    }

    #[test]
    fn with_extras_validates_everything() {
        use crate::noise::NoiseProfile;
        let pulse = PulseShape::rectangular(2).unwrap();
        assert!(MeasurementChain::with_extras(
            pulse.clone(),
            0.5,
            NoiseProfile {
                white_sigma: -1.0,
                pink_sigma: 0.0,
                drift_sigma: 0.0
            },
            None,
            None
        )
        .is_err());
        assert!(MeasurementChain::with_extras(
            pulse.clone(),
            0.5,
            NoiseProfile::none(),
            Some(0.0),
            None
        )
        .is_err());
        assert!(MeasurementChain::with_extras(
            pulse.clone(),
            0.5,
            NoiseProfile::none(),
            Some(1.0),
            None
        )
        .is_err());
        let chain = MeasurementChain::with_extras(
            pulse,
            0.5,
            NoiseProfile {
                white_sigma: 0.1,
                pink_sigma: 0.2,
                drift_sigma: 0.01,
            },
            Some(0.99),
            None,
        )
        .unwrap();
        assert_eq!(chain.noise_sigma(), 0.1);
        assert_eq!(chain.noise_profile().pink_sigma, 0.2);
        assert_eq!(chain.ac_coupling_alpha(), Some(0.99));
    }

    #[test]
    fn ac_coupling_removes_dc_offset() {
        use crate::noise::NoiseProfile;
        let chain = MeasurementChain::with_extras(
            PulseShape::rectangular(1).unwrap(),
            1.0,
            NoiseProfile::none(),
            Some(0.95),
            None,
        )
        .unwrap();
        // A large DC level plus a small ripple: after AC coupling the mean
        // of the tail must be near zero while the ripple survives.
        let clean: Vec<f64> = (0..2000).map(|i| 100.0 + (i as f64 * 0.8).sin()).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let coupled = chain.measure(&clean, &mut rng);
        let tail = &coupled[1000..];
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(mean.abs() < 0.5, "residual DC {mean}");
        let spread = tail.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        assert!(spread > 0.3, "ripple was destroyed: {spread}");
    }

    #[test]
    fn pink_and_drift_noise_flow_through_measure() {
        use crate::noise::NoiseProfile;
        let chain = MeasurementChain::with_extras(
            PulseShape::rectangular(1).unwrap(),
            1.0,
            NoiseProfile {
                white_sigma: 0.0,
                pink_sigma: 0.5,
                drift_sigma: 0.0,
            },
            None,
            None,
        )
        .unwrap();
        let clean = vec![0.0; 4000];
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let noisy = chain.measure(&clean, &mut rng);
        let var = noisy.iter().map(|x| x * x).sum::<f64>() / noisy.len() as f64;
        assert!(var > 0.01, "pink noise missing, var = {var}");
    }

    #[test]
    fn measure_into_is_bitwise_equal_to_measure() {
        let chain = MeasurementChain::new(
            PulseShape::exponential(3, 1.5).unwrap(),
            0.6,
            0.3,
            Some(AdcConfig {
                bits: 9,
                full_scale_min: -1.0,
                full_scale_max: 5.0,
            }),
        )
        .unwrap();
        let clean = chain.expand(&[2.0, 1.0, 0.5]);
        let owned = chain.measure(&clean, &mut ChaCha8Rng::seed_from_u64(17));
        let mut buf = vec![9.9; clean.len()];
        chain
            .measure_into(&clean, &mut buf, &mut ChaCha8Rng::seed_from_u64(17))
            .unwrap();
        let a: Vec<u64> = owned.iter().map(|s| s.to_bits()).collect();
        let b: Vec<u64> = buf.iter().map(|s| s.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn length_mismatch_is_a_typed_error() {
        let chain = MeasurementChain::ideal(2).unwrap();
        let clean = chain.expand(&[1.0, 2.0]);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut short = vec![7.0; 3];
        assert!(matches!(
            chain.measure_into(&clean, &mut short, &mut rng),
            Err(PowerError::LengthMismatch {
                expected: 4,
                provided: 3
            })
        ));
        assert!(matches!(
            chain.accumulate_into(&clean, &mut short, &mut rng),
            Err(PowerError::LengthMismatch { .. })
        ));
        assert_eq!(short, vec![7.0; 3]);
    }

    #[test]
    fn measure_is_deterministic_per_rng_seed() {
        let chain = MeasurementChain::new(
            PulseShape::exponential(4, 2.0).unwrap(),
            0.7,
            0.2,
            Some(AdcConfig {
                bits: 10,
                full_scale_min: -2.0,
                full_scale_max: 6.0,
            }),
        )
        .unwrap();
        let clean = chain.expand(&[1.0, 3.0, 2.0]);
        let a = chain.measure(&clean, &mut ChaCha8Rng::seed_from_u64(9));
        let b = chain.measure(&clean, &mut ChaCha8Rng::seed_from_u64(9));
        let c = chain.measure(&clean, &mut ChaCha8Rng::seed_from_u64(10));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
