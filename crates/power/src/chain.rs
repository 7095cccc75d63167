//! The measurement chain: per-cycle power → oscilloscope samples.
//!
//! A real acquisition (the paper measures FPGAs with an oscilloscope over a
//! shunt) involves several transformations that this module models
//! explicitly:
//!
//! 1. **pulse shaping** — the current drawn at a clock edge is spread over
//!    the cycle as a decaying pulse ([`PulseShape`]);
//! 2. **additive noise** — thermal + quantization-floor noise, Gaussian per
//!    sample;
//! 3. **analog bandwidth** — the probe/scope front-end low-pass filters the
//!    signal (single-pole IIR).
//!
//! [`MeasurementChain`] runs noise and low-pass as one per-sample sweep.
//! Whether each runs is decided once per call, and the sweep is compiled
//! for that shape, so its per-sample step carries no configuration branch.

use rand::Rng;

use crate::error::PowerError;
use crate::noise::Ziggurat;

/// How one cycle's energy is distributed over the oscilloscope samples of
/// that cycle.
#[derive(Debug, Clone, PartialEq)]
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

/// The complete measurement chain.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasurementChain {
    pulse: PulseShape,
    /// Single-pole low-pass coefficient in (0, 1]; 1.0 = no filtering.
    bandwidth_alpha: f64,
    /// σ of the white Gaussian noise added to every sample; 0 = noiseless.
    noise_sigma: f64,
}

impl MeasurementChain {
    /// Creates a chain.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::Config`] when `bandwidth_alpha` is outside
    /// (0, 1] or `noise_sigma` is negative/non-finite.
    pub fn new(
        pulse: PulseShape,
        bandwidth_alpha: f64,
        noise_sigma: f64,
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
        Ok(Self {
            pulse,
            bandwidth_alpha,
            noise_sigma,
        })
    }

    /// An ideal chain: rectangular pulse, full bandwidth, no noise.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::Config`] when `samples_per_cycle` is zero.
    pub fn ideal(samples_per_cycle: usize) -> Result<Self, PowerError> {
        Self::new(PulseShape::rectangular(samples_per_cycle)?, 1.0, 0.0)
    }

    /// Samples per clock cycle.
    pub fn samples_per_cycle(&self) -> usize {
        self.pulse.samples_per_cycle()
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

    /// The white-noise stage, or `None` when σ is zero.
    fn white(&self) -> Option<White> {
        (self.noise_sigma > 0.0).then(|| White {
            sigma: self.noise_sigma,
            ziggurat: Ziggurat::tables(),
        })
    }

    /// The low-pass stage, or `None` at full bandwidth.
    fn low_pass(&self) -> Option<LowPass> {
        (self.bandwidth_alpha < 1.0).then(|| LowPass::new(self.bandwidth_alpha))
    }

    /// Produces one measured trace from the clean expanded waveform into a
    /// caller-provided buffer (e.g. one row of a preallocated campaign
    /// arena): add the noise, then band-limit.
    /// Performs no heap allocation.
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
    /// [`MeasurementChain::measure_into`] followed by an element-wise `acc += trace`.
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

    /// Resolves the chain's shape — whether noise and low-pass run — into
    /// one [`Stage`] type, and hands it to `sweep`. A stage the chain leaves
    /// out is a [`Through`], so the per-sample step of the resolved type
    /// carries no configuration branch; the choice is made here, once per
    /// call.
    fn with_shape<V: ShapeVisitor>(&self, sweep: V) {
        match self.white() {
            Some(white) => self.then_low_pass(sweep, white),
            None => self.then_low_pass(sweep, Through),
        }
    }

    fn then_low_pass<V: ShapeVisitor, S: Stage>(&self, sweep: V, head: S) {
        match self.low_pass() {
            Some(low_pass) => sweep.visit((head, low_pass)),
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

/// One per-sample stage of the measurement chain: the noise or the
/// low-pass. A stage sees one trace's samples in order; stages compose in
/// order as pairs `(A, B)`.
trait Stage: Copy {
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

/// White Gaussian noise: `x + σ·z`, one normal `z` per sample. Carries the
/// ziggurat tables, fetched once per realization rather than once per
/// sample.
#[derive(Debug, Clone, Copy)]
struct White {
    sigma: f64,
    ziggurat: &'static Ziggurat,
}

impl Stage for White {
    #[inline(always)]
    fn apply<R: Rng + ?Sized>(&mut self, x: f64, rng: &mut R) -> f64 {
        x + self.sigma * self.ziggurat.sample(rng)
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

    /// One measured trace of `clean` in a fresh buffer.
    fn measure<R: Rng + ?Sized>(chain: &MeasurementChain, clean: &[f64], rng: &mut R) -> Vec<f64> {
        let mut out = vec![0.0; clean.len()];
        chain.measure_into(clean, &mut out, rng).unwrap();
        out
    }

    #[test]
    fn pulse_constructors_validate() {
        assert!(PulseShape::rectangular(0).is_err());
        assert!(PulseShape::exponential(4, 0.0).is_err());
        assert!(PulseShape::exponential(4, -1.0).is_err());
        assert!(PulseShape::from_coefficients(vec![]).is_err());
        assert!(PulseShape::from_coefficients(vec![f64::NAN]).is_err());
    }

    #[test]
    fn exponential_pulse_decays() {
        let p = PulseShape::exponential(4, 1.5).unwrap();
        let c = p.coefficients();
        assert_eq!(c[0], 1.0);
        assert!(c.windows(2).all(|w| w[1] < w[0]));
    }

    #[test]
    fn chain_validates_parameters() {
        let p = PulseShape::rectangular(2).unwrap();
        assert!(MeasurementChain::new(p.clone(), 0.0, 0.0).is_err());
        assert!(MeasurementChain::new(p.clone(), 1.5, 0.0).is_err());
        assert!(MeasurementChain::new(p.clone(), 0.5, -1.0).is_err());
        assert!(MeasurementChain::new(p, 0.5, 0.1).is_ok());
    }

    #[test]
    fn expand_multiplies_pulse() {
        let chain = MeasurementChain::new(
            PulseShape::from_coefficients(vec![1.0, 0.5]).unwrap(),
            1.0,
            0.0,
        )
        .unwrap();
        assert_eq!(chain.expand(&[2.0, 4.0]), vec![2.0, 1.0, 4.0, 2.0]);
    }

    #[test]
    fn ideal_chain_measure_is_identity() {
        let chain = MeasurementChain::ideal(3).unwrap();
        let clean = chain.expand(&[1.0, 2.0]);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert_eq!(measure(&chain, &clean, &mut rng), clean);
    }

    #[test]
    fn filter_smooths_steps() {
        // No noise: the measurement is the low-pass alone.
        let chain = MeasurementChain::new(PulseShape::rectangular(1).unwrap(), 0.3, 0.0).unwrap();
        let clean = [0.0, 0.0, 10.0, 10.0, 10.0];
        let signal = measure(&chain, &clean, &mut ChaCha8Rng::seed_from_u64(0));
        assert!(signal[2] > 0.0 && signal[2] < 10.0);
        assert!(signal[3] > signal[2]);
        assert!(signal[4] > signal[3]);
    }

    #[test]
    fn noise_has_requested_spread() {
        let chain = MeasurementChain::new(PulseShape::rectangular(1).unwrap(), 1.0, 0.5).unwrap();
        let clean = vec![1.0; 20_000];
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let noisy = measure(&chain, &clean, &mut rng);
        let mean = noisy.iter().sum::<f64>() / noisy.len() as f64;
        let var = noisy.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / noisy.len() as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
        assert!((var.sqrt() - 0.5).abs() < 0.02, "sigma {}", var.sqrt());
    }

    #[test]
    fn measure_into_is_bitwise_equal_to_measure() {
        let chain =
            MeasurementChain::new(PulseShape::exponential(3, 1.5).unwrap(), 0.6, 0.3).unwrap();
        let clean = chain.expand(&[2.0, 1.0, 0.5]);
        let owned = measure(&chain, &clean, &mut ChaCha8Rng::seed_from_u64(17));
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
        let chain =
            MeasurementChain::new(PulseShape::exponential(4, 2.0).unwrap(), 0.7, 0.2).unwrap();
        let clean = chain.expand(&[1.0, 3.0, 2.0]);
        let a = measure(&chain, &clean, &mut ChaCha8Rng::seed_from_u64(9));
        let b = measure(&chain, &clean, &mut ChaCha8Rng::seed_from_u64(9));
        let c = measure(&chain, &clean, &mut ChaCha8Rng::seed_from_u64(10));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
