//! Composite measurement-noise models.
//!
//! Real oscilloscope captures contain more than white Gaussian noise: the
//! front-end adds 1/f (*pink*) noise, and supply/temperature wander shows
//! up as low-frequency *drift*. [`NoiseProfile`] describes the mixture;
//! the measurement chain applies it per trace as one sweep stage per
//! non-zero component, drawing from one [`NoiseRng`] stream per trace
//! through the [`standard_normal`] ziggurat.

use std::sync::OnceLock;

use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::chain::Stage;
use crate::device::splitmix64;
use crate::error::PowerError;

/// Magnitudes of the per-sample noise components.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseProfile {
    /// σ of the white Gaussian component.
    pub white_sigma: f64,
    /// σ of the pink (1/f) component.
    pub pink_sigma: f64,
    /// Per-step σ of the random-walk drift component.
    pub drift_sigma: f64,
}

impl NoiseProfile {
    /// White noise only — the measurement model of the main experiments.
    pub fn white(sigma: f64) -> Self {
        Self {
            white_sigma: sigma,
            pink_sigma: 0.0,
            drift_sigma: 0.0,
        }
    }

    /// A noiseless profile.
    pub fn none() -> Self {
        Self::white(0.0)
    }

    /// Validates that all sigmas are finite and non-negative.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::Config`] otherwise.
    pub fn validate(&self) -> Result<(), PowerError> {
        for (name, v) in [
            ("white_sigma", self.white_sigma),
            ("pink_sigma", self.pink_sigma),
            ("drift_sigma", self.drift_sigma),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(PowerError::Config(format!(
                    "{name} must be finite and non-negative, got {v}"
                )));
            }
        }
        Ok(())
    }

    /// The white component as a sweep stage, or `None` when its σ is zero.
    pub(crate) fn white_stage(&self) -> Option<White> {
        (self.white_sigma > 0.0).then(|| White {
            sigma: self.white_sigma,
            ziggurat: Ziggurat::tables(),
        })
    }

    /// The pink component as a sweep stage, or `None` when its σ is zero.
    pub(crate) fn pink_stage(&self) -> Option<Pink> {
        (self.pink_sigma > 0.0).then(|| Pink {
            sigma: self.pink_sigma,
            filter: PinkNoise::default(),
            ziggurat: Ziggurat::tables(),
        })
    }

    /// The drift component as a sweep stage, or `None` when its σ is zero.
    pub(crate) fn drift_stage(&self) -> Option<Drift> {
        (self.drift_sigma > 0.0).then(|| Drift {
            sigma: self.drift_sigma,
            level: 0.0,
            ziggurat: Ziggurat::tables(),
        })
    }
}

/// White Gaussian noise: `x + σ·z`, one normal `z` per sample. Carries the
/// ziggurat tables, fetched once per realization rather than once per
/// sample.
#[derive(Debug, Clone, Copy)]
pub(crate) struct White {
    sigma: f64,
    ziggurat: &'static Ziggurat,
}

impl Stage for White {
    #[inline(always)]
    fn apply<R: Rng + ?Sized>(&mut self, x: f64, rng: &mut R) -> f64 {
        x + self.sigma * self.ziggurat.sample(rng)
    }
}

/// Pink noise: `x + σ·pink(z)`, one normal `z` per sample through
/// [`PinkNoise`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pink {
    sigma: f64,
    filter: PinkNoise,
    ziggurat: &'static Ziggurat,
}

impl Stage for Pink {
    #[inline(always)]
    fn apply<R: Rng + ?Sized>(&mut self, x: f64, rng: &mut R) -> f64 {
        let z = self.ziggurat.sample(rng);
        x + self.sigma * self.filter.next(z)
    }
}

/// Random-walk drift: the level takes a step of `σ·z` per sample and is
/// added to it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Drift {
    sigma: f64,
    level: f64,
    ziggurat: &'static Ziggurat,
}

impl Stage for Drift {
    #[inline(always)]
    fn apply<R: Rng + ?Sized>(&mut self, x: f64, rng: &mut R) -> f64 {
        self.level += self.sigma * self.ziggurat.sample(rng);
        x + self.level
    }
}

impl Default for NoiseProfile {
    fn default() -> Self {
        Self::none()
    }
}

/// Right edge `R` of the normal ziggurat's base layer: where Marsaglia &
/// Tsang's 256-layer table hands over to the exponential tail. The
/// nearest `f64` to the published 3.654152885361008796.
pub(crate) const ZIGGURAT_R: f64 = 3.654_152_885_361_009;

/// Area `V` shared by every layer of the normal ziggurat (the base layer
/// counts its tail beyond [`ZIGGURAT_R`]), for the unnormalized density
/// `exp(−x²/2)`.
pub(crate) const ZIGGURAT_V: f64 = 4.928_673_233_99e-3;

/// Number of ziggurat layers; a draw picks one from its low 8 bits.
const LAYERS: usize = 256;

/// The bits of `2.0`: or-ing 52 mantissa bits under them gives a uniform
/// value in `[2, 4)`.
const TWO_BITS: u64 = 0x4000_0000_0000_0000;

/// The tables of the 256-layer ziggurat for the standard normal (Marsaglia
/// & Tsang, "The Ziggurat Method for Generating Random Variables", 2000),
/// laid out as in Doornik's ZIGNOR and `rand_distr`.
///
/// `x[0] = V / f(R)` is the width of the base layer's rectangle,
/// `x[1] = R`, each later edge solves `x[i−1] · (f(x[i]) − f(x[i−1])) = V`,
/// and `x[256] = 0`; `f[i] = exp(−x[i]² / 2)`. Layer `i` spans heights
/// `f[i]..f[i + 1]` and widths up to `x[i]`.
#[derive(Debug)]
pub(crate) struct Ziggurat {
    x: [f64; LAYERS + 1],
    f: [f64; LAYERS + 1],
}

impl Ziggurat {
    /// The workspace's one copy of the tables, built on first use.
    pub(crate) fn tables() -> &'static Self {
        static TABLES: OnceLock<Ziggurat> = OnceLock::new();
        TABLES.get_or_init(Self::build)
    }

    fn build() -> Self {
        let density = |x: f64| (-0.5 * x * x).exp();
        // `from_fn` fills in ascending order, so `edge` is always `x[i − 1]`.
        let mut edge = ZIGGURAT_R;
        let x = std::array::from_fn(|i| match i {
            0 => ZIGGURAT_V / density(ZIGGURAT_R),
            1 => ZIGGURAT_R,
            LAYERS => 0.0,
            _ => {
                edge = (-2.0 * (ZIGGURAT_V / edge + density(edge)).ln()).sqrt();
                edge
            }
        });
        Self {
            x,
            f: x.map(density),
        }
    }

    /// One standard normal draw from these tables ([`standard_normal`]).
    /// Only the fast path is inlined into callers; a rejected word goes to
    /// [`Ziggurat::sample_slow`].
    #[inline(always)]
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let bits = rng.next_u64();
        let (i, u) = layer_and_uniform(bits);
        match (self.x.get(i), self.x.get(i + 1)) {
            (Some(&x_outer), Some(&x_inner)) if (u * x_outer).abs() < x_inner => u * x_outer,
            _ => self.sample_slow(bits, rng),
        }
    }

    /// The draw of a word the fast path rejected, about 1.5 % of draws:
    /// the tail, the wedge test, and fresh words until one is accepted.
    #[cold]
    fn sample_slow<R: Rng + ?Sized>(&self, mut bits: u64, rng: &mut R) -> f64 {
        loop {
            if let Some(x) = self.try_word(bits, rng) {
                return x;
            }
            bits = rng.next_u64();
        }
    }

    /// The draw of one word, or `None` when the word is rejected.
    fn try_word<R: Rng + ?Sized>(&self, bits: u64, rng: &mut R) -> Option<f64> {
        let (i, u) = layer_and_uniform(bits);
        // Always `Some`: a byte indexes one of 256 layers of 257 edges.
        let (&x_outer, &x_inner) = (self.x.get(i)?, self.x.get(i + 1)?);
        let x = u * x_outer;
        if x.abs() < x_inner {
            return Some(x);
        }
        if i == 0 {
            return Some(tail(rng, u));
        }
        let (&f_outer, &f_inner) = (self.f.get(i)?, self.f.get(i + 1)?);
        (f_inner + (f_outer - f_inner) * rng.gen::<f64>() < (-0.5 * x * x).exp()).then_some(x)
    }
}

/// A word's layer, from its low 8 bits, and its uniform `u ∈ [−1, 1)`,
/// from its high 52 bits.
#[inline(always)]
fn layer_and_uniform(bits: u64) -> (usize, f64) {
    (
        usize::from(bits as u8),
        f64::from_bits(TWO_BITS | (bits >> 12)) - 3.0,
    )
}

/// A normal draw beyond `±R`, signed like `u`: Marsaglia's exponential
/// tail method, `x = −ln(U₁) / R` kept when `−2 ln(U₂) > x²`.
#[cold]
fn tail<R: Rng + ?Sized>(rng: &mut R, u: f64) -> f64 {
    loop {
        let x = -open_unit(rng).ln() / ZIGGURAT_R;
        let y = -open_unit(rng).ln();
        if 2.0 * y > x * x {
            return (ZIGGURAT_R + x).copysign(u);
        }
    }
}

/// A uniform in the open interval `(0, 1)`: 53 bits centred in their
/// cell, so `ln` never sees zero.
fn open_unit<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64)
}

/// One standard normal draw from `rng`: the workspace's one RNG-driven
/// normal sampler, a 256-layer ziggurat (Marsaglia & Tsang, 2000).
///
/// The fast path spends one `next_u64`: its low 8 bits pick layer `i`,
/// its high 52 bits a uniform `u ∈ [−1, 1)`, and `x = u · x[i]` is
/// returned when `|x| < x[i + 1]`, about 98.5 % of the time. A reject in
/// the base layer draws from the exponential tail beyond
/// `R = 3.654152885361008796` (Marsaglia, 1964); any other reject is kept
/// when a fresh uniform height inside the layer falls under `exp(−x²/2)`,
/// and redrawn otherwise.
///
/// # Examples
///
/// ```
/// use ipmark_power::noise::{standard_normal, NoiseRng};
/// use rand::SeedableRng;
///
/// let mut a = NoiseRng::seed_from_u64(2014);
/// let mut b = NoiseRng::seed_from_u64(2014);
/// let z = standard_normal(&mut a);
/// assert!(z.is_finite());
/// assert_eq!(z.to_bits(), standard_normal(&mut b).to_bits());
/// ```
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    Ziggurat::tables().sample(rng)
}

/// The SplitMix64 increment (the 64-bit golden ratio), which
/// [`splitmix64`] adds before mixing.
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The per-trace noise stream: xoshiro256++ (Blackman & Vigna, "Scrambled
/// Linear Pseudorandom Number Generators", 2021).
///
/// Measurement noise needs a well-distributed stream that is reproducible
/// per trace, not an unpredictable one, so a cryptographic keystream buys
/// nothing on this path. xoshiro256++ passes BigCrush and PractRand, keeps
/// 256 bits of state and costs a handful of adds, shifts and rotates per
/// word.
///
/// [`NoiseRng::seed_from_u64`] fills the four state words with four
/// consecutive SplitMix64 outputs of the seed, the expansion the
/// generator's authors recommend and the one `SeedableRng::seed_from_u64`
/// uses. The type is defined here rather than borrowed as
/// `rand::rngs::SmallRng`, whose algorithm upstream `rand` documents as
/// non-portable, so that the golden trace fixtures depend only on this
/// code.
///
/// # Examples
///
/// ```
/// use ipmark_power::noise::NoiseRng;
/// use rand::{RngCore, SeedableRng};
///
/// let mut a = NoiseRng::seed_from_u64(7);
/// let mut b = NoiseRng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// assert_eq!(NoiseRng::from_state([1, 2, 3, 4]).next_u64(), 41_943_041);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NoiseRng {
    s: [u64; 4],
}

impl NoiseRng {
    /// A generator starting from the raw state `s`. The all-zero state,
    /// which xoshiro cannot leave, is replaced by `[GOLDEN_GAMMA, 0, 0, 0]`.
    pub fn from_state(s: [u64; 4]) -> Self {
        if s == [0; 4] {
            return Self {
                s: [GOLDEN_GAMMA, 0, 0, 0],
            };
        }
        Self { s }
    }
}

impl SeedableRng for NoiseRng {
    type Seed = [u8; 32];

    /// The four state words are the seed's little-endian 64-bit words.
    fn from_seed(seed: Self::Seed) -> Self {
        let mut s = [0u64; 4];
        for (word, bytes) in s.iter_mut().zip(seed.chunks_exact(8)) {
            let mut le = [0u8; 8];
            le.copy_from_slice(bytes);
            *word = u64::from_le_bytes(le);
        }
        Self::from_state(s)
    }

    /// Four consecutive SplitMix64 outputs of `seed`. Spelled out here so
    /// that the stream does not depend on the trait's default expansion.
    fn seed_from_u64(seed: u64) -> Self {
        let mut s = [0u64; 4];
        let mut x = seed;
        for word in &mut s {
            *word = splitmix64(x);
            x = x.wrapping_add(GOLDEN_GAMMA);
        }
        Self::from_state(s)
    }
}

impl RngCore for NoiseRng {
    /// The high half of the next 64-bit output (xoshiro's low bits are its
    /// weakest).
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

/// Paul Kellet's economical pink-noise filter: seven leaky integrators over
/// a white input give a close 1/f spectrum, normalized to roughly unit
/// output variance.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct PinkNoise {
    b: [f64; 7],
}

impl PinkNoise {
    /// Filters one white sample into one pink sample.
    pub(crate) fn next(&mut self, white: f64) -> f64 {
        let b = &mut self.b;
        b[0] = 0.99886 * b[0] + white * 0.0555179;
        b[1] = 0.99332 * b[1] + white * 0.0750759;
        b[2] = 0.96900 * b[2] + white * 0.1538520;
        b[3] = 0.86650 * b[3] + white * 0.3104856;
        b[4] = 0.55000 * b[4] + white * 0.5329522;
        b[5] = -0.7616 * b[5] - white * 0.0168980;
        let out = b[0] + b[1] + b[2] + b[3] + b[4] + b[5] + b[6] + white * 0.5362;
        b[6] = white * 0.115926;
        // Empirical normalization to ≈ unit variance.
        out * 0.25
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{MeasurementChain, PulseShape};
    use crate::device::gaussian;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// One realization of `profile` over `clean`: the production sweep of a
    /// chain whose only stages are that noise mixture.
    fn measure_noise(profile: NoiseProfile, clean: &[f64], seed: u64) -> Vec<f64> {
        let chain = MeasurementChain::with_extras(
            PulseShape::rectangular(1).unwrap(),
            1.0,
            profile,
            None,
            None,
        )
        .unwrap();
        let mut out = vec![0.0; clean.len()];
        chain
            .measure_into(clean, &mut out, &mut ChaCha8Rng::seed_from_u64(seed))
            .unwrap();
        out
    }

    fn variance(xs: &[f64]) -> f64 {
        let m = xs.iter().sum::<f64>() / xs.len() as f64;
        xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
    }

    #[test]
    fn profile_validation() {
        assert!(NoiseProfile::white(1.0).validate().is_ok());
        assert!(NoiseProfile {
            white_sigma: -1.0,
            pink_sigma: 0.0,
            drift_sigma: 0.0
        }
        .validate()
        .is_err());
        assert!(NoiseProfile {
            white_sigma: 0.0,
            pink_sigma: f64::NAN,
            drift_sigma: 0.0
        }
        .validate()
        .is_err());
    }

    #[test]
    fn silent_profile_is_identity() {
        let signal = measure_noise(NoiseProfile::none(), &[1.0, 2.0, 3.0], 0);
        assert_eq!(signal, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn white_component_has_requested_power() {
        let signal = measure_noise(NoiseProfile::white(2.0), &[0.0; 50_000], 1);
        let v = variance(&signal);
        assert!((v - 4.0).abs() < 0.2, "variance {v}");
    }

    #[test]
    fn pink_noise_is_roughly_unit_variance_and_low_frequency_heavy() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut pink = PinkNoise::default();
        let xs: Vec<f64> = (0..100_000)
            .map(|_| pink.next(gaussian(&mut rng, 0.0, 1.0)))
            .collect();
        let v = variance(&xs);
        assert!((0.4..2.5).contains(&v), "variance {v}");
        // 1/f: adjacent samples are positively correlated, unlike white.
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let lag1: f64 = xs
            .windows(2)
            .map(|w| (w[0] - mean) * (w[1] - mean))
            .sum::<f64>()
            / (xs.len() - 1) as f64;
        assert!(lag1 / v > 0.3, "lag-1 autocorrelation {}", lag1 / v);
    }

    #[test]
    fn drift_accumulates() {
        // A random walk's variance grows with time, so the last quarter
        // should wander more than the first — but any single walk can
        // happen to return toward zero, so assert over a population of
        // seeds rather than one lucky stream.
        let mut accumulated = 0;
        let seeds = 7u64;
        for seed in 0..seeds {
            let drift = NoiseProfile {
                white_sigma: 0.0,
                pink_sigma: 0.0,
                drift_sigma: 0.1,
            };
            let signal = measure_noise(drift, &[0.0; 10_000], seed);
            let early = variance(&signal[..2500]);
            let late = variance(&signal[7500..]);
            let spread_early = signal[..2500].iter().fold(0.0f64, |m, &x| m.max(x.abs()));
            let spread_late = signal[7500..].iter().fold(0.0f64, |m, &x| m.max(x.abs()));
            if spread_late > spread_early || late > early {
                accumulated += 1;
            }
        }
        assert!(
            accumulated * 2 > seeds as usize,
            "drift accumulated in only {accumulated}/{seeds} walks"
        );
    }

    /// `∫_a^b exp(−x²/2) dx` by composite Simpson over `n` (even) panels.
    fn simpson_density(a: f64, b: f64, n: usize) -> f64 {
        let h = (b - a) / n as f64;
        let f = |x: f64| (-0.5 * x * x).exp();
        let inner: f64 = (1..n)
            .map(|i| f(a + i as f64 * h) * if i % 2 == 1 { 4.0 } else { 2.0 })
            .sum();
        h / 3.0 * (f(a) + inner + f(b))
    }

    #[test]
    fn ziggurat_tables_tile_the_density_in_equal_areas() {
        let Ziggurat { x, f } = Ziggurat::tables();
        assert_eq!(x.len(), 257);
        assert!(
            x.windows(2).all(|w| w[1] < w[0]),
            "edges not strictly decreasing"
        );
        assert_eq!(x[1], ZIGGURAT_R);
        assert_eq!(x[256], 0.0);
        for (i, (&xi, &fi)) in x.iter().zip(f).enumerate() {
            assert_eq!(fi, (-0.5 * xi * xi).exp(), "f[{i}]");
        }
        let close = |area: f64, what: &str| {
            let rel = (area - ZIGGURAT_V).abs() / ZIGGURAT_V;
            assert!(rel < 1e-8, "{what}: area {area:e}, relative error {rel:e}");
        };
        // The base layer: the rectangle of width R under f(R), plus the tail
        // beyond R, equals the rectangle of width x[0] the sampler draws in.
        let tail = simpson_density(ZIGGURAT_R, ZIGGURAT_R + 12.0, 20_000);
        close(ZIGGURAT_R * f[1] + tail, "base layer with its tail");
        close(x[0] * f[1], "base rectangle");
        // Layer i: width x[i], heights f[i]..f[i + 1].
        for i in 1..256 {
            close(x[i] * (f[i + 1] - f[i]), &format!("layer {i}"));
        }
    }
}
