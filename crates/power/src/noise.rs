//! The measurement noise: the per-trace [`NoiseRng`] stream and the
//! [`standard_normal`] ziggurat that turns its words into the chain's
//! white Gaussian noise.

use std::sync::OnceLock;

use rand::{Rng, RngCore, SeedableRng};

use crate::device::splitmix64;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{MeasurementChain, PulseShape};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// One realization of white noise of σ `sigma` over `clean`: the
    /// production sweep of a chain whose only stage is that noise.
    fn measure_noise(sigma: f64, clean: &[f64], seed: u64) -> Vec<f64> {
        let chain = MeasurementChain::new(PulseShape::rectangular(1).unwrap(), 1.0, sigma).unwrap();
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
    fn zero_sigma_is_identity() {
        let signal = measure_noise(0.0, &[1.0, 2.0, 3.0], 0);
        assert_eq!(signal, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn white_noise_has_requested_power() {
        let signal = measure_noise(2.0, &[0.0; 50_000], 1);
        let v = variance(&signal);
        assert!((v - 4.0).abs() < 0.2, "variance {v}");
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
