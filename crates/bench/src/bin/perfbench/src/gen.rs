//! Inputs the benchmark generates for itself: a splitmix64 stream,
//! Poisson arrival times, Zipf tenant draws, and FNV-1a fingerprints.
//!
//! The traffic is derived here rather than through
//! `serve::load::Workload`, so a change to the serving crate cannot
//! change what the benchmark offers it.

use sparse::CsrMatrix;

/// Seed of the serving workloads' tenant matrices (see
/// [`SplitMix64::corpus`]).
const CORPUS_SEED: u64 = 0xC0_4B05;

/// Sebastiano Vigna's splitmix64: tiny, seedable, and fixed forever.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// An independent stream for `purpose` under the run seed, so adding
    /// a draw to one stream never shifts another.
    pub fn stream(seed: u64, purpose: u64) -> Self {
        let mut mix = Self(seed ^ purpose.wrapping_mul(0xA24B_AED4_963E_E407));
        Self(mix.next_u64())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The corpus stream for `purpose`: the generator seed of a serving
    /// tenant's matrix. It does not depend on the run seed, so every seed
    /// serves the same tenants; at the small scales of the serving
    /// workloads, the generator seed alone moves a tenant's nnz by
    /// several percent, and the pass's host time with it.
    pub fn corpus(purpose: u64) -> Self {
        Self::stream(CORPUS_SEED, purpose)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is below 2^-40 for
    /// every `n` used here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The first `n` arrival times of a Poisson process at `rate_per_s`.
/// The count is fixed rather than the window, so every seed offers the
/// same number of requests and only their spacing varies.
pub fn poisson_arrivals(rng: &mut SplitMix64, rate_per_s: f64, n: usize) -> Vec<f64> {
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.next_f64()).ln() / rate_per_s;
            t
        })
        .collect()
}

/// `n` arrival times of a Poisson process conditioned on exactly `n`
/// arrivals in `[0, window_s)`: `n` uniform draws, sorted. The stream
/// ends with the window at every seed, rather than a few hundred
/// microseconds before or after it.
pub fn poisson_arrivals_within(rng: &mut SplitMix64, n: usize, window_s: f64) -> Vec<f64> {
    let mut t: Vec<f64> = (0..n).map(|_| rng.next_f64() * window_s).collect();
    t.sort_by(f64::total_cmp);
    t
}

/// Zipf(s) shares over `n` ranks; rank 0 is the most popular.
#[derive(Debug, Clone)]
pub struct Zipf {
    shares: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        Self {
            shares: weights.iter().map(|w| w / total).collect(),
        }
    }

    /// `n` draws holding each rank its Zipf share of `n` (rounded by
    /// largest remainder), in an order shuffled by `rng`. The mix is the
    /// same at every seed; independent draws would move a tenant's share
    /// by a few percent from seed to seed, and the pass's work with it.
    pub fn shuffled_draws(&self, rng: &mut SplitMix64, n: usize) -> Vec<usize> {
        let exact: Vec<f64> = self.shares.iter().map(|p| p * n as f64).collect();
        let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
        let mut by_remainder: Vec<usize> = (0..counts.len()).collect();
        by_remainder.sort_by(|&a, &b| {
            (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor()))
        });
        let short = n - counts.iter().sum::<usize>();
        for &rank in by_remainder.iter().take(short) {
            counts[rank] += 1;
        }
        let mut draws: Vec<usize> = counts
            .iter()
            .enumerate()
            .flat_map(|(rank, &c)| std::iter::repeat_n(rank, c))
            .collect();
        // Fisher–Yates.
        for i in (1..draws.len()).rev() {
            draws.swap(i, rng.below(i + 1));
        }
        draws
    }
}

/// 64-bit FNV-1a.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Labels `input.<name>.{rows,cols,nnz,fnv}` for a generated matrix;
/// the fingerprint covers its shape and every stored byte.
pub fn matrix_labels(name: &str, m: &CsrMatrix<f32>) -> Vec<(String, String)> {
    let mut h = Fnv::default();
    h.u64(m.rows() as u64);
    h.u64(m.cols() as u64);
    for &p in m.indptr() {
        h.u64(p as u64);
    }
    for &c in m.indices() {
        h.u64(u64::from(c));
    }
    for &v in m.values() {
        h.u64(u64::from(v.to_bits()));
    }
    [
        ("rows", m.rows().to_string()),
        ("cols", m.cols().to_string()),
        ("nnz", m.nnz().to_string()),
        ("fnv", format!("{:016x}", h.finish())),
    ]
    .into_iter()
    .map(|(k, v)| (format!("input.{name}.{k}"), v))
    .collect()
}

/// Fingerprint of a k-NN answer list (indices and distance bits).
pub fn fnv_answer(h: &mut Fnv, indices: &[usize], distances: &[f32]) {
    h.u64(indices.len() as u64);
    for (&i, &d) in indices.iter().zip(distances) {
        h.u64(i as u64);
        h.u64(u64::from(d.to_bits()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_the_reference_sequence() {
        // First outputs of splitmix64 seeded with 0 (Vigna's reference).
        let mut r = SplitMix64(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn poisson_rate_and_zipf_shares_are_plausible() {
        let mut r = SplitMix64(7);
        let t = poisson_arrivals(&mut r, 1e6, 10_000);
        assert_eq!(t.len(), 10_000);
        assert!(t.windows(2).all(|w| w[0] < w[1]));
        assert!((0.0095..0.0105).contains(&t[9_999]), "{} s", t[9_999]);
        let t = poisson_arrivals_within(&mut r, 10_000, 0.01);
        assert_eq!(t.len(), 10_000);
        assert!(t.windows(2).all(|w| w[0] < w[1]));
        assert!(
            t[0] >= 0.0 && (0.00999..0.01).contains(&t[9_999]),
            "{} s",
            t[9_999]
        );
        let first_half = t.partition_point(|&x| x < 0.005);
        assert!((4_800..5_200).contains(&first_half), "{first_half}");
        let z = Zipf::new(3, 1.1);
        let draws = z.shuffled_draws(&mut r, 1_000);
        let mut counts = [0usize; 3];
        for &d in &draws {
            counts[d] += 1;
        }
        // Shares 0.5665, 0.2643, 0.1692, rounded by largest remainder.
        assert_eq!(counts, [567, 264, 169]);
        assert_ne!(draws, z.shuffled_draws(&mut SplitMix64(8), 1_000));
    }
}
