//! The benchmark's own generator: splitmix64 and the draws built on it.
//!
//! Every input the program under test sees is made here from `--seed`, so a
//! seed names one exact set of inputs on every commit.

/// splitmix64 (Steele, Lea, Flood): one 64-bit state, full period.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// An independent stream for one named purpose, so adding a draw to one
    /// part of a workload never shifts the inputs of another.
    pub fn stream(seed: u64, purpose: &str) -> Self {
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        for byte in purpose.bytes() {
            state = (state ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut rng = SplitMix64(state);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for the
    /// sizes drawn here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// An exponential inter-arrival gap with the given mean, in ns.
    pub fn exp_ns(&mut self, mean_ns: f64) -> u64 {
        (-self.unit().ln() * mean_ns) as u64
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Splits `total` cards over ranks `1..=ranks` in Zipf(1) proportion
/// (weight 1/rank), by largest remainder, so the counts sum to `total`
/// exactly and no seed can change how much work a deck holds.
pub fn zipf_counts(ranks: usize, total: usize) -> Vec<usize> {
    let harmonic: f64 = (1..=ranks).map(|k| 1.0 / k as f64).sum();
    let exact: Vec<f64> = (1..=ranks)
        .map(|k| total as f64 / (k as f64 * harmonic))
        .collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..ranks).collect();
    by_remainder.sort_by(|&a, &b| {
        let (ra, rb) = (exact[a] - exact[a].floor(), exact[b] - exact[b].floor());
        rb.partial_cmp(&ra).expect("finite").then(a.cmp(&b))
    });
    let missing = total - counts.iter().sum::<usize>();
    for &rank in by_remainder.iter().take(missing) {
        counts[rank] += 1;
    }
    counts
}

/// FNV-1a over a stream of words: the fingerprint of a generated workload.
#[derive(Debug, Clone)]
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Fingerprint(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn text(&mut self, text: &str) {
        for byte in text.bytes() {
            self.word(u64::from(byte));
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_purposes_are_independent() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::stream(7, "deck");
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::stream(7, "deck");
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SplitMix64::stream(7, "arrivals");
            (0..8).map(|_| r.next_u64()).collect()
        };
        let d: Vec<u64> = {
            let mut r = SplitMix64::stream(8, "deck");
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn splitmix_matches_the_reference_vector() {
        // First outputs of the reference implementation for seed 0.
        let mut r = SplitMix64(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn zipf_counts_are_exact_and_ordered() {
        let counts = zipf_counts(24, 2000);
        assert_eq!(counts.iter().sum::<usize>(), 2000);
        assert!(counts.windows(2).all(|w| w[0] >= w[1]));
        // Rank 1 holds 1/H(24) of the deck, rank 2 half of that.
        let h24: f64 = (1..=24).map(|k| 1.0 / k as f64).sum();
        assert!((counts[0] as f64 - 2000.0 / h24).abs() <= 1.0);
        assert!((counts[1] as f64 - 1000.0 / h24).abs() <= 1.0);
    }

    #[test]
    fn exponential_gaps_have_the_asked_mean() {
        let mut r = SplitMix64::stream(3, "arrivals");
        let n = 200_000;
        let total: u64 = (0..n).map(|_| r.exp_ns(20_000.0)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 20_000.0).abs() < 300.0, "mean {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SplitMix64::stream(1, "deck");
        let mut items: Vec<usize> = (0..100).collect();
        r.shuffle(&mut items);
        assert_ne!(items, (0..100).collect::<Vec<_>>());
        items.sort_unstable();
        assert_eq!(items, (0..100).collect::<Vec<_>>());
    }
}
