//! Seeded input generators. The benchmark owns its generator so a request
//! sequence depends on `--seed` alone, not on the vendored `rand` shim the
//! product crates happen to ship.

/// SplitMix64: tiny, well mixed, and good enough to pick request keys.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (the modulo bias at these sizes is far
    /// below anything a latency benchmark can see).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `count` key indices with Zipf(`exponent`) popularity, key 0 the most
/// popular. The sequence is built from blocks of about `8 * keys`
/// requests in which every key appears exactly its expected number of
/// times, each block shuffled from the seed: the popularity of a key is
/// the same in every run and only the order is drawn, which keeps the mix
/// of cheap and costly keys from drifting between seeds.
pub fn zipf_sequence(seed: u64, keys: usize, exponent: f64, count: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=keys).map(|r| (r as f64).powf(-exponent)).collect();
    let total: f64 = weights.iter().sum();
    let block: Vec<usize> = weights
        .iter()
        .enumerate()
        .flat_map(|(key, w)| {
            let times = ((8 * keys) as f64 * w / total).round().max(1.0) as usize;
            std::iter::repeat_n(key, times)
        })
        .collect();
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(count + block.len());
    while out.len() < count {
        let mut next = block.clone();
        rng.shuffle(&mut next);
        out.extend(next);
    }
    out.truncate(count);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_repeat_for_a_seed_and_differ_across_seeds() {
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..500).map(|_| rng.below(6)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        assert_eq!(
            zipf_sequence(7, 12, 1.0, 500),
            zipf_sequence(7, 12, 1.0, 500)
        );
        assert_ne!(
            zipf_sequence(7, 12, 1.0, 500),
            zipf_sequence(8, 12, 1.0, 500)
        );
    }

    #[test]
    fn uniform_draws_cover_every_key_evenly() {
        let mut rng = SplitMix64::new(3);
        let mut counts = [0usize; 6];
        for _ in 0..6000 {
            counts[rng.below(6)] += 1;
        }
        assert!(counts.iter().all(|n| (800..1200).contains(n)), "{counts:?}");
    }

    #[test]
    fn zipf_popularity_is_exact_per_block_whatever_the_seed() {
        // Zipf(1) over 12 keys in blocks of 95: 1/H_12 = 32 % of requests
        // go to key 0, half as many to key 1, a tenth as many to key 11.
        for seed in [1, 2, 3] {
            let seq = zipf_sequence(seed, 12, 1.0, 9500);
            let count = |key| seq.iter().filter(|&&k| k == key).count();
            assert_eq!(seq.len(), 9500);
            assert_eq!((count(0), count(1), count(11)), (3100, 1500, 300));
            assert!(seq.iter().all(|&k| k < 12));
        }
    }

    #[test]
    fn a_truncated_block_keeps_the_requested_length() {
        assert_eq!(zipf_sequence(5, 12, 1.0, 1).len(), 1);
        assert_eq!(zipf_sequence(5, 12, 1.0, 250).len(), 250);
    }
}
