//! Seeded input generation. Workloads receive only what these produce.

use elp2im_core::bitvec::BitVec;

/// SplitMix64: tiny, fast, and stable across releases, so a seed names the
/// same inputs forever.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input stream of a workload seed, so adding
    /// a stream never shifts the values another stream draws.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }

    /// A random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }

    /// `len` random bits, each set with probability 1/2.
    pub fn bits(&mut self, len: usize) -> BitVec {
        let words: Vec<u64> = (0..len.div_ceil(64)).map(|_| self.next_u64()).collect();
        BitVec::from_words(&words, len)
    }

    /// `len` random bits, each set with probability 3/4.
    pub fn dense_bits(&mut self, len: usize) -> BitVec {
        let words: Vec<u64> =
            (0..len.div_ceil(64)).map(|_| self.next_u64() | self.next_u64()).collect();
        BitVec::from_words(&words, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_distinct() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
        let mut p = Rng::new(3, 0).permutation(50);
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
        let dense = Rng::new(5, 0).dense_bits(1 << 16).count_ones() as f64 / 65536.0;
        assert!((dense - 0.75).abs() < 0.02, "density {dense}");
    }
}
