//! The workspace's seeded random stream and its behaviour digest.
//!
//! Both are self-contained on purpose: committed baselines (the load,
//! storm and explorer digests, the explore-mode schedules) must stay
//! comparable across builds, and an external crate's stream or hasher is
//! free to change between versions.

/// SplitMix64: the seeded stream behind every deterministic draw in the
/// workspace — explore-mode schedule perturbation, load arrivals and
/// think times, storm app mixes, fault-space sampling.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi]` (inclusive); `lo` without a draw when
    /// `hi <= lo`. The modulo bias is irrelevant at the ranges drawn
    /// (~2^16 out of 2^64).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            lo
        } else {
            lo + self.next_u64() % (hi - lo + 1)
        }
    }

    /// Uniform in `[0, n)`; `0` without a draw when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

/// FNV-1a 64: the hash every committed behaviour digest is computed
/// with. Integers enter as their little-endian bytes; strings carry a
/// length terminator so `"ab" + "c"` and `"a" + "bc"` differ.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
        self.write_u64(s.len() as u64);
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_the_reference_stream() {
        // First outputs of SplitMix64 seeded with 0 (Vigna's reference).
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(r.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn empty_ranges_draw_nothing() {
        let mut a = SplitMix64::new(9);
        let mut b = a.clone();
        assert_eq!(a.below(0), 0);
        assert_eq!(a.range(5, 5), 5);
        assert_eq!(a.range(7, 3), 7);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fnv_matches_the_published_vectors() {
        // FNV-1a 64 test vectors: "" and "a".
        assert_eq!(Fnv64::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv64::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let digest = |parts: &[u64]| {
            let mut h = Fnv64::new();
            parts.iter().for_each(|&p| h.write_u64(p));
            h.finish()
        };
        assert_ne!(digest(&[1, 2]), digest(&[2, 1]));
        let strs = |parts: &[&str]| {
            let mut h = Fnv64::new();
            parts.iter().for_each(|p| h.write_str(p));
            h.finish()
        };
        assert_ne!(strs(&["ab", "c"]), strs(&["a", "bc"]));
    }
}
