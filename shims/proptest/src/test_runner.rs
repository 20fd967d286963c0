//! Deterministic case runner: config, RNG, and the error type carried by
//! `prop_assert*`.

use std::fmt;

/// Per-block configuration (`#![proptest_config(...)]`).
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Run `cases` cases per property.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    /// 64 cases, or `PROPTEST_CASES` when set, as real proptest reads it.
    fn default() -> ProptestConfig {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);
        ProptestConfig { cases }
    }
}

/// A failed property case (produced by the `prop_assert*` macros or an
/// explicit `Err` return).
#[derive(Debug, Clone)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Failure with a message.
    pub fn fail(message: impl Into<String>) -> TestCaseError {
        TestCaseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// Deterministic generator for strategy sampling: xoshiro256** seeded from
/// a hash of the property's name, so every property gets a stable but
/// distinct stream and failures reproduce without recording a seed.
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl TestRng {
    /// Stable generator for the named property.
    pub fn for_test(name: &str) -> TestRng {
        // FNV-1a over the name picks the seed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        let mut sm = h;
        TestRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)` (`bound` must be nonzero).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_stable_per_name() {
        let mut a = TestRng::for_test("x");
        let mut b = TestRng::for_test("x");
        let mut c = TestRng::for_test("y");
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn below_and_unit_bounds() {
        let mut rng = TestRng::for_test("bounds");
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
            let f = rng.unit_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn config_defaults() {
        let expect = std::env::var("PROPTEST_CASES").map_or(64, |v| v.parse().unwrap());
        assert_eq!(ProptestConfig::default().cases, expect);
        assert_eq!(ProptestConfig::with_cases(5).cases, 5);
    }
}
