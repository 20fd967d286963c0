//! Seeded input generation. `--seed` is the only source of randomness in
//! the benchmark: strings, spec order, hot-spec sets and job order all come
//! from [`Rng`] streams forked off it. The generator is the benchmark's own
//! (SplitMix64), so a change to the repo's `rand` shim cannot move inputs.

use dpgen_core::ProblemSpec;
use std::fmt::Write as _;

/// SplitMix64: small, fast, and good enough for input generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for one purpose (`tag` names the purpose), so
    /// adding a consumer never shifts the values another one sees.
    pub fn fork(&self, tag: u64) -> Rng {
        let mut r = Rng(self.0 ^ tag.wrapping_mul(0xA24B_AED4_963E_E407));
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

    /// Uniform in `0..n` (`n > 0`; modulo bias is irrelevant at these sizes).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// A DNA-like string over `ACGT`.
pub fn dna(rng: &mut Rng, len: usize) -> Vec<u8> {
    (0..len).map(|_| b"ACGT"[rng.below(4)]).collect()
}

/// Render a spec in the input-file format `ProblemSpec::parse` reads
/// (docs/input-format.md). The repo has a parser but no printer; the
/// benchmark needs one because every workload starts from spec *text*.
pub fn spec_text(spec: &ProblemSpec) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "name {}", spec.name);
    let _ = writeln!(s, "vars {}", spec.vars.join(" "));
    if !spec.params.is_empty() {
        let _ = writeln!(s, "params {}", spec.params.join(" "));
    }
    for c in &spec.constraints {
        let _ = writeln!(s, "constraint {c}");
    }
    for t in &spec.templates {
        let offsets: Vec<String> = t.offsets.iter().map(i64::to_string).collect();
        let _ = writeln!(s, "template {} {}", t.name, offsets.join(" "));
    }
    if let Some(b) = &spec.band {
        let _ = writeln!(s, "band {} {} {} {}", b.a, b.b, b.lo, b.hi);
    }
    if !spec.order.is_empty() {
        let _ = writeln!(s, "order {}", spec.order.join(" "));
    }
    if !spec.load_balance.is_empty() {
        let _ = writeln!(s, "loadbalance {}", spec.load_balance.join(" "));
    }
    let widths: Vec<String> = spec.widths.iter().map(i64::to_string).collect();
    let _ = writeln!(s, "widths {}", widths.join(" "));
    let _ = writeln!(s, "type {}", spec.value_type);
    for (keyword, body) in [
        ("define", &spec.defines),
        ("init", &spec.init_code),
        ("code", &spec.center_code),
    ] {
        if body.is_empty() {
            continue;
        }
        let _ = writeln!(s, "{keyword} {{");
        for line in body.lines() {
            let _ = writeln!(s, "{line}");
        }
        let _ = writeln!(s, "}}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = dna(&mut Rng::new(7).fork(1), 64);
        let b = dna(&mut Rng::new(7).fork(1), 64);
        let c = dna(&mut Rng::new(8).fork(1), 64);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, dna(&mut Rng::new(7).fork(2), 64));
    }

    #[test]
    fn spec_text_round_trips_through_the_parser() {
        for spec in [
            dpgen_problems::Bandit2::spec(8),
            dpgen_problems::Lcs::spec(2, 48),
            dpgen_problems::BandedSw::spec(16, 32),
            dpgen_problems::EditDistance::spec(16),
        ] {
            let parsed = ProblemSpec::parse(&spec_text(&spec)).unwrap();
            assert_eq!(parsed.name, spec.name);
            assert_eq!(parsed.constraints, spec.constraints);
            assert_eq!(parsed.templates, spec.templates);
            assert_eq!(parsed.widths, spec.widths);
            assert_eq!(parsed.band, spec.band);
            assert_eq!(parsed.load_balance, spec.load_balance);
            assert_eq!(parsed.value_type, spec.value_type);
            assert_eq!(parsed.center_code.trim(), spec.center_code.trim());
        }
    }
}
