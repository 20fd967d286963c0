//! The paper's dynamic-programming workloads, expressed as `dpgen` problem
//! specifications plus center-loop kernels.
//!
//! Each module provides:
//!
//! * a [`dpgen_core::ProblemSpec`] builder (the high-level input the paper's
//!   generator consumes),
//! * the center-loop kernel (the user code of Section IV-B),
//! * an independent straightforward solver used to validate the generated
//!   programs in the tests.
//!
//! Workloads (Sections I, II and VI of the paper):
//!
//! * [`bandit2`] — the 2-arm Bernoulli bandit (4-dimensional), the paper's
//!   running example (Figure 1),
//! * [`bandit3`] — the 3-arm bandit (6-dimensional), previously hand
//!   parallelised in Oehmke/Hardwick/Stout (SC'00),
//! * [`bandit_delay`] — the 2-arm bandit with delayed responses
//!   (6-dimensional, with cross-dimension iteration-space constraints),
//! * [`msa`] — multiple sequence alignment with sum-of-pairs scoring
//!   (2/3/4 sequences; linear gap costs),
//! * [`lcs`] — longest common subsequence of 2 or 3 strings,
//! * [`editdist`] — classic 2-string edit distance (the quickstart
//!   problem),
//! * [`smith_waterman`] — Smith-Waterman local alignment, whose
//!   max-over-all-cells answer exercises the runtime's whole-space
//!   reductions,
//! * [`banded_sw`] — Smith-Waterman restricted to a diagonal band, the
//!   sparse-lattice workload (`O(n·w)` cells instead of `O(n·m)`).
//!
//! The three bandit kernels share [`Posterior`]: each arm's posterior mean
//! `(a + s) / (a + b + s + f)`, which the paper's init code divides out at
//! every cell, is a table the kernel builds once per arm, for every
//! `(s, f)` with `s + f <` [`posterior::PULLS`]. Every entry is that same
//! expression, so a table read has the division's bits; past the table the
//! kernel divides. The emitted C keeps its per-cell init code.

pub mod banded_sw;
pub mod bandit2;
pub mod bandit3;
pub mod bandit_delay;
pub mod editdist;
pub mod lcs;
pub mod msa;
pub mod posterior;
pub mod smith_waterman;

pub use banded_sw::BandedSw;
pub use bandit2::Bandit2;
pub use bandit3::Bandit3;
pub use bandit_delay::BanditDelay;
pub use editdist::EditDistance;
pub use lcs::Lcs;
pub use msa::Msa;
pub use posterior::Posterior;
pub use smith_waterman::SmithWaterman;

/// Generate a deterministic pseudo-random DNA-like sequence (alphabet
/// `ACGT`) of the given length. Used by the alignment problems so tests and
/// benches are reproducible.
pub fn random_sequence(len: usize, seed: u64) -> Vec<u8> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| b"ACGT"[rng.gen_range(0..4)]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_are_deterministic() {
        let a = random_sequence(50, 7);
        let b = random_sequence(50, 7);
        let c = random_sequence(50, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|c| b"ACGT".contains(c)));
        assert_eq!(a.len(), 50);
    }
}
