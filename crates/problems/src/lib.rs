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
#[cfg(test)]
mod oracle;
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
    use dpgen_core::{ExecOpts, Program};
    use dpgen_runtime::{Probe, RunKernel};
    use proptest::prelude::*;

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

    /// Two strings of length 0 to 40 over the first 1, 2 or 4 letters of
    /// `ACGT`.
    fn two_strings() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
        let letters = || proptest::collection::vec(0u8..4, 0..=40);
        let alphabet = proptest::sample::select(vec![1u8, 2, 4]);
        (alphabet, letters(), letters()).prop_map(|(n, a, b)| {
            let spell = |s: Vec<u8>| s.into_iter().map(|k| b"ACGT"[(k % n) as usize]).collect();
            (spell(a), spell(b))
        })
    }

    /// Runs `program` at `params` cell by cell (`Plan::execute`) and
    /// batched (`Plan::execute_batched`), at 1 rank × 2 threads and at 2
    /// ranks × 1 thread, probing every point of the box `0..=LA` × `0..=LB`
    /// that holds the alignment lattice, and holds the batched run to the
    /// per-cell one at every point.
    fn batched_is_per_cell(
        program: &Program,
        params: &[i64],
        kernel: &impl RunKernel<i64>,
    ) -> Result<(), TestCaseError> {
        let points: Vec<[i64; 2]> = (0..=params[0])
            .flat_map(|i| (0..=params[1]).map(move |j| [i, j]))
            .collect();
        let refs: Vec<&[i64]> = points.iter().map(|p| &p[..]).collect();
        let plan = program.compile(params);
        for (ranks, threads) in [(1, 2), (2, 1)] {
            let opts = ExecOpts::new()
                .ranks(ranks)
                .threads(threads)
                .probe(Probe::many(&refs));
            let per_cell = plan.execute(kernel, &opts).unwrap();
            let batched = plan.execute_batched(kernel, &opts).unwrap();
            let at = format!("{params:?} at {ranks} x {threads}");
            // Every computed cell is probed, so every cell is compared.
            let probed = per_cell.probes.iter().flatten().count() as u64;
            prop_assert_eq!(probed, per_cell.cells_computed(), "{}", at);
            for (point, (got, want)) in points
                .iter()
                .zip(batched.probes.iter().zip(&per_cell.probes))
            {
                prop_assert_eq!(got, want, "{:?} of {}", point, at);
            }
        }
        Ok(())
    }

    proptest! {
        /// The run bodies of Smith–Waterman, edit distance and banded
        /// Smith–Waterman give every cell the value their per-cell kernel
        /// gives it, in both loop orders, so runs go along either
        /// dimension.
        #[test]
        fn batched_runs_match_per_cell_on_every_cell(
            strings in two_strings(),
            problem in 0usize..3,
            band in 0i64..=8,
            width in 1i64..=16,
            reversed in proptest::bool::ANY,
        ) {
            let (a, b) = strings;
            let mut spec = match problem {
                0 => SmithWaterman::spec(width),
                1 => EditDistance::spec(width),
                _ => BandedSw::spec(width, band),
            };
            if reversed {
                spec.order = vec!["j".into(), "i".into()];
            }
            let program = Program::from_spec(spec).unwrap();
            let params = [a.len() as i64, b.len() as i64];
            match problem {
                0 => batched_is_per_cell(&program, &params, &SmithWaterman::new(&a, &b))?,
                1 => batched_is_per_cell(&program, &params, &EditDistance::new(&a, &b))?,
                _ => batched_is_per_cell(&program, &params, &BandedSw::new(&a, &b, band))?,
            }
        }
    }
}
