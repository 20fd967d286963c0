//! Multiple Sequence Alignment with sum-of-pairs scoring (Section I of the
//! paper; the FPGA comparison of Masuno et al. is the paper's motivating
//! prior work for 3-5 sequence exact alignment).
//!
//! `d`-dimensional DP over prefix lengths: a move `δ ∈ {-1, 0}^d \ {0}`
//! appends an alignment column in which string `k` contributes its next
//! character if `δ_k = -1` and a gap otherwise. Column cost is summed over
//! all pairs (match 0 / mismatch / gap; gap-gap pairs cost 0). Linear gap
//! costs, exact solution — the thing approximation heuristics get wrong,
//! which is why the paper wants generated parallel programs for it.

use dpgen_core::spec::SpecTemplate;
use dpgen_core::{ProblemSpec, Program, ProgramError};
use dpgen_runtime::Kernel;
use dpgen_tiling::tiling::CellRef;
use std::collections::HashMap;

/// [`Msa::new`]'s cost of a mismatched character pair, which the emitted
/// C program uses.
const DEFAULT_MISMATCH: i64 = 3;
/// [`Msa::new`]'s cost of a character/gap pair, which the emitted C
/// program uses.
const DEFAULT_GAP: i64 = 2;
/// The C names of the strings the emitted program reads from whatever is
/// linked beside it, as [`crate::Lcs`]'s does: `a` for string 1, and on.
const STRINGS: [&str; 4] = ["a", "b", "c", "d"];

/// Sum-of-pairs MSA over 2-4 byte strings.
#[derive(Debug, Clone)]
pub struct Msa {
    /// The sequences.
    pub seqs: Vec<Vec<u8>>,
    /// Cost of a mismatched character pair.
    pub mismatch: i64,
    /// Cost of a character/gap pair.
    pub gap: i64,
}

impl Msa {
    /// New MSA with default costs mismatch = 3, gap = 2 (a substitution is
    /// costlier than a single gap but cheaper than two, so neither move
    /// dominates degenerately).
    pub fn new(seqs: &[&[u8]]) -> Msa {
        assert!((2..=4).contains(&seqs.len()), "2-4 sequences supported");
        Msa {
            seqs: seqs.iter().map(|s| s.to_vec()).collect(),
            mismatch: DEFAULT_MISMATCH,
            gap: DEFAULT_GAP,
        }
    }

    /// All nonzero moves `δ ∈ {-1,0}^d`, in the template order used by the
    /// kernel: bitmask order, mask 1..2^d, bit `k` set ⇒ `δ_k = -1`.
    fn moves(d: usize) -> Vec<Vec<i64>> {
        (1..(1u32 << d))
            .map(|mask| {
                (0..d)
                    .map(|k| if mask & (1 << k) != 0 { -1 } else { 0 })
                    .collect()
            })
            .collect()
    }

    /// The high-level problem description for `d` sequences with the given
    /// tile width. Parameters `L1..Ld` are the sequence lengths.
    pub fn spec(d: usize, width: i64) -> ProblemSpec {
        assert!((2..=4).contains(&d));
        let vars: Vec<String> = (1..=d).map(|k| format!("i{k}")).collect();
        let params: Vec<String> = (1..=d).map(|k| format!("L{k}")).collect();
        let templates = Msa::moves(d)
            .into_iter()
            .enumerate()
            .map(|(m, offsets)| SpecTemplate {
                name: format!("m{}", m + 1),
                offsets,
            })
            .collect();
        ProblemSpec {
            name: format!("msa{d}"),
            constraints: vars
                .iter()
                .zip(&params)
                .map(|(v, p)| format!("0 <= {v} <= {p}"))
                .collect(),
            vars,
            params,
            templates,
            order: vec![],
            load_balance: vec!["i1".into(), "i2".into()],
            widths: vec![width; d],
            band: None,
            center_code: Msa::center_code(d),
            init_code: String::new(),
            defines: format!("extern const char *{};", STRINGS[..d].join(", *")),
            value_type: "long".into(),
        }
    }

    /// [`Kernel::compute`] in C at the default costs: the origin is 0,
    /// every other cell the least `V[loc_m] + column cost` over its valid
    /// moves, string `k` indexed at `i_k - 1`.
    fn center_code(d: usize) -> String {
        let (mismatch, gap) = (DEFAULT_MISMATCH, DEFAULT_GAP);
        let origin: Vec<String> = (1..=d).map(|k| format!("i{k} == 0")).collect();
        let mut code = format!(
            "if ({}) V[loc] = 0;\nelse {{\n    long best = 0x3fffffffffffffffL;\n",
            origin.join(" && ")
        );
        for (m, delta) in Msa::moves(d).iter().enumerate() {
            // Pairs with one string moving cost a gap; pairs with both
            // cost a mismatch when their characters differ.
            let mut cost = 0;
            let mut terms = String::new();
            for k in 0..d {
                for l in k + 1..d {
                    match (delta[k], delta[l]) {
                        (-1, -1) => {
                            let (sk, sl) = (STRINGS[k], STRINGS[l]);
                            terms += &format!(
                                " + {mismatch} * ({sk}[i{}-1] != {sl}[i{}-1])",
                                k + 1,
                                l + 1
                            );
                        }
                        (0, 0) => {}
                        _ => cost += gap,
                    }
                }
            }
            if cost > 0 || terms.is_empty() {
                terms = format!(" + {cost}{terms}");
            }
            let name = format!("m{}", m + 1);
            code +=
                &format!("    if (is_valid_{name}) best = DP_MIN(best, V[loc_{name}]{terms});\n");
        }
        code + "    V[loc] = best;\n}"
    }

    /// Generate the program.
    pub fn program(d: usize, width: i64) -> Result<Program, ProgramError> {
        Program::from_spec(Msa::spec(d, width))
    }

    /// String-length parameters for a run.
    pub fn params(&self) -> Vec<i64> {
        self.seqs.iter().map(|s| s.len() as i64).collect()
    }

    /// The goal coordinates (full prefixes).
    pub fn goal(&self) -> Vec<i64> {
        self.params()
    }

    /// Cost of the alignment column entered by move `delta` into cell `x`:
    /// string `k` contributes char `x[k]-1` when `delta[k] = -1`, else gap.
    pub fn column_cost(&self, x: &[i64], delta: &[i64]) -> i64 {
        let d = self.seqs.len();
        let mut cost = 0;
        for k in 0..d {
            for l in k + 1..d {
                let ck = (delta[k] == -1).then(|| self.seqs[k][(x[k] - 1) as usize]);
                let cl = (delta[l] == -1).then(|| self.seqs[l][(x[l] - 1) as usize]);
                cost += match (ck, cl) {
                    (Some(a), Some(b)) if a == b => 0,
                    (Some(_), Some(_)) => self.mismatch,
                    (None, None) => 0,
                    _ => self.gap,
                };
            }
        }
        cost
    }

    /// The move an optimal alignment enters `cell` by: the first template
    /// whose column cost accounts for the cell's value, `None` at the
    /// origin. The decision function of a traceback over this kernel.
    pub fn decide(&self, cell: CellRef<'_>, values: &[i64]) -> Option<usize> {
        let d = self.seqs.len();
        let mut delta = [0i64; 4];
        (0..cell.valid.len()).find(|&m| {
            cell.valid[m] && {
                for (k, dk) in delta.iter_mut().enumerate().take(d) {
                    *dk = if (m + 1) & (1 << k) != 0 { -1 } else { 0 };
                }
                let column = self.column_cost(cell.x, &delta[..d]);
                values[cell.loc_r(m)] + column == values[cell.loc]
            }
        })
    }

    /// Dense reference solver over a coordinate map (exponential in `d`;
    /// for validation sizes only).
    pub fn solve_dense(&self) -> i64 {
        let d = self.seqs.len();
        let lens = self.params();
        let moves = Msa::moves(d);
        let mut table: HashMap<Vec<i64>, i64> = HashMap::new();
        // Enumerate cells in ascending coordinate-sum order.
        let mut cells: Vec<Vec<i64>> = vec![vec![]];
        for &len in lens.iter().take(d) {
            let mut next = Vec::new();
            for c in &cells {
                for v in 0..=len {
                    let mut cc = c.clone();
                    cc.push(v);
                    next.push(cc);
                }
            }
            cells = next;
        }
        cells.sort_by_key(|c| c.iter().sum::<i64>());
        for x in cells {
            if x.iter().all(|&c| c == 0) {
                table.insert(x, 0);
                continue;
            }
            let mut best = i64::MAX;
            for delta in &moves {
                let prev: Vec<i64> = x.iter().zip(delta).map(|(a, b)| a + b).collect();
                if prev.iter().any(|&c| c < 0) {
                    continue;
                }
                best = best.min(table[&prev] + self.column_cost(&x, delta));
            }
            table.insert(x, best);
        }
        table[&self.goal()]
    }
}

impl Kernel<i64> for Msa {
    fn compute(&self, cell: CellRef<'_>, values: &mut [i64]) {
        let d = self.seqs.len();
        if cell.x.iter().all(|&c| c == 0) {
            values[cell.loc] = 0;
            return;
        }
        let moves = (1usize..(1 << d)).map(|mask| mask - 1); // template ids
        let mut best = i64::MAX;
        let mut delta = [0i64; 4];
        for m in moves {
            if !cell.valid[m] {
                continue;
            }
            let mask = m + 1;
            for (k, dk) in delta.iter_mut().enumerate().take(d) {
                *dk = if mask & (1 << k) != 0 { -1 } else { 0 };
            }
            best = best.min(values[cell.loc_r(m)] + self.column_cost(cell.x, &delta[..d]));
        }
        values[cell.loc] = best;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random_sequence;
    use dpgen_core::ExecOpts;
    use dpgen_runtime::Probe;

    fn run_tiled(problem: &Msa, width: i64, threads: usize) -> i64 {
        let d = problem.seqs.len();
        let program = Msa::program(d, width).unwrap();
        let opts = ExecOpts::new()
            .threads(threads)
            .probe(Probe::at(&problem.goal()));
        let res = program
            .compile(&problem.params())
            .execute(problem, &opts)
            .unwrap();
        res.probes[0].unwrap()
    }

    #[test]
    fn pairwise_msa_equals_weighted_edit_distance() {
        // With mismatch = 3, gap = 2 and two sequences, MSA sum-of-pairs
        // cost is exactly the weighted edit distance.
        let a = random_sequence(25, 40);
        let b = random_sequence(22, 41);
        let msa = Msa::new(&[&a, &b]);
        let mut ed = crate::editdist::EditDistance::new(&a, &b);
        ed.sub_cost = 3;
        ed.gap_cost = 2;
        assert_eq!(msa.solve_dense(), ed.solve_dense());
    }

    #[test]
    fn tiled_matches_dense_2seq() {
        let a = random_sequence(20, 50);
        let b = random_sequence(24, 51);
        let p = Msa::new(&[&a, &b]);
        let want = p.solve_dense();
        for w in [2i64, 7, 30] {
            assert_eq!(run_tiled(&p, w, 2), want, "width {w}");
        }
    }

    #[test]
    fn tiled_matches_dense_3seq() {
        let a = random_sequence(9, 60);
        let b = random_sequence(8, 61);
        let c = random_sequence(10, 62);
        let p = Msa::new(&[&a, &b, &c]);
        assert_eq!(run_tiled(&p, 3, 2), p.solve_dense());
    }

    #[test]
    fn tiled_matches_dense_4seq() {
        let a = random_sequence(5, 70);
        let b = random_sequence(6, 71);
        let c = random_sequence(5, 72);
        let e = random_sequence(4, 73);
        let p = Msa::new(&[&a, &b, &c, &e]);
        assert_eq!(run_tiled(&p, 2, 2), p.solve_dense());
    }

    #[test]
    fn identical_sequences_align_free() {
        let a = random_sequence(15, 80);
        let p = Msa::new(&[&a, &a, &a]);
        assert_eq!(p.solve_dense(), 0);
        assert_eq!(run_tiled(&p, 4, 1), 0);
    }

    #[test]
    fn hybrid_matches_dense() {
        let a = random_sequence(18, 90);
        let b = random_sequence(16, 91);
        let p = Msa::new(&[&a, &b]);
        let program = Msa::program(2, 3).unwrap();
        let opts = ExecOpts::new()
            .threads(2)
            .ranks(3)
            .probe(Probe::at(&p.goal()));
        let res = program.compile(&p.params()).execute(&p, &opts).unwrap();
        assert_eq!(res.probes[0].unwrap(), p.solve_dense());
    }
}
