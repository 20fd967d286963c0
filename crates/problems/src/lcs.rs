//! Longest common subsequence of 2 or 3 strings (Section I cites LCS of
//! multiple DNA strands as a motivating problem).
//!
//! `L(i1, …, id)` = length of the LCS of the prefixes of lengths `i_k`.
//! Dependencies: the all-ones negative diagonal (when every string's next
//! character matches) plus the `d` single-dimension moves.
//!
//! [`Kernel::compute`] is one straight-line cell per shape [`Lcs::new`]
//! admits (2 or 3 strings), choosing the match through `cell`, the select
//! the 2-string row sweep behind `eval_run` and `eval_block` evaluates too.

use dpgen_core::spec::SpecTemplate;
use dpgen_core::{ProblemSpec, Program, ProgramError};
use dpgen_runtime::{Kernel, RunKernel};
use dpgen_tiling::tiling::{BlockCtx, CellRef, RunCtx};

/// LCS over `d` byte strings (`d` = 2 or 3 supported by [`Lcs::spec`]).
#[derive(Debug, Clone)]
pub struct Lcs {
    /// The strings.
    pub seqs: Vec<Vec<u8>>,
}

impl Lcs {
    /// New LCS problem over the given strings.
    pub fn new(seqs: &[&[u8]]) -> Lcs {
        assert!((2..=3).contains(&seqs.len()), "2 or 3 strings supported");
        Lcs {
            seqs: seqs.iter().map(|s| s.to_vec()).collect(),
        }
    }

    /// The high-level problem description for `d` strings with the given
    /// tile width. Parameters `L1..Ld` are the string lengths.
    pub fn spec(d: usize, width: i64) -> ProblemSpec {
        assert!((2..=3).contains(&d));
        let vars: Vec<String> = (1..=d).map(|k| format!("i{k}")).collect();
        let params: Vec<String> = (1..=d).map(|k| format!("L{k}")).collect();
        let mut templates = Vec::new();
        // Single-dimension moves first, then the diagonal (template ids in
        // that order are what the kernel expects).
        for k in 0..d {
            let mut offsets = vec![0i64; d];
            offsets[k] = -1;
            templates.push(SpecTemplate {
                name: format!("skip{}", k + 1),
                offsets,
            });
        }
        templates.push(SpecTemplate {
            name: "all".into(),
            offsets: vec![-1; d],
        });
        ProblemSpec {
            name: format!("lcs{d}"),
            constraints: vars
                .iter()
                .zip(&params)
                .map(|(v, p)| format!("0 <= {v} <= {p}"))
                .collect(),
            vars,
            params,
            templates,
            order: vec![],
            load_balance: vec!["i1".into()],
            widths: vec![width; d],
            band: None,
            // `compute` below in C, string `k` indexed at `i_k - 1` (the
            // strings are defined by whatever is linked beside the program).
            center_code: if d == 2 {
                "if (i1 == 0 || i2 == 0) V[loc] = 0;\n\
                 else if (a[i1-1] == b[i2-1]) V[loc] = V[loc_all] + 1;\n\
                 else V[loc] = DP_MAX(V[loc_skip1], V[loc_skip2]);"
            } else {
                "if (i1 == 0 || i2 == 0 || i3 == 0) V[loc] = 0;\n\
                 else if (a[i1-1] == b[i2-1] && b[i2-1] == c[i3-1]) V[loc] = V[loc_all] + 1;\n\
                 else V[loc] = DP_MAX(DP_MAX(V[loc_skip1], V[loc_skip2]), V[loc_skip3]);"
            }
            .into(),
            init_code: String::new(),
            defines: if d == 2 {
                "extern const char *a, *b;"
            } else {
                "extern const char *a, *b, *c;"
            }
            .into(),
            value_type: "long".into(),
        }
    }

    /// Generate the program.
    pub fn program(d: usize, width: i64) -> Result<Program, ProgramError> {
        Program::from_spec(Lcs::spec(d, width))
    }

    /// String-length parameters for a run.
    pub fn params(&self) -> Vec<i64> {
        self.seqs.iter().map(|s| s.len() as i64).collect()
    }

    /// The goal coordinates (full prefixes).
    pub fn goal(&self) -> Vec<i64> {
        self.params()
    }

    /// Dense reference solver (2 or 3 strings).
    pub fn solve_dense(&self) -> i64 {
        match self.seqs.len() {
            2 => {
                let (a, b) = (&self.seqs[0], &self.seqs[1]);
                let mut l = vec![vec![0i64; b.len() + 1]; a.len() + 1];
                for i in 1..=a.len() {
                    for j in 1..=b.len() {
                        l[i][j] = if a[i - 1] == b[j - 1] {
                            l[i - 1][j - 1] + 1
                        } else {
                            l[i - 1][j].max(l[i][j - 1])
                        };
                    }
                }
                l[a.len()][b.len()]
            }
            3 => {
                let (a, b, c) = (&self.seqs[0], &self.seqs[1], &self.seqs[2]);
                let mut l = vec![vec![vec![0i64; c.len() + 1]; b.len() + 1]; a.len() + 1];
                for i in 1..=a.len() {
                    for j in 1..=b.len() {
                        for k in 1..=c.len() {
                            l[i][j][k] = if a[i - 1] == b[j - 1] && b[j - 1] == c[k - 1] {
                                l[i - 1][j - 1][k - 1] + 1
                            } else {
                                l[i - 1][j][k].max(l[i][j - 1][k]).max(l[i][j][k - 1])
                            };
                        }
                    }
                }
                l[a.len()][b.len()][c.len()]
            }
            _ => unreachable!(),
        }
    }
}

impl Kernel<i64> for Lcs {
    /// A zero coordinate is an empty prefix, LCS length 0; past it every
    /// template is valid (box space).
    ///
    /// `#[inline]`, and small enough that LLVM inlines it into
    /// `PerCell<Lcs>`'s replayed cell loop unforced (`figures e15` and
    /// CI's per-cell gate watch that); forcing it measured no paired win.
    #[inline]
    fn compute(&self, at: CellRef<'_>, values: &mut [i64]) {
        let dep = |j: usize| values[at.loc_r(j)];
        let ch = |s: &[u8], i: i64| s[(i - 1) as usize];
        let v = match (self.seqs.as_slice(), at.x) {
            ([a, b], &[i, j]) => match i.min(j) {
                0 => 0,
                _ => cell(ch(a, i) == ch(b, j), dep(2), dep(0), dep(1)),
            },
            ([a, b, c], &[i, j, k]) => match i.min(j).min(k) {
                0 => 0,
                _ => {
                    let (ca, cb) = (ch(a, i), ch(b, j));
                    let matched = (ca == cb) & (cb == ch(c, k));
                    cell(matched, dep(3), dep(0).max(dep(1)), dep(2))
                }
            },
            _ => unreachable!("2 or 3 strings, one coordinate each"),
        };
        values[at.loc] = v;
    }
}

/// One cell past the zero prefixes, every template valid, for `compute`
/// and the row sweep alike. Both arms are computed and one selected: on
/// DNA the match is a one-in-four coin a branch predictor loses, and a
/// select keeps [`two_rows`]'s chains free of control flow.
#[inline(always)]
fn cell(matched: bool, diag: i64, up: i64, left: i64) -> i64 {
    std::hint::select_unpredictable(matched, diag + 1, up.max(left))
}

/// Row `a` from the finished row `up` above it. Index 0 of a row is its
/// column −1; `s[k]` is the character of column `k + 1`, `ca` the row's own.
fn one_row(up: &[i64], a: &mut [i64], ca: u8, s: &[u8]) {
    let n = s.len();
    let (up, a) = (&up[..n + 1], &mut a[..n + 1]);
    let mut left = a[0];
    for k in 0..n {
        left = cell(s[k] == ca, up[k], up[k + 1], left);
        a[k + 1] = left;
    }
}

/// Rows `a` and `b` (the one below it) in one pass, `b` one column behind
/// `a`: `a[k + 1]` and `b[k]` read nothing of each other, so the two carried
/// chains run side by side where `one_row` twice would run them end to end.
/// Same operations on the same values: bit-identical.
fn two_rows(up: &[i64], a: &mut [i64], b: &mut [i64], (ca, cb): (u8, u8), s: &[u8]) {
    let n = s.len();
    let (up, a, b) = (&up[..n + 1], &mut a[..n + 1], &mut b[..n + 1]);
    // a[k - 1], a[k] and b[k - 1] ride in registers.
    let (mut a2, mut a1, mut b1) = (a[0], cell(s[0] == ca, up[0], up[1], a[0]), b[0]);
    a[1] = a1;
    for k in 1..n {
        let va = cell(s[k] == ca, up[k], up[k + 1], a1);
        let vb = cell(s[k - 1] == cb, a2, a1, b1);
        a[k + 1] = va;
        b[k] = vb;
        (a2, a1, b1) = (a1, va, vb);
    }
    b[n] = cell(s[n - 1] == cb, a2, a1, b1);
}

impl Lcs {
    /// The interior body of the 2-string case: the block as dense row
    /// windows, swept two rows per pass with a one-row tail. `false`, with
    /// nothing written, when the block is not that shape: 3 strings, or a
    /// loop order, scan direction or layout that does not put the carried
    /// `skip` at column `j - 1` and the other two templates in the row
    /// above.
    fn sweep(&self, block: &BlockCtx<'_>, values: &mut [i64]) -> bool {
        let run = &block.first;
        let (inner, outer) = (run.inner_dim, block.outer_dim);
        let windowed = self.seqs.len() == 2
            && inner != outer
            && (run.x_step, block.outer_step) == (1, 1)
            && run.offsets[inner] == -1
            && run.offsets[outer] == -block.row_step
            && run.offsets[2] == -block.row_step - 1;
        if !windowed {
            return false;
        }
        let Some(mut rows) = block.row_windows(values) else {
            return false;
        };
        let s = &self.seqs[inner][(run.x[inner] - 1) as usize..][..run.len];
        let mut chars = self.seqs[outer][(run.x[outer] - 1) as usize..][..block.rows].iter();
        let mut up = rows
            .next()
            .expect("a block has the row above it and one more");
        while let (Some(a), Some(&ca)) = (rows.next(), chars.next()) {
            match (rows.next(), chars.next()) {
                (Some(b), Some(&cb)) => {
                    two_rows(up, a, b, (ca, cb), s);
                    up = b;
                }
                _ => one_row(up, a, ca, s),
            }
        }
        true
    }
}

impl RunKernel<i64> for Lcs {
    /// A run is a block of one row (`sweep`'s tail); what `sweep` declines
    /// replays cell by cell.
    fn eval_run(&self, run: &RunCtx<'_>, values: &mut [i64]) {
        let swept = self.seqs.len() == 2 && {
            let outer = 1 - run.inner_dim;
            let row = BlockCtx {
                first: *run,
                rows: 1,
                row_step: -run.offsets[outer],
                outer_dim: outer,
                outer_step: 1,
            };
            self.sweep(&row, values)
        };
        if !swept {
            run.for_each_cell(|cell| self.compute(cell, values));
        }
    }

    /// The whole block in one sweep; what `sweep` declines goes run by run.
    fn eval_block(&self, block: &BlockCtx<'_>, values: &mut [i64]) {
        if !self.sweep(block, values) {
            block.for_each_run(|run| self.eval_run(&run, values));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::assert_same_bits_on_every_cell;
    use crate::random_sequence;
    use dpgen_core::ExecOpts;
    use dpgen_runtime::{run_reference, Probe, Reduction, RunStats};
    use dpgen_tiling::tiling::TileVisitor;
    use dpgen_tiling::Coord;
    use proptest::prelude::*;

    fn run_tiled(problem: &Lcs, width: i64) -> i64 {
        let program = Lcs::program(problem.seqs.len(), width).unwrap();
        let opts = ExecOpts::new().threads(2).probe(Probe::at(&problem.goal()));
        let res = program
            .compile(&problem.params())
            .execute(problem, &opts)
            .unwrap();
        res.probes[0].unwrap()
    }

    #[test]
    fn known_lcs2() {
        let p = Lcs::new(&[b"ABCBDAB", b"BDCABA"]);
        assert_eq!(p.solve_dense(), 4); // "BCAB" or "BDAB"
        assert_eq!(run_tiled(&p, 3), 4);
    }

    #[test]
    fn known_lcs3() {
        let p = Lcs::new(&[b"AGGT12", b"12TXAYB", b"12XBA"]);
        assert_eq!(p.solve_dense(), 2); // "12"
        assert_eq!(run_tiled(&p, 2), 2);
    }

    #[test]
    fn tiled_matches_dense_on_random_dna() {
        let a = random_sequence(35, 10);
        let b = random_sequence(28, 11);
        let p2 = Lcs::new(&[&a, &b]);
        let want = p2.solve_dense();
        for w in [2i64, 5, 40] {
            assert_eq!(run_tiled(&p2, w), want, "width {w}");
        }
        let c = random_sequence(15, 12);
        let p3 = Lcs::new(&[&a[..15], &b[..12], &c]);
        assert_eq!(run_tiled(&p3, 4), p3.solve_dense());
    }

    /// 2-string LCS at `width`, optionally with the loop order swapped: rows
    /// then run along dimension 0, at the outer buffer stride, which the
    /// row windows — and so `sweep` — decline.
    fn program2(width: i64, swapped: bool) -> Program {
        let mut spec = Lcs::spec(2, width);
        if swapped {
            spec.order = vec!["i2".into(), "i1".into()];
        }
        Program::from_spec(spec).unwrap()
    }

    /// Goal value, runs batched and blocks evaluated of a batched run.
    fn run_batched(problem: &Lcs, program: &Program) -> (i64, u64, u64) {
        let opts = ExecOpts::new().threads(2).probe(Probe::at(&problem.goal()));
        let res = program
            .compile(&problem.params())
            .execute_batched(problem, &opts)
            .unwrap();
        let sum = |f: fn(&RunStats) -> u64| res.per_rank.iter().map(|r| f(&r.stats)).sum();
        (
            res.probes[0].unwrap(),
            sum(|s| s.runs_batched),
            sum(|s| s.blocks_evaluated),
        )
    }

    #[test]
    fn batched_kernel_matches_per_cell() {
        let a = random_sequence(40, 5);
        let b = random_sequence(33, 6);
        let p2 = Lcs::new(&[&a, &b]);
        let want = p2.solve_dense();
        // Width 1 is all one-cell blocks, 3 leaves an odd row count for the
        // one-row tail, 64 is a single tile.
        for w in [1i64, 2, 3, 5, 16, 64] {
            for swapped in [false, true] {
                let ctx = format!("width {w} swapped {swapped}");
                let (got, runs, blocks) = run_batched(&p2, &program2(w, swapped));
                assert_eq!(got, want, "{ctx}");
                assert!(runs > 0, "{ctx} must dispatch batched runs");
                assert!(blocks > 0 && blocks <= runs, "{ctx}: {blocks} blocks");
                // A lone tile has a boundary cell ahead of every run.
                assert_eq!(blocks < runs, (2..64).contains(&w), "{ctx}: grouping");
            }
            assert_eq!(run_tiled(&p2, w), want, "width {w} per-cell");
        }
        // 3 strings ride the per-cell fallback inside eval_run.
        let c = random_sequence(14, 7);
        let p3 = Lcs::new(&[&a[..14], &b[..12], &c]);
        let (got3, runs3, blocks3) = run_batched(&p3, &Lcs::program(3, 4).unwrap());
        assert_eq!(got3, p3.solve_dense());
        assert!(runs3 > 0 && blocks3 > 0);
    }

    /// Every interior block of one tile through `sweep` against the same
    /// blocks cell by cell, on buffers whose ghost cells hold arbitrary
    /// values: the sweep must take exactly the blocks it is written for and
    /// leave the buffer as `compute` does.
    struct SweepVsCompute<'a> {
        problem: &'a Lcs,
        swept: Vec<i64>,
        computed: Vec<i64>,
        taken: u64,
        declined: u64,
    }

    impl TileVisitor for SweepVsCompute<'_> {
        fn cell(&mut self, cell: CellRef<'_>) {
            self.problem.compute(cell, &mut self.swept);
            self.problem.compute(cell, &mut self.computed);
        }
        fn run(&mut self, _run: RunCtx<'_>) {
            unreachable!("a replay hands out blocks");
        }
        fn block(&mut self, block: BlockCtx<'_>) {
            if self.problem.sweep(&block, &mut self.swept) {
                self.taken += 1;
            } else {
                self.declined += 1;
                self.problem.eval_block(&block, &mut self.swept);
            }
            block.for_each_run(|run| {
                run.for_each_cell(|cell| self.problem.compute(cell, &mut self.computed))
            });
        }
    }

    #[test]
    fn sweep_takes_ascending_unit_stride_blocks_and_equals_compute() {
        let a = random_sequence(40, 15);
        let b = random_sequence(40, 16);
        let problem = Lcs::new(&[&a, &b]);
        for w in [1i64, 2, 3, 4, 7] {
            for swapped in [false, true] {
                let program = program2(w, swapped);
                let tiling = program.tiling();
                let mut point = tiling.make_point(&problem.params());
                let (mut taken, mut declined) = (0, 0);
                // An interior tile and one on each low face.
                for tile in [[1i64, 2], [0, 1], [2, 0]] {
                    let tile = Coord::from_slice(&tile);
                    let geom = tiling.record(&tile, &mut point).unwrap();
                    // LCS values never decrease along a row or a column;
                    // ghosts that do neither must still be swept the same.
                    let ghosts: Vec<i64> = (0..tiling.layout().size() as i64)
                        .map(|i| (i * 7919) % 23)
                        .collect();
                    let mut both = SweepVsCompute {
                        problem: &problem,
                        swept: ghosts.clone(),
                        computed: ghosts,
                        taken: 0,
                        declined: 0,
                    };
                    tiling.replay(&geom, &tile, &mut both);
                    assert_eq!(
                        both.swept, both.computed,
                        "width {w} swapped {swapped} tile {tile}"
                    );
                    taken += both.taken;
                    declined += both.declined;
                }
                let ctx = format!("width {w} swapped {swapped}");
                if swapped {
                    assert!(taken == 0 && declined > 0, "{ctx}: {taken} swept");
                } else {
                    assert!(taken > 0 && declined == 0, "{ctx}: {declined} declined");
                }
            }
        }
    }

    /// The `d`-generic cell the straight-line `compute` replaced: a loop
    /// over the strings for the match and an iterator over the `skip`
    /// templates for the maximum.
    fn generic(problem: &Lcs) -> impl Fn(CellRef<'_>, &mut [i64]) + Sync + '_ {
        move |cell, values| {
            let d = problem.seqs.len();
            if cell.x.contains(&0) {
                values[cell.loc] = 0;
                return;
            }
            let first = problem.seqs[0][(cell.x[0] - 1) as usize];
            let all_match = (1..d).all(|k| problem.seqs[k][(cell.x[k] - 1) as usize] == first);
            values[cell.loc] = if all_match {
                values[cell.loc_r(d)] + 1
            } else {
                (0..d).map(|k| values[cell.loc_r(k)]).max().unwrap()
            };
        }
    }

    #[test]
    fn compute_equals_the_generic_cell_on_every_cell() {
        let (a, b, c) = (
            random_sequence(23, 40),
            random_sequence(17, 41),
            random_sequence(11, 42),
        );
        let p2 = Lcs::new(&[&a, &b]);
        let params = p2.params();
        // Widths 4 and 5 leave partial tiles on both high faces; the
        // swapped order is one `sweep` declines.
        for (w, swapped) in [(4, false), (5, false), (5, true)] {
            assert_same_bits_on_every_cell(&program2(w, swapped), &[&params], &p2, generic(&p2));
        }
        let p3 = Lcs::new(&[&a[..13], &b[..9], &c]);
        let params = p3.params();
        let program = Lcs::program(3, 4).unwrap();
        assert_same_bits_on_every_cell(&program, &[&params], &p3, generic(&p3));
    }

    /// Two or three strings of length 0 to 40 (12 for a third) over the
    /// first 1, 2 or 4 letters of `ACGT`.
    fn strings() -> impl Strategy<Value = Vec<Vec<u8>>> {
        let letters = || proptest::collection::vec(0u8..4, 0..=40);
        let third = proptest::collection::vec(0u8..4, 0..=12);
        let alphabet = proptest::sample::select(vec![1u8, 2, 4]);
        (alphabet, 2usize..=3, letters(), letters(), third).prop_map(|(n, d, a, b, c)| {
            let spell = |s: Vec<u8>| s.into_iter().map(|k| b"ACGT"[(k % n) as usize]).collect();
            let mut seqs: Vec<Vec<u8>> = vec![spell(a), spell(b), spell(c)];
            seqs.truncate(d);
            seqs
        })
    }

    proptest! {
        /// Cell by cell, batched and dense, the three ways to solve LCS
        /// reach one length.
        #[test]
        fn per_cell_batched_and_dense_agree(seqs in strings(), width in 1i64..=8) {
            let refs: Vec<&[u8]> = seqs.iter().map(|s| s.as_slice()).collect();
            let problem = Lcs::new(&refs);
            let plan = Lcs::program(refs.len(), width).unwrap().compile(&problem.params());
            let opts = ExecOpts::new().probe(Probe::at(&problem.goal()));
            let per_cell = plan.execute(&problem, &opts).unwrap().probes[0];
            let batched = plan.execute_batched(&problem, &opts).unwrap().probes[0];
            let dense = problem.solve_dense();
            prop_assert_eq!(per_cell, Some(dense));
            prop_assert_eq!(batched, Some(dense));
        }
    }

    #[test]
    fn reduction_over_blocks_equals_the_reference_fold() {
        let a = random_sequence(31, 25);
        let b = random_sequence(27, 26);
        let problem = Lcs::new(&[&a, &b]);
        let program = Lcs::program(2, 5).unwrap();
        let params = problem.params();
        let want = run_reference::<i64, _>(program.tiling(), &params, &problem)
            .fold(0i64, |acc, v| acc.wrapping_add(v));
        let plan = program.compile(&params);
        for ranks in [1usize, 2] {
            let opts = ExecOpts::new().threads(2).ranks(ranks);
            let out = plan
                .execute_reduce(&problem, &Reduction::sum_i64(), &opts)
                .unwrap();
            assert_eq!(out.reduction, Some(want), "ranks={ranks}");
            let blocks: u64 = out.per_rank.iter().map(|r| r.stats.blocks_evaluated).sum();
            let runs: u64 = out.per_rank.iter().map(|r| r.stats.runs_batched).sum();
            assert!(
                0 < blocks && blocks < runs,
                "ranks={ranks}: {blocks} blocks"
            );
        }
    }

    #[test]
    fn lcs3_is_at_most_pairwise_min() {
        let a = random_sequence(20, 20);
        let b = random_sequence(20, 21);
        let c = random_sequence(20, 22);
        let l3 = Lcs::new(&[&a, &b, &c]).solve_dense();
        let lab = Lcs::new(&[&a, &b]).solve_dense();
        let lbc = Lcs::new(&[&b, &c]).solve_dense();
        let lac = Lcs::new(&[&a, &c]).solve_dense();
        assert!(l3 <= lab.min(lbc).min(lac));
    }

    #[test]
    fn identical_strings_have_full_lcs() {
        let a = random_sequence(25, 30);
        let p = Lcs::new(&[&a, &a]);
        assert_eq!(p.solve_dense(), 25);
        assert_eq!(run_tiled(&p, 6), 25);
    }
}
