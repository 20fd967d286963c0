//! Figure 4's peak-memory analysis, pinned quantitatively: on an `n × n`
//! tile grid executed serially, column-major order buffers about `n + 1`
//! edges while level-set order buffers about `2(n − 1)` — almost `d` times
//! more (Section V-B).

use dpgen::core::{ExecOpts, Program};
use dpgen::runtime::TilePriority;
use dpgen::tiling::tiling::CellRef;

fn grid(n_tiles: i64, width: i64) -> (Program, i64) {
    let n = n_tiles * width - 1;
    let program = Program::parse(&format!(
        "name grid\nvars x y\nparams N\n\
         constraint 0 <= x <= N\nconstraint 0 <= y <= N\n\
         template r1 1 0\ntemplate r2 0 1\n\
         order x y\nloadbalance x\nwidths {width} {width}\n"
    ))
    .unwrap();
    (program, n)
}

fn kernel(cell: CellRef<'_>, values: &mut [u64]) {
    let a = if cell.valid[0] {
        values[cell.loc_r(0)]
    } else {
        1
    };
    let b = if cell.valid[1] {
        values[cell.loc_r(1)]
    } else {
        1
    };
    values[cell.loc] = a.wrapping_add(b);
}

fn peak_edges(program: &Program, n: i64, priority: TilePriority) -> i64 {
    peak_edges_with(program, n, ExecOpts::new().priority(priority))
}

fn peak_edges_with(program: &Program, n: i64, opts: ExecOpts) -> i64 {
    let opts = opts.threads(1);
    let res = program
        .compile(&[n])
        .execute::<u64, _>(&kernel, &opts)
        .unwrap();
    res.per_rank[0].stats.peak_edges
}

#[test]
fn column_major_buffers_about_n_plus_one() {
    for n_tiles in [8i64, 12, 20] {
        let (program, n) = grid(n_tiles, 3);
        let peak = peak_edges(&program, n, TilePriority::column_major(2));
        assert!(
            (n_tiles..=n_tiles + 2).contains(&peak),
            "n = {n_tiles}: peak {peak} not near n + 1 = {}",
            n_tiles + 1
        );
    }
}

#[test]
fn level_set_buffers_about_twice_n() {
    for n_tiles in [8i64, 12, 20] {
        let (program, n) = grid(n_tiles, 3);
        let peak = peak_edges(&program, n, TilePriority::LevelSet);
        let model = 2 * (n_tiles - 1);
        assert!(
            (peak - model).abs() <= 3,
            "n = {n_tiles}: peak {peak} not near 2(n-1) = {model}"
        );
    }
}

#[test]
fn ratio_approaches_dimension_count() {
    // Section V-B: level-set can use nearly d = 2 times the column-major
    // edge memory.
    let (program, n) = grid(24, 2);
    let col = peak_edges(&program, n, TilePriority::column_major(2));
    let level = peak_edges(&program, n, TilePriority::LevelSet);
    let ratio = level as f64 / col as f64;
    assert!(
        (1.6..=2.2).contains(&ratio),
        "ratio {ratio} should approach d = 2 (col {col}, level {level})"
    );
}

#[test]
fn paper_default_matches_column_major_on_grids() {
    let (program, n) = grid(12, 3);
    let col = peak_edges(&program, n, TilePriority::column_major(2));
    let fig5 = peak_edges(&program, n, TilePriority::paper_default(2, &[0]));
    assert_eq!(col, fig5);
}

#[test]
fn default_order_buffers_n_plus_one_like_figure_5() {
    // The runtime's default (the pipelined order, `loadbalance x` last) is
    // column-major too: E2/E3's memory claim holds for it.
    let (program, n) = grid(16, 3);
    let default = peak_edges_with(&program, n, ExecOpts::new());
    let fig5 = peak_edges(&program, n, TilePriority::paper_default(2, &[0]));
    assert_eq!((default, fig5), (17, 17));
}
