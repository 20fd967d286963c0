//! Tile-geometry classes: the recorded walks the node engine replays.
//!
//! The generic polyhedral walks (`scan_tile_runs`, `EdgeLayout::for_each_cell`)
//! are the oracle here: for every tile of randomly generated specs its
//! class's recording must replay exactly what they produce, the classes
//! must be as few as the signature's slack rule promises, and executing on
//! a fresh tile graph, on one whose classes are recorded, or on one that
//! may keep no recording must give the same bits and the same counters.

use dpgen::core::{ExecOpts, Plan, Program, SpecGen};
use dpgen::problems::{random_sequence, BandedSw, Bandit2, Lcs};
use dpgen::runtime::{Probe, RunStats, Schedule};
use dpgen::tiling::tiling::{BlockCtx, CellRef, RunCtx, TileVisitor};
use dpgen::tiling::{Coord, ScanCounts, TileGraph, Tiling};
use proptest::prelude::*;
use std::borrow::Cow;

/// Everything a kernel can observe of one scan, in visit order: the
/// `Debug` rendering of every `CellRef` and `RunCtx` (all fields). It does
/// not override `TileVisitor::block`, so a replay reaches it through the
/// default expansion of each block into its runs.
#[derive(Debug, Default, PartialEq)]
struct Seen(Vec<String>);

impl TileVisitor for Seen {
    fn cell(&mut self, cell: CellRef<'_>) {
        self.0.push(format!("{cell:?}"));
    }
    fn run(&mut self, run: RunCtx<'_>) {
        self.0.push(format!("{run:?}"));
    }
}

/// Counts the blocks a replay hands out and the runs they stand for.
#[derive(Debug, Default, PartialEq)]
struct Blocks {
    blocks: u64,
    rows: u64,
    cells: u64,
}

impl TileVisitor for Blocks {
    fn cell(&mut self, _cell: CellRef<'_>) {}
    fn run(&mut self, _run: RunCtx<'_>) {
        panic!("a replay hands interior runs out as blocks");
    }
    fn block(&mut self, block: BlockCtx<'_>) {
        self.blocks += 1;
        self.rows += block.rows as u64;
        self.cells += (block.rows * block.first.len) as u64;
    }
}

fn all_tiles(tiling: &Tiling, params: &[i64]) -> Vec<Coord> {
    let mut point = tiling.make_point(params);
    let mut tiles = Vec::new();
    tiling.for_each_tile(&mut point, |t| tiles.push(t));
    tiles
}

/// For every tile: the graph's geometry — possibly recorded for an earlier
/// tile of the same class — replays the exact visit sequence of
/// `scan_tile_runs` (its blocks expanded by the default
/// `TileVisitor::block`) with the same `ScanCounts`, its blocks stand for
/// exactly the scan's runs, it holds the exact cell sequence of every
/// edge's `for_each_cell`, and it equals the recording built for this very
/// tile (equal signatures, equal recordings). Returns the blocks and runs
/// seen over all tiles.
fn check_replay(tiling: &Tiling, params: &[i64], ctx: &str) -> (u64, u64) {
    let graph = tiling.graph(params);
    let layout = tiling.layout();
    let (mut blocks, mut runs) = (0, 0);
    for (i, t) in graph.coords().enumerate() {
        let mut point = tiling.make_point(params);
        let geom = graph.geometry(i).unwrap();

        let mut want = Seen::default();
        let want_counts = tiling.scan_tile_runs(&t, &mut point, &mut want).unwrap();
        let mut got = Seen::default();
        let got_counts = tiling.replay(&geom, &t, &mut got);
        assert_eq!(got, want, "{ctx} tile {t}");
        assert_eq!(got_counts, want_counts, "{ctx} tile {t}");

        let mut grouped = Blocks::default();
        tiling.replay(&geom, &t, &mut grouped);
        assert_eq!(
            (grouped.rows, grouped.cells),
            (want_counts.interior_runs, want_counts.interior_cells),
            "{ctx} tile {t}"
        );
        blocks += grouped.blocks;
        runs += grouped.rows;

        for (dep_idx, edge) in tiling.edges().iter().enumerate() {
            let mut src = Vec::new();
            let mut ghost = Vec::new();
            tiling.set_tile(&t, &mut point);
            edge.for_each_cell(&mut point, |j| {
                src.push(layout.loc(j));
                ghost.push(layout.loc_ghost(j, &edge.delta));
            })
            .unwrap();
            let cells = geom.edge_cells(dep_idx);
            let got_src: Vec<usize> = cells.iter().map(|&l| l as usize).collect();
            let got_ghost: Vec<usize> = cells
                .iter()
                .map(|&l| (l as i64 + edge.ghost_shift) as usize)
                .collect();
            assert_eq!(got_src, src, "{ctx} tile {t} edge {}", edge.delta);
            assert_eq!(got_ghost, ghost, "{ctx} tile {t} edge {}", edge.delta);
        }

        let own = tiling.record(&t, &mut point).unwrap();
        assert_eq!(**geom, own, "{ctx} tile {t}");
    }
    assert_eq!(graph.recordings(), graph.classes(), "{ctx}");
    (blocks, runs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `check_replay` over `specgen` specs: 1-3 dims, bands, positive and
    /// negative templates, widths 1-5.
    #[test]
    fn replay_equals_the_generic_walks(seed in 0u64..u64::MAX) {
        let gs = SpecGen::new(seed).next_spec();
        let program = Program::from_spec(gs.spec.clone()).unwrap();
        check_replay(program.tiling(), &[gs.param], &format!("seed {seed:#x}"));
    }
}

/// `check_replay` on the shapes that stress how runs are grouped into
/// blocks, each with the grouping it must produce.
#[test]
fn replay_equals_the_generic_walks_on_shapes_that_stress_grouping() {
    // Dense 2-D, ascending: every interior tile is one block, and the tiles
    // on a low face have a boundary cell between any two runs (column 0) or
    // one block under a row of boundary cells (row 0).
    let lcs = Lcs::program(2, 6).unwrap();
    let (blocks, runs) = check_replay(lcs.tiling(), &[23, 23], "lcs2");
    // 9 interior tiles of 1 block, 3 row-0 tiles of 1, 3 column-0 tiles of 6
    // and the corner's 5; 6 runs per tile less the all-boundary row 0.
    assert_eq!((blocks, runs), (9 + 3 + 18 + 5, 16 * 6 - 4));

    // The same with the loops swapped: rows run along dimension 0, at the
    // outer buffer stride.
    let mut swapped = Lcs::spec(2, 6);
    swapped.order = vec!["i2".into(), "i1".into()];
    let swapped = Program::from_spec(swapped).unwrap();
    assert_eq!(swapped.tiling().loop_order(), &[1, 0]);
    let (blocks_swapped, runs_swapped) = check_replay(swapped.tiling(), &[23, 23], "lcs2 swapped");
    assert_eq!((blocks_swapped, runs_swapped), (blocks, runs));

    // Banded: the band clips the runs of a tile it crosses to unequal
    // lengths, which must not merge; a tile wholly inside it is one block.
    let banded = BandedSw::program(4, 9).unwrap();
    let tiling = banded.tiling();
    let (blocks, runs) = check_replay(tiling, &[31, 31], "banded sw");
    assert!(
        blocks > 64 && blocks < runs,
        "banded sw: {blocks} blocks for {runs} runs"
    );
    let (inside, _) = blocks_of(tiling, &[31, 31], &[3, 3]);
    assert_eq!((inside.blocks, inside.rows), (1, 4));
    let (crossed, _) = blocks_of(tiling, &[31, 31], &[5, 3]);
    assert_eq!((crossed.blocks, crossed.rows), (4, 4), "{crossed:?}");

    // 3-D: a block is one plane of a tile, never more.
    let lcs3 = Lcs::program(3, 4).unwrap();
    let (blocks, runs) = check_replay(lcs3.tiling(), &[11, 9, 7], "lcs3");
    assert!(
        blocks * 4 >= runs && blocks < runs,
        "lcs3: {blocks} blocks for {runs} runs"
    );

    // The 4-D bandit simplex: positive templates, so every loop descends.
    // A tile under the hypotenuse is one block per plane; on it, each run
    // is one cell shorter than the last — unequal lengths again.
    let bandit = Bandit2::program(4).unwrap();
    let tiling = bandit.tiling();
    let (blocks, runs) = check_replay(tiling, &[15], "bandit2");
    assert!(blocks < runs, "bandit2: {blocks} blocks for {runs} runs");
    let (full, counts) = blocks_of(tiling, &[15], &[0, 0, 0, 0]);
    assert_eq!((full.blocks, full.rows, full.cells), (16, 64, 256));
    assert_eq!(counts.interior_runs, 64);
    let (clipped, counts) = blocks_of(tiling, &[15], &[3, 0, 0, 0]);
    assert_eq!(clipped.blocks, clipped.rows, "{clipped:?}");
    assert!(counts.interior_runs > 1, "{counts:?}");
}

/// The blocks one tile's recording replays as, and its `ScanCounts`.
fn blocks_of(tiling: &Tiling, params: &[i64], tile: &[i64]) -> (Blocks, ScanCounts) {
    let tile = Coord::from_slice(tile);
    let mut point = tiling.make_point(params);
    let geom = tiling.record(&tile, &mut point).unwrap();
    let mut grouped = Blocks::default();
    let counts = tiling.replay(&geom, &tile, &mut grouped);
    (grouped, counts)
}

/// A dense 2-D interior tile is recorded as exactly one block — the whole
/// `w × w` rectangle — and its `ScanCounts` still count `w` runs.
#[test]
fn a_dense_interior_tile_is_one_block() {
    let w = 8;
    let program = Lcs::program(2, w).unwrap();
    let tiling = program.tiling();
    let (grouped, counts) = blocks_of(tiling, &[95, 95], &[2, 1]);
    let cells = (w * w) as u64;
    assert_eq!(
        grouped,
        Blocks {
            blocks: 1,
            rows: w as u64,
            cells
        }
    );
    let mut point = tiling.make_point(&[95, 95]);
    let scanned = tiling
        .scan_tile_runs(
            &Coord::from_slice(&[2, 1]),
            &mut point,
            &mut Seen::default(),
        )
        .unwrap();
    assert_eq!(counts, scanned);
    assert_eq!(
        (
            counts.interior_runs,
            counts.interior_cells,
            counts.boundary_cells
        ),
        (w as u64, cells, 0)
    );
}

/// The graph of `tiling` at `params` with every tile's geometry asked for
/// once: one recording per class.
fn touch_every_tile(tiling: &Tiling, params: &[i64]) -> TileGraph {
    let graph = tiling.graph(params);
    for i in 0..graph.len() {
        graph.geometry(i).unwrap();
    }
    assert_eq!(graph.recordings(), graph.classes());
    graph
}

#[test]
fn dense_lcs_box_has_four_classes() {
    // Negative unit templates: only the tiles touching the low face of a
    // dimension fail a validity check, so a tile's class is which of the
    // two low faces it touches — whatever the problem size.
    for (len, width) in [(1535usize, 48i64), (623, 12), (95, 8)] {
        let program = Lcs::program(2, width).unwrap();
        let n = len as i64;
        let tiles = all_tiles(program.tiling(), &[n, n]).len();
        assert_eq!(tiles as i64, ((n + 1) / width).pow(2));
        assert_eq!(
            touch_every_tile(program.tiling(), &[n, n]).recordings(),
            4,
            "len {len} width {width}: {tiles} tiles"
        );
    }
}

#[test]
fn simplex_classes_are_constant_per_diagonal() {
    // x + y <= N with equal widths: the one cross constraint's constant
    // depends on a tile only through tx + ty, and every tile whose box
    // lies inside the simplex is slack on it — so each tile diagonal is
    // one class, and all interior diagonals share a single class.
    let spec = "name tri\nvars x y\nparams N\nconstraint x >= 0\nconstraint y >= 0\n\
                constraint x + y <= N\ntemplate r1 1 0\ntemplate r2 0 1\nwidths 4 4\n";
    for n in [23i64, 57, 200] {
        let program = Program::parse(spec).unwrap();
        let tiling = program.tiling();
        let tiles = all_tiles(tiling, &[n]);
        let diagonals = tiles.iter().map(|t| t[0] + t[1]).max().unwrap() + 1;
        let graph = touch_every_tile(tiling, &[n]);
        let classes = graph.recordings();
        assert!(
            classes <= 4,
            "N={n}: {classes} classes over {} tiles on {diagonals} diagonals",
            tiles.len()
        );
        // And the classes are keyed by the diagonal alone.
        let mut by_diagonal = std::collections::HashMap::new();
        for (i, t) in tiles.iter().enumerate() {
            let Cow::Borrowed(geom) = graph.geometry(i).unwrap() else {
                panic!("N={n} tile {t}: recorded twice");
            };
            let first = by_diagonal.entry(t[0] + t[1]).or_insert(geom);
            assert!(std::sync::Arc::ptr_eq(first, geom), "N={n} tile {t}");
        }
    }
}

/// Every `RunStats` counter that does not depend on timing or on the state
/// the previous run left behind (pools, recordings).
fn exact_counters(s: &RunStats) -> [u64; 9] {
    [
        s.tiles_executed,
        s.cells_computed,
        s.interior_cells,
        s.boundary_cells,
        s.runs_batched,
        s.cells_batched,
        s.edges_local,
        s.edges_remote,
        s.edge_cells_packed,
    ]
}

#[test]
fn second_execution_of_a_plan_builds_no_geometry() {
    let a = random_sequence(95, 7);
    let b = random_sequence(95, 8);
    let problem = Lcs::new(&[&a, &b]);
    let program = Lcs::program(2, 8).unwrap();
    let plan = program.compile(&problem.params());
    for (threads, ranks, schedule) in [
        (1usize, 1usize, Schedule::Static),
        (3, 1, Schedule::Dynamic),
        (1, 2, Schedule::Dynamic),
    ] {
        let opts = ExecOpts::new()
            .threads(threads)
            .ranks(ranks)
            .schedule(schedule)
            .probe(Probe::at(&problem.goal()));
        let first = plan.execute_batched::<i64, _>(&problem, &opts).unwrap();
        let second = plan.execute_batched::<i64, _>(&problem, &opts).unwrap();
        assert_eq!(first.probes, second.probes);
        assert_eq!(first.probes[0], Some(problem.solve_dense()));
        for (r1, r2) in first.per_rank.iter().zip(&second.per_rank) {
            assert_eq!(exact_counters(&r1.stats), exact_counters(&r2.stats));
            assert_eq!(r2.stats.geom_builds, 0, "threads={threads} ranks={ranks}");
            assert_eq!(r2.stats.geom_classes, 4);
        }
        assert_eq!(second.metrics.counter("runtime.geom_builds"), Some(0));
        assert_eq!(second.metrics.gauge("runtime.geom_classes"), Some(4.0));
    }
    // The very first execution above recorded the four classes.
    assert_eq!(plan.graph().unwrap().recordings(), 4);
}

/// With no budget for recordings every tile executed and every edge
/// unpacked records its own, nothing is kept — during the run or after it —
/// and nothing else changes.
#[test]
fn a_cache_that_retains_nothing_changes_no_result() {
    let mut gen = SpecGen::new(0x6e0);
    for _ in 0..12 {
        let gs = gen.next_spec();
        let program = Program::from_spec(gs.spec.clone()).unwrap();
        let params = [gs.param];
        let kernel = dpgen::core::specgen::fuzz_kernel(gs.spec.templates.len());
        let lattice = dpgen::core::specgen::lattice_points(&gs.spec, gs.param).unwrap();
        let probes: Vec<&[i64]> = lattice.iter().map(|x| x.as_slice()).collect();
        let run = |budget: Option<usize>, threads: usize| {
            let plan = Plan::on_tiling(program.tiling().clone(), &params, vec![]).unwrap();
            let graph = plan.graph().unwrap();
            if let Some(bytes) = budget {
                graph.set_geometry_budget(bytes);
            }
            let opts = ExecOpts::new().threads(threads).probe(Probe::many(&probes));
            let out = plan.execute::<u64, _>(&kernel, &opts).unwrap();
            (out, graph)
        };
        let (kept, graph) = run(None, 1);
        let want = &kept.per_rank[0].stats;
        assert_eq!(want.geom_builds as usize, graph.classes());
        for threads in [1usize, 3] {
            let (out, graph) = run(Some(0), threads);
            assert_eq!(out.probes, kept.probes, "seed {:#x}", gs.seed);
            let got = &out.per_rank[0].stats;
            assert_eq!(exact_counters(got), exact_counters(want));
            // One rank unpacks exactly the edges it delivers to itself.
            assert_eq!(got.geom_builds, got.tiles_executed + got.edges_local);
            assert_eq!((got.geom_classes, graph.recordings()), (0, 0));
        }
    }
}
