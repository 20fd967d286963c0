//! The memory peaks of one run pinned to the value: a change to how the
//! scheduler or the node engine accounts its buffered edges, pending tiles
//! or live tile buffers that moves a peak fails here, whatever it does to
//! the time.

use dpgen::core::ExecOpts;
use dpgen::problems::Lcs;
use dpgen::runtime::Schedule;

/// The four peaks of one LCS 623², width 12 (2704 tiles), one-worker
/// `Dynamic` run: `lcs_percell_fine`'s shape. Which strings are compared
/// moves no peak (the tile graph and the edge sizes depend on the lengths
/// alone).
#[test]
fn lcs_percell_fine_peaks_are_pinned() {
    let dna = |k: u32| -> Vec<u8> {
        (0..623u32)
            .map(|i| b"ACGT"[(i * k % 11 % 4) as usize])
            .collect()
    };
    let (a, b) = (dna(7), dna(5));
    let problem = Lcs::new(&[&a, &b]);
    let opts = ExecOpts::new().threads(1).schedule(Schedule::Dynamic);
    let res = Lcs::program(2, 12)
        .unwrap()
        .compile(&problem.params())
        .execute::<i64, _>(&problem, &opts)
        .unwrap();
    let stats = &res.per_rank[0].stats;
    assert_eq!(stats.tiles_executed, 2704);
    let peaks = (
        stats.peak_edges,
        stats.peak_edge_cells,
        stats.peak_pending_tiles,
        stats.peak_live_tiles,
    );
    assert_eq!(peaks, (105, 688, 53, 1));
}
