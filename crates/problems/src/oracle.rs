//! Checks a kernel against an oracle written for clarity, on every cell of
//! real executions.

use dpgen_core::{ExecOpts, Program};
use dpgen_mpisim::Wire;
use dpgen_runtime::{Kernel, Value};
use dpgen_tiling::tiling::CellRef;
use std::sync::atomic::{AtomicU64, Ordering};

/// Runs `program` at each parameter binding in `bindings`, at 1 rank × 2
/// threads and at 2 ranks × 1 thread, cell by cell (`Plan::execute`). At
/// every cell it lets `kernel` compute the value, then `oracle` compute it
/// again from the same dependencies, and asserts the two are equal. On
/// `f64` `==` is bit equality but for NaN and the sign of zero, neither of
/// which a bandit value takes.
pub(crate) fn assert_same_bits_on_every_cell<T: Value + Wire + PartialEq>(
    program: &Program,
    bindings: &[&[i64]],
    kernel: &impl Kernel<T>,
    oracle: impl Fn(CellRef<'_>, &mut [T]) + Sync,
) {
    for &params in bindings {
        for (ranks, threads) in [(1, 2), (2, 1)] {
            let (checked, differ) = (AtomicU64::new(0), AtomicU64::new(0));
            let both = |cell: CellRef<'_>, values: &mut [T]| {
                kernel.compute(cell, values);
                let got = values[cell.loc];
                oracle(cell, values);
                if values[cell.loc] != got {
                    differ.fetch_add(1, Ordering::Relaxed);
                }
                checked.fetch_add(1, Ordering::Relaxed);
            };
            let opts = ExecOpts::new().ranks(ranks).threads(threads);
            let out = program
                .compile(params)
                .execute(&both, &opts)
                .expect("the program executes");
            let at = format!("{params:?}, {ranks} x {threads}");
            assert_eq!(checked.into_inner(), out.cells_computed(), "{at}");
            assert_eq!(differ.into_inner(), 0, "{at}: cells that differ");
        }
    }
}
