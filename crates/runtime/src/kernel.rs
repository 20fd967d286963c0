//! The user-supplied center-loop code.
//!
//! In the paper the user writes C/C++ statements that read `V[loc_r1]` …
//! and write `V[loc]` (Section IV-B). Here the equivalent is a [`Kernel`]:
//! a function from a [`CellRef`] (which carries `loc`, the per-template
//! offsets and `is_valid` flags, and the global coordinates) and the tile's
//! value buffer to an updated buffer.
//!
//! The same restrictions as in the paper apply: the kernel must write
//! `values[cell.loc]` and nothing else, must not read it first (a reused
//! tile buffer may still hold an earlier tile's value there) nor a
//! dependency whose `valid` flag is false, and must not rely on any
//! particular cell ordering beyond dependency validity.

use dpgen_tiling::tiling::{BlockCtx, CellRef, RunCtx};

/// Element types storable in the state array.
pub trait Value: Copy + Default + Send + Sync + 'static {}
impl<T: Copy + Default + Send + Sync + 'static> Value for T {}

/// The center-loop computation for a single cell.
pub trait Kernel<T: Value>: Send + Sync {
    /// Compute `values[cell.loc]` from its dependencies.
    fn compute(&self, cell: CellRef<'_>, values: &mut [T]);
}

impl<T: Value, F: Fn(CellRef<'_>, &mut [T]) + Send + Sync> Kernel<T> for F {
    fn compute(&self, cell: CellRef<'_>, values: &mut [T]) {
        self(cell, values)
    }
}

/// A kernel that can evaluate whole interior runs, and whole rectangles of
/// them, per call.
///
/// The node engine (`run_node`) replays every tile's recorded scan
/// (`Tiling::replay`) and hands each interior block to
/// [`RunKernel::eval_block`] whole — `block.rows` runs of `block.first.len`
/// cells with every dependency flag true — so the implementation can be one
/// dense loop nest the compiler unrolls and vectorizes, instead of one
/// [`Kernel::compute`] call per cell. A kernel that only implements
/// [`RunKernel::eval_run`] gets its blocks one run at a time. Boundary cells
/// (any cell whose validity flags are not all provably true) always go
/// through the per-cell [`Kernel::compute`] path, one at a time from the
/// tile's scan. A plain per-cell kernel comes here as [`PerCell`], whose
/// default `eval_block` replays each block with `compute` inlined into the
/// cell loop as far as the kernel allows (see there).
///
/// # Contract
///
/// `eval_run` must write exactly the run span `{run.loc_at(i) | i < len}`,
/// in visit order when the recurrence is loop-carried along the innermost
/// dimension, and must read only flow-valid dependencies (`loc_at(i) +
/// offsets[j]`; all templates are valid on every run cell). It must be
/// bit-identical to replaying [`Kernel::compute`] over the run — the
/// default implementation does exactly that.
///
/// `eval_block` may assume what `eval_run` may, for every row of the block:
/// all templates valid on every cell, and every dependency outside the
/// block already final (an earlier visit of this tile, or an unpacked ghost
/// cell). It must write exactly the cells of the block's rows — every one of
/// them, before reading it: the engine reuses tile buffers without
/// clearing cells the next tile is going to overwrite — and it may visit
/// them in any order that respects the templates (two rows at a time, say),
/// as long as the values are bit-identical to running `eval_run` row by row
/// in visit order, which is the default implementation.
pub trait RunKernel<T: Value>: Kernel<T> {
    /// Whether interior runs count towards `RunStats::runs_batched` and
    /// `cells_batched`. [`PerCell`] sets it false: its runs are replayed
    /// cell by cell, so reporting them as batched would be a lie.
    const BATCHED: bool = true;

    /// Evaluate one interior run. Default: per-cell fallback through
    /// [`Kernel::compute`].
    fn eval_run(&self, run: &RunCtx<'_>, values: &mut [T]) {
        run.for_each_cell(|cell| self.compute(cell, values));
    }

    /// Evaluate one rectangle of interior runs. Default: row by row
    /// through [`RunKernel::eval_run`], in visit order.
    fn eval_block(&self, block: &BlockCtx<'_>, values: &mut [T]) {
        block.for_each_run(|run| self.eval_run(&run, values));
    }
}

/// Lifts any per-cell [`Kernel`] (by reference) onto the node engine's
/// [`RunKernel`] bound: interior runs replay through `compute`, and the
/// wrapped kernel's own `eval_run` (if it has one) is never called. This
/// adapter *is* per-cell execution — `Plan::execute` wraps its kernel in
/// it, and a per-cell `Plan::execute_reduce` caller does so by hand — so
/// a plain kernel never needs to know runs exist.
///
/// # Where the cell body runs
///
/// The forwarding `compute` is `#[inline(always)]`, so a `PerCell<K>`'s
/// default `eval_block` — `for_each_run`, `eval_run` and `for_each_cell`,
/// all inlined — is one function whose cell loop runs `K::compute` in
/// place when `K::compute` inlines, and calls it once per cell when it
/// does not. That is `K`'s choice: `Lcs::compute` is `#[inline]` and
/// small enough to inline (`figures e15` times it, and CI gates it against
/// the batched sweep); `Bandit2Kernel::compute` is unmarked and stays a
/// call per cell, because fully inlined it ran 1.08–1.10× slower. A kernel
/// marks its `compute` `#[inline(always)]` only on a paired win.
#[derive(Debug, Clone, Copy)]
pub struct PerCell<'a, K: ?Sized>(pub &'a K);

impl<T: Value, K: Kernel<T> + ?Sized> Kernel<T> for PerCell<'_, K> {
    #[inline(always)]
    fn compute(&self, cell: CellRef<'_>, values: &mut [T]) {
        self.0.compute(cell, values)
    }
}

impl<T: Value, K: Kernel<T> + ?Sized> RunKernel<T> for PerCell<'_, K> {
    const BATCHED: bool = false;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closures_are_kernels() {
        fn assert_kernel<T: Value, K: Kernel<T>>(_k: &K) {}
        let k = |cell: CellRef<'_>, values: &mut [f64]| {
            values[cell.loc] = cell.x[0] as f64;
        };
        assert_kernel(&k);
    }

    #[test]
    fn per_cell_lifts_any_kernel_to_a_run_kernel() {
        fn assert_run_kernel<T: Value, RK: RunKernel<T>>(_k: &RK) {}
        let k = |cell: CellRef<'_>, values: &mut [f64]| {
            values[cell.loc] = cell.x[0] as f64;
        };
        assert_run_kernel(&PerCell(&k));
    }
}
