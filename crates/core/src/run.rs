//! [`RunOutput`]: what every execution of a [`Plan`](crate::Plan) returns.
//!
//! One rank or many, per-cell or batched, with or without a reduction:
//! every [`Plan::execute`](crate::Plan::execute) lands in the same struct,
//! which also carries the run's unified [`MetricsRegistry`] and (when
//! tracing is on) the [`Timeline`] of every rank's events on the plan's
//! tile graph.
//!
//! ```
//! use dpgen_core::{ExecOpts, Program};
//! use dpgen_runtime::{Probe, TraceLevel};
//! use dpgen_tiling::tiling::CellRef;
//!
//! fn step(cell: CellRef<'_>, values: &mut [f64]) {
//!     values[cell.loc] = if cell.valid[0] {
//!         values[cell.loc_r(0)] + 1.0
//!     } else {
//!         0.0
//!     };
//! }
//!
//! let spec = "name chain\nvars x\nparams N\nconstraint x >= 0\n\
//!             constraint x <= N\ntemplate r 1\nwidths 4\n";
//! let opts = ExecOpts::new()
//!     .threads(2)
//!     .ranks(2)
//!     .trace(TraceLevel::Spans)
//!     .probe(Probe::at(&[0]));
//! let out = Program::parse(spec)
//!     .unwrap()
//!     .compile(&[30])
//!     .execute(&step, &opts)
//!     .unwrap();
//! assert_eq!(out.probes[0], Some(30.0));
//! assert_eq!(out.cells_computed(), 31);
//! assert!(out.timeline.is_some());
//! ```

use crate::driver::RecoveryStats;
use crate::loadbalance::LoadBalance;
use dpgen_mpisim::CommStats;
use dpgen_runtime::{MetricsRegistry, NodeResult, Timeline};
use std::sync::Arc;
use std::time::Duration;

/// The outcome of one [`Plan`](crate::Plan) execution, whatever its
/// [`ExecOpts`](crate::ExecOpts).
pub struct RunOutput<T> {
    /// Probe values (a probe is `None` only if outside the iteration
    /// space).
    pub probes: Vec<Option<T>>,
    /// The whole-space reduction, when one was supplied.
    pub reduction: Option<T>,
    /// Per-rank node results.
    pub per_rank: Vec<NodeResult<T>>,
    /// Per-rank communication statistics (`ranks > 1` only: one rank has
    /// no interconnect).
    pub comm_stats: Vec<Arc<CommStats>>,
    /// The load balance used (`ranks > 1` only).
    pub balance: Option<LoadBalance>,
    /// Every rank's trace on the plan's tile graph, when tracing ran at
    /// [`TraceLevel::Spans`](dpgen_runtime::TraceLevel::Spans) or above.
    pub timeline: Option<Timeline>,
    /// Unified run/comm/trace metrics, keyed `rank{r}.…`,
    /// `rank{r}.comm.…` and `trace.…`.
    pub metrics: MetricsRegistry,
    /// Wall time of the whole run, from before its schedule artifacts
    /// (static plan, load balance) are derived or looked up.
    pub total_time: Duration,
    /// Time spent obtaining the load balance (`ranks > 1` only): the
    /// balancer itself on a plan's first such execution, a memo lookup
    /// after.
    pub balance_time: Duration,
    /// What the recovery coordinator did (all zeros but `epochs` unless
    /// [`ExecOpts::max_recoveries`](crate::ExecOpts::max_recoveries) is
    /// above 0 at `ranks > 1`).
    pub recovery: RecoveryStats,
}

impl<T: std::fmt::Debug> std::fmt::Debug for RunOutput<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOutput")
            .field("probes", &self.probes)
            .field("reduction", &self.reduction)
            .field("ranks", &self.per_rank.len())
            .field("traced", &self.timeline.is_some())
            .field("total_time", &self.total_time)
            .finish_non_exhaustive()
    }
}

impl<T> RunOutput<T> {
    /// Aggregate cells computed across ranks.
    pub fn cells_computed(&self) -> u64 {
        self.per_rank.iter().map(|r| r.stats.cells_computed).sum()
    }

    /// Aggregate remote edges sent (nonzero only for multi-rank runs).
    pub fn edges_remote(&self) -> u64 {
        self.per_rank.iter().map(|r| r.stats.edges_remote).sum()
    }

    /// Aggregate bytes sent over the simulated interconnect.
    pub fn bytes_sent(&self) -> u64 {
        self.comm_stats.iter().map(|s| s.bytes_sent()).sum()
    }

    /// Aggregate retransmitted frames (nonzero only under injected
    /// faults).
    pub fn retransmits(&self) -> u64 {
        self.comm_stats.iter().map(|s| s.retransmits()).sum()
    }
}
