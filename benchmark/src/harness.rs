//! The measurement loop every workload runs through: timed ops with fresh
//! set-up passes and a host-noise probe woven in, oracle checks, and the
//! statistics that turn samples into the four end-to-end metrics.

use crate::metrics::{Metrics, PER_LAYER};
use crate::trace::Recorder;
use std::time::Instant;

/// A fresh set-up pass runs before every this-many-th timed op, so that the
/// passes sample the same stretch of time as the ops do (the host's quiet
/// phases are what both floors need, and they come and go over seconds).
const SETUP_EVERY: usize = 5;
/// The timed loop runs for `--seconds`, and longer if that yields fewer ops
/// than this.
const MIN_OPS: usize = 100;
/// ... but never longer than this multiple of `--seconds`: the contract's
/// per-run time limit outranks the sample count.
const OVERTIME_FACTOR: f64 = 2.0;
/// The host-noise probe runs before every this-many-th op.
const CALIBRATE_EVERY: usize = 8;

pub struct OpOutcome {
    /// Did the result equal the oracle's?
    pub ok: bool,
    /// Exact counts the op reports; they must repeat across a run's ops.
    pub counters: Vec<(&'static str, u64)>,
}

/// One benchmark workload. A workload is a closed loop with one client: the
/// harness issues the next op when the previous one has returned.
pub trait Workload: Sized {
    /// Inputs generated from the seed, with the oracle's expected results.
    /// Built once, outside all timing; the system under test sees only these.
    type Inputs;

    const NAME: &'static str;
    /// What `work_per_s` counts.
    const WORK_UNIT: &'static str;

    fn inputs(seed: u64) -> Self::Inputs;

    /// Work units one op performs.
    fn work_per_op(inputs: &Self::Inputs) -> f64;

    /// Everything between spec text and readiness to run the first op, on
    /// fresh objects: parse, generate, compile, admit, warm, start engines.
    fn setup(inputs: &Self::Inputs) -> Self;

    /// One op, checked against the oracle.
    fn op(&mut self, inputs: &Self::Inputs) -> OpOutcome;

    /// The traced pass: per-layer metrics from spans around public calls
    /// and from the counters the public API returns. Runs after the timed
    /// ops; `e2e` carries what they measured.
    fn layers(
        &mut self,
        inputs: &Self::Inputs,
        rec: &mut Recorder,
        m: &mut Metrics,
        e2e: &EndToEnd,
    );
}

/// Quantile by linear interpolation between order statistics (the same
/// definition as numpy's default).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// A fixed L1-resident loop (~5 ms when the host is quiet) run between ops.
/// It does not touch the system under test; its only purpose is to show how
/// loud the host was during the run. It never rescales a metric.
pub fn calibration_loop() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for i in 0..3_300_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x ^ i);
    }
    std::hint::black_box(acc)
}

/// What the timed part of a run measured.
pub struct EndToEnd {
    pub setup_s: Vec<f64>,
    pub ops_ms: Vec<f64>,
    pub calib_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub work_per_op: f64,
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    pub fn setup_stat_s(&self) -> f64 {
        fastest_sample(&self.setup_s)
    }

    pub fn op_stat_ms(&self) -> f64 {
        fastest_sample(&self.ops_ms)
    }

    pub fn work_per_s(&self) -> f64 {
        self.work_per_op / (self.op_stat_ms() / 1e3)
    }

    pub fn noise_frac(&self) -> f64 {
        let s = sorted(&self.calib_ms);
        (quantile(&s, 0.5) - s[0]) / s[0]
    }
}

/// The location statistic behind `op_ms` and `setup_s`: the fastest sample.
///
/// On the reference host an op's time steps between levels 1.0x, 1.2x,
/// 1.5x, 1.8x and 2.3x of its fastest, each held for 0.3-10 s, as other
/// tenants of the physical core come and go (README, "Host"). Slow phases
/// only ever add time, the fastest level is what the program costs, and it
/// is the only level that repeats between runs: over ten 20 s runs the
/// fastest of 25-35 ms ops spread 0.3-3.3% (IQR / median), where the median
/// of 150-400 ms ops had spread 10-34%.
pub fn fastest_sample(samples: &[f64]) -> f64 {
    sorted(samples)[0]
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Check an op's outcome: the result against the oracle (done by the
/// workload), the counters against the first op's.
fn passed(out: &OpOutcome, rec: &mut Recorder, compare_counters: bool) -> bool {
    let mut ok = out.ok;
    if compare_counters {
        for (name, value) in &out.counters {
            ok &= rec.count(name, *value);
        }
    }
    ok
}

/// One complete set-up pass on fresh objects, ending with its cold op: the
/// time to first result. Returns the seconds it took and the new state.
fn setup_pass<W: Workload>(inputs: &W::Inputs) -> (f64, W, OpOutcome) {
    let t = Instant::now();
    let mut fresh = W::setup(inputs);
    let out = fresh.op(inputs);
    (t.elapsed().as_secs_f64(), fresh, out)
}

/// The timed closed loop: ops on one long-lived state, with a fresh set-up
/// pass and a host-noise probe woven in every few ops. Tracing is off: the
/// recorder only compares counters, between ops.
pub fn measure<W: Workload>(inputs: &W::Inputs, seconds: f64, rec: &mut Recorder) -> (W, EndToEnd) {
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut tally = |ok: bool| {
        attempted += 1;
        failed += u64::from(!ok);
    };

    // The first pass builds the state the timed ops run on. A cold op may
    // legitimately count differently (cache misses), so the counters of
    // cold and warm-up ops are not compared.
    let (first_s, mut state, out) = setup_pass::<W>(inputs);
    tally(passed(&out, rec, false));
    let mut setup_s = vec![first_s];
    // One untimed op so caches, pools and recyclers are in steady state.
    let out = state.op(inputs);
    tally(passed(&out, rec, false));

    let mut ops_ms = Vec::new();
    let mut calib_ms = Vec::new();
    let t_run = Instant::now();
    loop {
        let elapsed = t_run.elapsed().as_secs_f64();
        let enough = elapsed >= seconds && ops_ms.len() >= MIN_OPS;
        if enough || (elapsed >= seconds * OVERTIME_FACTOR && !ops_ms.is_empty()) {
            break;
        }
        if ops_ms.len() % CALIBRATE_EVERY == 0 {
            let t = Instant::now();
            calibration_loop();
            calib_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        if ops_ms.len() % SETUP_EVERY == 0 {
            // Fresh objects from the spec text, one cold op, then dropped;
            // the long-lived state is untouched.
            let (pass_s, _fresh, out) = setup_pass::<W>(inputs);
            setup_s.push(pass_s);
            tally(passed(&out, rec, false));
        }
        let t = Instant::now();
        let out = state.op(inputs);
        ops_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tally(passed(&out, rec, true));
    }

    let e2e = EndToEnd {
        setup_s,
        ops_ms,
        calib_ms,
        attempted,
        failed,
        work_per_op: W::work_per_op(inputs),
        peak_rss_mb: peak_rss_mb(),
    };
    (state, e2e)
}

/// The per-layer metrics every workload reports, from the timed samples.
pub fn common_layers(m: &mut Metrics, e2e: &EndToEnd) {
    let ops = sorted(&e2e.ops_ms);
    // With >= 40 ops p75 is the highest percentile that still has ten
    // samples beyond it.
    m.set("e2e.op_p75_ms", quantile(&ops, 0.75));
    m.set("e2e.op_min_ms", ops[0]);
    m.set(
        "e2e.op_iqr_frac",
        (quantile(&ops, 0.75) - quantile(&ops, 0.25)) / quantile(&ops, 0.5),
    );
    m.set("e2e.setup_first_s", e2e.setup_s[0]);
    m.set("host.calib_ms", median(&e2e.calib_ms));
    m.set("host.noise_frac", e2e.noise_frac());
    m.set(
        "host.nproc",
        std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64),
    );
}

/// The contract wants every per-layer metric in every traced run: one that
/// does not apply to the workload reads 0.
pub fn fill_missing(m: &mut Metrics) {
    for (name, _) in PER_LAYER {
        if m.get(name).is_none() {
            m.set(name, 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy workload whose "system" adds one per op, with a switch that
    /// makes the oracle's expected value deliberately wrong.
    struct Toy {
        n: u64,
    }
    struct ToyInputs {
        expect_step: u64,
    }

    impl Workload for Toy {
        type Inputs = ToyInputs;
        const NAME: &'static str = "toy";
        const WORK_UNIT: &'static str = "steps";
        fn inputs(seed: u64) -> ToyInputs {
            ToyInputs { expect_step: seed }
        }
        fn work_per_op(_: &ToyInputs) -> f64 {
            1.0
        }
        fn setup(_: &ToyInputs) -> Toy {
            Toy { n: 0 }
        }
        fn op(&mut self, inputs: &ToyInputs) -> OpOutcome {
            let before = self.n;
            self.n += 1;
            std::thread::sleep(std::time::Duration::from_micros(200));
            OpOutcome {
                ok: self.n - before == inputs.expect_step,
                counters: vec![("toy.step", 1)],
            }
        }
        fn layers(&mut self, _: &ToyInputs, _: &mut Recorder, _: &mut Metrics, _: &EndToEnd) {}
    }

    #[test]
    fn correct_ops_are_counted_as_passed() {
        let mut rec = Recorder::new("toy");
        let (_, e2e) = measure::<Toy>(&Toy::inputs(1), 0.1, &mut rec);
        // Every timed op, every set-up pass's cold op and the warm-up op.
        assert_eq!(
            e2e.attempted as usize,
            e2e.ops_ms.len() + e2e.setup_s.len() + 1
        );
        assert_eq!(e2e.failed, 0);
        assert_eq!(
            e2e.setup_s.len(),
            1 + e2e.ops_ms.len().div_ceil(SETUP_EVERY)
        );
        assert!(e2e.op_stat_ms() > 0.0 && e2e.work_per_s() > 0.0);
    }

    /// The oracle expects a step of 2, the system steps by 1: every op must
    /// be reported failed, not dropped from the count.
    #[test]
    fn a_wrong_expected_value_fails_every_op() {
        let mut rec = Recorder::new("toy");
        let (_, e2e) = measure::<Toy>(&Toy::inputs(2), 0.01, &mut rec);
        assert!(e2e.attempted > 0);
        assert_eq!(e2e.failed, e2e.attempted);
    }

    #[test]
    fn a_counter_that_changes_between_ops_fails_the_op() {
        let mut rec = Recorder::new("toy");
        let good = OpOutcome {
            ok: true,
            counters: vec![("c", 5)],
        };
        let drifted = OpOutcome {
            ok: true,
            counters: vec![("c", 6)],
        };
        assert!(passed(&good, &mut rec, true));
        assert!(!passed(&drifted, &mut rec, true));
        // Cold ops are exempt from the comparison, not from the oracle.
        assert!(passed(&drifted, &mut rec, false));
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.75), 4.0);
        assert_eq!(quantile(&v, 0.1), 1.4);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 0.5);
    }
}
