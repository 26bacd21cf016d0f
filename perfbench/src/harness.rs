//! What every workload provides, and the per-layer metric table.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::trace::Tracer;

/// The result of one operation: one workload driven from its generated
/// inputs to a checked result.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    /// Host seconds from the first call into the program to the result
    /// (benchmark-side checks excluded).
    pub wall_s: f64,
    /// Peak resident set (`VmHWM`, MiB) at the end of the timed region,
    /// before the benchmark's own checks allocate.
    pub rss_mib: f64,
    /// Flit moves made: simulated moves (sim) or transitions explored (oracle).
    pub flit_moves: u64,
    /// Network states produced: switching steps (sim) or canonical states
    /// stored (oracle).
    pub states: u64,
    /// Simulated statistics that every run of the same inputs, traced or
    /// not, must reproduce exactly.
    pub stats: Vec<(&'static str, u64)>,
    /// Correctness checks that failed; empty when the result is correct.
    pub failures: Vec<String>,
}

impl Sample {
    /// A sample for an operation the program could not complete.
    pub fn failed(why: String) -> Sample {
        Sample {
            failures: vec![why],
            ..Sample::default()
        }
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Checks `stat` against its anchor.
    pub fn anchor(&mut self, stat: &str, got: u64, want: u64) {
        self.check(got == want, || format!("{stat} = {got}, anchor {want}"));
    }
}

/// Per-layer metric values of one traced operation, by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// One benchmark workload.
pub trait Workload {
    /// One untraced operation.
    fn run(&mut self) -> Sample;

    /// The same operation with a span around each public call, filling in
    /// the per-layer metrics of the layers it exercises.
    fn run_traced(&mut self, tracer: &Tracer, layers: &mut Layers) -> Sample;

    /// One set-up alone: building the program's structures from the
    /// generated inputs, as the operation does first.
    fn setup_once(&self);
}

/// Seconds `f` takes.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub const MIB: f64 = 1024.0 * 1024.0;

/// Every per-layer metric with its unit. A traced run reports all of them;
/// a layer its workload does not exercise reads 0. The layer that fills a
/// metric and the end-to-end metric it should move are listed in
/// `perfbench/README.md`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.from_specs_s", "s"),
    ("core.arena_build_s", "s"),
    ("core.step_s", "s"),
    ("core.drain_s", "s"),
    ("core.deadlock_check_s", "s"),
    ("core.to_config_s", "s"),
    ("core.step_ns_per_move", "ns"),
    ("core.steps", "count"),
    ("core.moves", "count"),
    ("core.drain_calls", "count"),
    ("core.flight_slots", "count"),
    ("core.moves_per_flight_slot", "ratio"),
    ("sim.loop_self_s", "s"),
    ("sim.rebuilds", "count"),
    ("detect.hook_s", "s"),
    ("detect.hook_calls", "count"),
    ("detect.detections", "count"),
    ("detect.recoveries", "count"),
    ("detect.hook_us_per_step", "us"),
    ("obs.observer_s", "s"),
    ("obs.observer_calls", "count"),
    ("obs.wal_mb_per_s", "MiB/s"),
    ("obs.wal_bytes", "bytes"),
    ("obs.wal_records", "count"),
    ("explore.explore_s", "s"),
    ("explore.symmetry_s", "s"),
    ("explore.ns_per_state", "ns"),
    ("explore.accounted_mb", "MiB"),
    ("explore.bytes_per_state", "bytes"),
    ("explore.rss_over_accounted", "ratio"),
    ("explore.spilled_mb", "MiB"),
    ("explore.spill_bytes_per_state", "bytes"),
    ("explore.accounted_over_budget", "ratio"),
    ("explore.replay_s", "s"),
    ("explore.states", "count"),
    ("explore.depth", "count"),
    ("explore.group_size", "count"),
    ("explore.transitions", "count"),
    ("explore.enabled", "count"),
    ("explore.por_ratio", "ratio"),
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
];

/// Every end-to-end metric with its unit, reported by an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("flit_moves_per_s", "1/s"),
    ("states_per_s", "1/s"),
];
