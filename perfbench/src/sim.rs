//! The simulator workloads: `sim-mesh64` (the arena stepper at scale) and
//! `sim-recover` (online detection, recovery and WAL recording).

use std::rc::Rc;
use std::time::Instant;

use genoc_core::arena::{ArenaConfig, ArenaKernel, ArenaSpec};
use genoc_core::config::Config;
use genoc_core::error::Result;
use genoc_core::interpreter::{Outcome, RunOptions};
use genoc_core::kernel::Transition;
use genoc_core::network::Network;
use genoc_core::spec::MessageSpec;
use genoc_core::switching::SwitchingPolicy;
use genoc_core::trace::{Event, Trace};
use genoc_core::{MsgId, PortId};
use genoc_detect::{AbortAndEvacuate, DetectionEngine, EngineOptions};
use genoc_obs::{read_wal_bytes, shared, ObservedEngine, Recorder, WalWriter};
use genoc_routing::mixed::MixedXyYxRouting;
use genoc_routing::xy::XyRouting;
use genoc_sim::{
    run_policy, simulate_observed_config, DetectorHook, RunObserver, SimOptions, Stepper,
};
use genoc_switching::wormhole::WormholePolicy;
use genoc_topology::mesh::Mesh;

use crate::gen;
use crate::harness::{ratio, Layers, Sample, Workload, MIB};
use crate::stamp::peak_rss_mib;
use crate::trace::Tracer;
use crate::REFERENCE_SEED;

/// The production stepper both simulator workloads run on. This is the one
/// line to change when the runner's entry points collapse to one stepper.
const STEPPER: Stepper = Stepper::Arena;

/// No run in either workload comes near this many steps.
const MAX_STEPS: u64 = 10_000_000;

fn err(what: &str, e: impl std::fmt::Display) -> Sample {
    Sample::failed(format!("{what}: {e}"))
}

// ---------------------------------------------------------------- sim-mesh64

const MESH64_SIDE: usize = 64;
const MESH64_CAPACITY: u32 = 2;
/// About 0.27 M flits. One operation takes a few seconds, so a run holds
/// enough of them for a steady median; the source queues still keep about
/// half of the in-flight travels the step sweep visits from moving.
const MESH64_MESSAGES: usize = 45_000;
const MESH64_FLITS: std::ops::RangeInclusive<usize> = 4..=8;
/// Seed-23 anchors: steps to evacuation and flit moves made.
const MESH64_STEPS: u64 = 2_310;
const MESH64_MOVES: u64 = 23_906_920;

/// A 64×64 XY mesh, capacity 2, wormhole switching, arena stepper, no hook
/// or observer, driven by uniform traffic to evacuation.
pub struct Mesh64 {
    seed: u64,
    specs: Vec<MessageSpec>,
    flits: u64,
    /// The initial progress measure; by (C-5) every flit move lowers it by
    /// exactly one, so an evacuating run makes exactly this many moves.
    initial_measure: u64,
}

fn mesh64() -> (Mesh, XyRouting) {
    let mesh = Mesh::new(MESH64_SIDE, MESH64_SIDE, MESH64_CAPACITY);
    let routing = XyRouting::new(&mesh);
    (mesh, routing)
}

impl Mesh64 {
    pub fn new(seed: u64) -> std::result::Result<Mesh64, String> {
        let specs = gen::uniform(
            MESH64_SIDE * MESH64_SIDE,
            MESH64_MESSAGES,
            MESH64_FLITS,
            seed,
        );
        let (mesh, routing) = mesh64();
        let initial_measure = Config::from_specs(&mesh, &routing, &specs)
            .map_err(|e| format!("inputs rejected: {e}"))?
            .progress_measure();
        Ok(Mesh64 {
            seed,
            flits: specs.iter().map(|s| s.flits as u64).sum(),
            specs,
            initial_measure,
        })
    }

    fn checked(&self, mut s: Sample, outcome: Outcome, cfg: &Config) -> Sample {
        let (steps, moves) = (s.states, s.flit_moves);
        s.stats = vec![("steps", steps), ("moves", moves)];
        s.check(outcome == Outcome::Evacuated, || {
            format!("run ended {outcome:?}, not evacuated")
        });
        s.check(moves == self.initial_measure, || {
            format!("{moves} moves, initial measure {}", self.initial_measure)
        });
        s.check(cfg.arrived().len() == self.specs.len(), || {
            format!(
                "{} of {} messages arrived",
                cfg.arrived().len(),
                self.specs.len()
            )
        });
        s.check(cfg.delivered_flits() == self.flits, || {
            format!(
                "{} of {} flits delivered",
                cfg.delivered_flits(),
                self.flits
            )
        });
        if self.seed == REFERENCE_SEED {
            s.anchor("steps", steps, MESH64_STEPS);
            s.anchor("moves", moves, MESH64_MOVES);
        }
        s
    }
}

fn run_options() -> RunOptions {
    RunOptions {
        max_steps: MAX_STEPS,
        record_trace: false,
        record_measures: false,
        check_invariants: false,
        enforce_measure: true,
    }
}

impl Workload for Mesh64 {
    fn run(&mut self) -> Sample {
        let t0 = Instant::now();
        let (mesh, routing) = mesh64();
        let cfg = match Config::from_specs(&mesh, &routing, &self.specs) {
            Ok(cfg) => cfg,
            Err(e) => return err("from_specs", e),
        };
        let mut policy = WormholePolicy::default();
        let run = run_policy(&mesh, &mut policy, cfg, &run_options(), STEPPER);
        let wall_s = t0.elapsed().as_secs_f64();
        let rss_mib = peak_rss_mib();
        let run = match run {
            Ok(run) => run,
            Err(e) => return err("run_policy", e),
        };
        // The runner audits (C-5) on every step, so the moves made are the
        // measure the run removed.
        let moves = self.initial_measure - run.config.progress_measure();
        let s = Sample {
            wall_s,
            rss_mib,
            flit_moves: moves,
            states: run.steps,
            ..Sample::default()
        };
        self.checked(s, run.outcome, &run.config)
    }

    /// `run_arena`'s loop, repeated through the public arena calls so each
    /// one gets its own span and the sweep's useful work can be counted.
    fn run_traced(&mut self, tr: &Tracer, layers: &mut Layers) -> Sample {
        let root = tr.enter("run");
        let (mesh, routing) = mesh64();
        let policy = WormholePolicy::default();
        let Some(spec) = policy
            .kernel_spec()
            .and_then(|k| ArenaSpec::from_kernel_spec(&k))
        else {
            tr.exit(root);
            return Sample::failed("wormhole has no arena description".into());
        };
        let cfg = match tr.span("core.from_specs", || {
            Config::from_specs(&mesh, &routing, &self.specs)
        }) {
            Ok(cfg) => cfg,
            Err(e) => {
                tr.exit(root);
                return err("from_specs", e);
            }
        };
        let built = tr.span("core.arena_build", || -> Result<_> {
            let arena = ArenaConfig::from_config(&mesh, &cfg)?;
            drop(cfg);
            let kernel = ArenaKernel::new(&arena, spec);
            Ok((arena, kernel))
        });
        let (mut arena, mut kernel) = match built {
            Ok(pair) => pair,
            Err(e) => {
                tr.exit(root);
                return err("arena build", e);
            }
        };
        let mut trace = Trace::new(false);
        let mut arrival_order: Vec<MsgId> = Vec::new();
        let (mut steps, mut moves, mut drains, mut flight_slots) = (0u64, 0u64, 0u64, 0u64);
        let outcome = loop {
            if arena.is_evacuated() {
                break Ok(Outcome::Evacuated);
            }
            if tr.span("core.deadlock_check", || kernel.is_deadlock(&arena)) {
                break Ok(Outcome::Deadlock);
            }
            if steps >= MAX_STEPS {
                break Ok(Outcome::StepLimit);
            }
            flight_slots += arena.flight_count() as u64;
            trace.begin_step(steps);
            let report = match tr.span("core.step", || kernel.step(&mut arena, &mut trace)) {
                Ok(report) => report,
                Err(e) => break Err(e),
            };
            if kernel.take_saw_arrival() {
                tr.span("core.drain", || kernel.drain_arrived(&mut arena));
                drains += 1;
            }
            // `run_arena` keeps the arrival order; so does its repeat, to do
            // the same work.
            arrival_order.extend_from_slice(kernel.newly_arrived());
            if report.moves() == 0 {
                break Err(genoc_core::error::Error::ProgressViolation { step: steps });
            }
            moves += report.moves() as u64;
            steps += 1;
        };
        let cfg = tr.span("core.to_config", || arena.to_config(&mesh));
        tr.exit(root);
        let (outcome, cfg) = match (outcome, cfg) {
            (Ok(outcome), Ok(cfg)) => (outcome, cfg),
            (Err(e), _) | (_, Err(e)) => return err("arena run", e),
        };
        let wall_s = tr.total_s("run");
        let step_s = tr.total_s("core.step");
        for (name, value) in [
            ("core.from_specs_s", tr.total_s("core.from_specs")),
            ("core.arena_build_s", tr.total_s("core.arena_build")),
            ("core.step_s", step_s),
            ("core.drain_s", tr.total_s("core.drain")),
            ("core.deadlock_check_s", tr.total_s("core.deadlock_check")),
            ("core.to_config_s", tr.total_s("core.to_config")),
            ("core.step_ns_per_move", ratio(step_s * 1e9, moves as f64)),
            ("core.steps", steps as f64),
            ("core.moves", moves as f64),
            ("core.drain_calls", drains as f64),
            ("core.flight_slots", flight_slots as f64),
            (
                "core.moves_per_flight_slot",
                ratio(moves as f64, flight_slots as f64),
            ),
        ] {
            layers.insert(name, value);
        }
        let s = Sample {
            wall_s,
            flit_moves: moves,
            states: steps,
            ..Sample::default()
        };
        self.checked(s, outcome, &cfg)
    }

    fn setup_once(&self) {
        let (mesh, routing) = mesh64();
        let cfg = Config::from_specs(&mesh, &routing, &self.specs);
        std::hint::black_box(cfg.is_ok());
    }
}

// --------------------------------------------------------------- sim-recover

const RECOVER_SIDE: usize = 16;
const RECOVER_CAPACITY: u32 = 1;
/// One operation takes under 2 s and writes a WAL of about 115 MiB, so a run
/// holds a dozen operations for its median. At 4,096 messages one takes
/// about 5 s and writes 535 MiB.
const RECOVER_MESSAGES: usize = 2_048;
const RECOVER_FLITS: std::ops::RangeInclusive<usize> = 2..=6;
/// Seed-23 anchors: steps to evacuation, detections, WAL records.
const RECOVER_STEPS: u64 = 3_005;
const RECOVER_DETECTIONS: u64 = 487;
const RECOVER_WAL_RECORDS: u64 = 592_007;

/// A 16×16 mesh with mixed XY/YX routing (deadlock-prone), capacity 1,
/// wormhole, arena stepper; an exact detector recovers every deadlock by
/// aborting a cycle member, and a recorder streams the full WAL into memory.
pub struct Recover {
    seed: u64,
    specs: Vec<MessageSpec>,
    /// Hash of the first operation's WAL. That WAL is decoded in full; every
    /// later operation, traced or not, must write the same bytes.
    wal_hash: Option<u64>,
}

fn recover_mesh() -> (Mesh, MixedXyYxRouting) {
    let mesh = Mesh::new(RECOVER_SIDE, RECOVER_SIDE, RECOVER_CAPACITY);
    let routing = MixedXyYxRouting::new(&mesh);
    (mesh, routing)
}

/// What one `sim-recover` operation produced, before checking.
struct RecoverRun {
    outcome: Outcome,
    steps: u64,
    moves: u64,
    detections: u64,
    recoveries: u64,
    wal_records: u64,
    wal_bytes: u64,
    wal: Vec<u8>,
    arrived: usize,
    aborted: usize,
    rss_mib: f64,
}

/// A word-at-a-time FNV-style hash, fast enough for a WAL of several
/// hundred MiB.
fn wal_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("eight-byte chunk"));
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Recover {
    pub fn new(seed: u64) -> Recover {
        Recover {
            seed,
            specs: gen::uniform(
                RECOVER_SIDE * RECOVER_SIDE,
                RECOVER_MESSAGES,
                RECOVER_FLITS,
                seed,
            ),
            wal_hash: None,
        }
    }

    /// One operation. With a tracer, the detector and the recorder are
    /// wrapped in timing shims and the hook's configuration mutations are
    /// counted. Returns the run, its wall time and, when traced, the number
    /// of arena rebuilds.
    fn operate(
        &self,
        tracer: Option<&Tracer>,
    ) -> std::result::Result<(RecoverRun, f64, u64), String> {
        let t0 = Instant::now();
        let root = tracer.map(|t| t.enter("run"));
        let (mesh, routing) = recover_mesh();
        let cfg = match tracer {
            Some(t) => t.span("core.from_specs", || {
                Config::from_specs(&mesh, &routing, &self.specs)
            }),
            None => Config::from_specs(&mesh, &routing, &self.specs),
        };
        let cfg = cfg.map_err(|e| format!("from_specs: {e}"))?;
        let wal = shared(WalWriter::in_memory());
        // The recorder's seed is metadata for the WAL header only; the
        // program sees nothing of the benchmark seed but the messages.
        let mut recorder = Recorder::with_wal(Rc::clone(&wal), 0, None);
        let options = EngineOptions {
            exact: true,
            heuristic_threshold: None,
            max_recoveries: u64::MAX,
        };
        let engine = DetectionEngine::with_policy(options, Box::new(AbortAndEvacuate));
        let mut hook = ObservedEngine::new(engine, Some(Rc::clone(&wal)));
        let mut policy = WormholePolicy::default();
        let sim_options = SimOptions {
            max_steps: MAX_STEPS,
            stepper: STEPPER,
            ..SimOptions::default()
        };
        let mut rebuilds = 0;
        let result = match tracer {
            None => simulate_observed_config(
                &mesh,
                &mut policy,
                cfg,
                &sim_options,
                &mut hook,
                &mut recorder,
            ),
            Some(tr) => {
                let mut timed_hook = TimedHook {
                    inner: &mut hook,
                    tracer: tr,
                    rebuilds: 0,
                };
                let mut timed_observer = TimedObserver {
                    inner: &mut recorder,
                    tracer: tr,
                };
                let r = tr.span("sim.run", || {
                    simulate_observed_config(
                        &mesh,
                        &mut policy,
                        cfg,
                        &sim_options,
                        &mut timed_hook,
                        &mut timed_observer,
                    )
                });
                rebuilds = timed_hook.rebuilds;
                r
            }
        };
        let summary = recorder.summary();
        let engine = hook.into_engine();
        drop(recorder);
        let writer = Rc::try_unwrap(wal)
            .map_err(|_| "WAL still shared after the run".to_string())?
            .into_inner();
        let bytes = writer.finish().map_err(|e| format!("WAL finish: {e}"))?;
        let wall_s = t0.elapsed().as_secs_f64();
        if let (Some(t), Some(id)) = (tracer, root) {
            t.exit(id);
        }
        let rss_mib = peak_rss_mib();
        let result = result.map_err(|e| format!("simulate_observed_config: {e}"))?;
        let run = RecoverRun {
            outcome: result.run.outcome,
            steps: result.run.steps,
            moves: summary.moves,
            detections: engine.detections().len() as u64,
            recoveries: engine.stats().recoveries,
            wal_records: summary.wal_records,
            wal_bytes: summary.wal_bytes,
            wal: bytes.unwrap_or_default(),
            arrived: result.run.config.arrived().len(),
            aborted: engine.stats().aborted.len(),
            rss_mib,
        };
        Ok((run, wall_s, rebuilds))
    }

    fn checked(&mut self, run: &RecoverRun, wall_s: f64) -> Sample {
        let mut s = Sample {
            wall_s,
            rss_mib: run.rss_mib,
            flit_moves: run.moves,
            states: run.steps,
            stats: vec![
                ("steps", run.steps),
                ("moves", run.moves),
                ("detections", run.detections),
                ("wal_records", run.wal_records),
            ],
            ..Sample::default()
        };
        s.check(run.outcome == Outcome::Evacuated, || {
            format!("run ended {:?}, not evacuated", run.outcome)
        });
        s.check(run.arrived + run.aborted == self.specs.len(), || {
            format!(
                "{} arrived + {} aborted != {} messages",
                run.arrived,
                run.aborted,
                self.specs.len()
            )
        });
        s.check(run.moves > 0 && run.detections > 0, || {
            "no moves or no detections recorded".into()
        });
        s.check(run.wal.len() as u64 >= run.wal_bytes, || {
            format!(
                "WAL holds {} bytes, recorder wrote {}",
                run.wal.len(),
                run.wal_bytes
            )
        });
        // Decoding is a check, outside the timed region.
        let hash = wal_hash(&run.wal);
        match self.wal_hash {
            Some(first) => s.check(hash == first, || {
                "WAL differs from the first operation's".into()
            }),
            None => {
                let log = read_wal_bytes(&run.wal);
                s.check(log.damage.is_none(), || {
                    format!("WAL damaged: {}", log.damage.as_deref().unwrap_or(""))
                });
                s.check(log.events.len() as u64 == run.wal_records, || {
                    format!(
                        "WAL decodes to {} records, recorder wrote {}",
                        log.events.len(),
                        run.wal_records
                    )
                });
                if s.failures.is_empty() {
                    self.wal_hash = Some(hash);
                }
            }
        }
        if self.seed == REFERENCE_SEED {
            s.anchor("steps", run.steps, RECOVER_STEPS);
            s.anchor("detections", run.detections, RECOVER_DETECTIONS);
            s.anchor("wal_records", run.wal_records, RECOVER_WAL_RECORDS);
        }
        s
    }
}

impl Workload for Recover {
    fn run(&mut self) -> Sample {
        match self.operate(None) {
            Ok((run, wall_s, _)) => self.checked(&run, wall_s),
            Err(e) => Sample::failed(e),
        }
    }

    fn run_traced(&mut self, tr: &Tracer, layers: &mut Layers) -> Sample {
        let (run, _, rebuilds) = match self.operate(Some(tr)) {
            Ok(out) => out,
            Err(e) => return Sample::failed(e),
        };
        let hook_s = tr.total_s("detect.hook");
        let observer_s = tr.total_s("obs.observer");
        for (name, value) in [
            ("core.from_specs_s", tr.total_s("core.from_specs")),
            ("sim.loop_self_s", tr.self_s("sim.run")),
            ("sim.rebuilds", rebuilds as f64),
            ("detect.hook_s", hook_s),
            ("detect.hook_calls", tr.count("detect.hook") as f64),
            ("detect.detections", run.detections as f64),
            ("detect.recoveries", run.recoveries as f64),
            (
                "detect.hook_us_per_step",
                ratio(hook_s * 1e6, run.steps as f64),
            ),
            ("obs.observer_s", observer_s),
            ("obs.observer_calls", tr.count("obs.observer") as f64),
            (
                "obs.wal_mb_per_s",
                ratio(run.wal_bytes as f64 / MIB, observer_s),
            ),
            ("obs.wal_bytes", run.wal_bytes as f64),
            ("obs.wal_records", run.wal_records as f64),
        ] {
            layers.insert(name, value);
        }
        self.checked(&run, tr.total_s("run"))
    }

    fn setup_once(&self) {
        let (mesh, routing) = recover_mesh();
        let cfg = Config::from_specs(&mesh, &routing, &self.specs);
        std::hint::black_box(cfg.is_ok());
    }
}

/// Times every call into the detector hook, and counts the calls that
/// mutated the configuration (each forces an arena rebuild).
struct TimedHook<'a> {
    inner: &'a mut dyn DetectorHook,
    tracer: &'a Tracer,
    rebuilds: u64,
}

impl TimedHook<'_> {
    fn note(&mut self, mutated: Result<bool>) -> Result<bool> {
        if matches!(mutated, Ok(true)) {
            self.rebuilds += 1;
        }
        mutated
    }
}

impl DetectorHook for TimedHook<'_> {
    fn after_step(&mut self, net: &dyn Network, cfg: &mut Config, step: u64) -> Result<()> {
        let inner = &mut self.inner;
        self.tracer
            .span("detect.hook", || inner.after_step(net, cfg, step))
    }

    fn after_kernel_step(
        &mut self,
        net: &dyn Network,
        cfg: &mut Config,
        transitions: &[Transition],
        step: u64,
    ) -> Result<bool> {
        let inner = &mut self.inner;
        let r = self.tracer.span("detect.hook", || {
            inner.after_kernel_step(net, cfg, transitions, step)
        });
        self.note(r)
    }

    fn on_deadlock(&mut self, net: &dyn Network, cfg: &mut Config, step: u64) -> Result<bool> {
        let inner = &mut self.inner;
        let r = self
            .tracer
            .span("detect.hook", || inner.on_deadlock(net, cfg, step));
        self.note(r)
    }

    fn on_drained(&mut self, net: &dyn Network, cfg: &mut Config, step: u64) -> Result<bool> {
        let inner = &mut self.inner;
        let r = self
            .tracer
            .span("detect.hook", || inner.on_drained(net, cfg, step));
        self.note(r)
    }
}

/// Times every call into the run observer.
struct TimedObserver<'a> {
    inner: &'a mut dyn RunObserver,
    tracer: &'a Tracer,
}

impl RunObserver for TimedObserver<'_> {
    fn wants_moves(&self) -> bool {
        self.inner.wants_moves()
    }

    fn on_run_start(&mut self, net: &dyn Network, cfg: &Config) -> Result<()> {
        let inner = &mut self.inner;
        self.tracer
            .span("obs.observer", || inner.on_run_start(net, cfg))
    }

    fn on_step(
        &mut self,
        cfg: &Config,
        step: u64,
        transitions: &[Transition],
        freed: &[PortId],
        moves: &[Event],
        arrived: &[MsgId],
    ) -> Result<()> {
        let inner = &mut self.inner;
        self.tracer.span("obs.observer", || {
            inner.on_step(cfg, step, transitions, freed, moves, arrived)
        })
    }

    fn on_mutation(&mut self, cfg: &Config, steps_done: u64) -> Result<()> {
        let inner = &mut self.inner;
        self.tracer
            .span("obs.observer", || inner.on_mutation(cfg, steps_done))
    }

    fn on_run_end(&mut self, outcome: Outcome, steps: u64, cfg: &Config) -> Result<()> {
        let inner = &mut self.inner;
        self.tracer
            .span("obs.observer", || inner.on_run_end(outcome, steps, cfg))
    }
}
