//! The deadlock-oracle workloads: `oracle-proof` (an exhaustive
//! deadlock-freedom proof, in RAM) and `oracle-spill` (a deadlock stop under
//! a memory budget that forces the disk tier).
//!
//! Both are pressure workloads (`genoc_explore::pressure_specs`): the cell
//! fixes the messages, so the seed does not change their inputs.

use std::path::PathBuf;
use std::time::Instant;

use genoc_core::meta::{InstanceMeta, RoutingKind};
use genoc_core::spec::MessageSpec;
use genoc_explore::{
    explore_policy, pressure_specs, replay, slot_perms, Exploration, ExploreOptions, Verdict,
    Workload as ExploreWorkload,
};
use genoc_switching::wormhole::WormholePolicy;
use genoc_verif::instance::Instance;

use crate::harness::{ratio, Layers, Sample, Workload, MIB};
use crate::stamp::peak_rss_mib;
use crate::trace::Tracer;

/// One explorer cell and the result it must reproduce.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    routing: RoutingKind,
    width: usize,
    height: usize,
    capacity: u32,
    flits: usize,
    max_states: usize,
    /// Memory budget that turns on the disk tier; `None` keeps it in RAM.
    mem_limit: Option<usize>,
    /// Anchors: a deadlock stop (with a counterexample of `depth` moves)
    /// or a proof, and the schedule-invariant counts.
    deadlock: bool,
    states: u64,
    depth: u64,
    group_size: u64,
}

/// The 2×2 XY mesh, capacity 1, four pressure messages of four flits:
/// no reachable deadlock, the whole space enumerated.
pub const PROOF: Cell = Cell {
    routing: RoutingKind::Xy,
    width: 2,
    height: 2,
    capacity: 1,
    flits: 4,
    max_states: 2_000_000,
    mem_limit: None,
    deadlock: false,
    states: 746_592,
    depth: 112,
    group_size: 4,
};

/// The capacity-2 4-ring under shortest routing, four flits, under a
/// 4 MiB budget with a spill directory: a depth-40 deadlock.
pub const SPILL: Cell = Cell {
    routing: RoutingKind::RingShortest,
    width: 4,
    height: 1,
    capacity: 2,
    flits: 4,
    max_states: 600_000,
    mem_limit: Some(4 << 20),
    deadlock: true,
    states: 494_902,
    depth: 40,
    group_size: 4,
};

pub struct Oracle {
    cell: Cell,
    meta: InstanceMeta,
    specs: Vec<MessageSpec>,
    jobs: usize,
    spill_root: PathBuf,
}

impl Oracle {
    pub fn new(cell: Cell, spill_root: PathBuf) -> Oracle {
        let meta = InstanceMeta::new(cell.routing, cell.width, cell.height, cell.capacity);
        Oracle {
            cell,
            specs: pressure_specs(&meta, cell.flits),
            meta,
            // Two workers, never more threads than the machine has.
            jobs: crate::stamp::threads().min(2),
            spill_root,
        }
    }

    fn options(&self) -> ExploreOptions {
        ExploreOptions {
            max_states: self.cell.max_states,
            symmetry: true,
            record_graph: false,
            por: true,
            jobs: self.jobs,
            shards: 0,
            mem_limit: self.cell.mem_limit,
            spill_dir: self.cell.mem_limit.map(|_| self.spill_root.clone()),
        }
    }

    /// One operation: set-up and exploration. Returns the exploration, the
    /// instance it ran on, and its wall time.
    fn operate(&self, tracer: Option<&Tracer>) -> Result<(Exploration, Instance, f64), String> {
        let t0 = Instant::now();
        let root = tracer.map(|t| t.enter("run"));
        let instance = match tracer {
            Some(t) => t.span("oracle.setup", || Instance::from_meta(&self.meta)),
            None => Instance::from_meta(&self.meta),
        };
        let instance = instance.map_err(|e| format!("Instance::from_meta: {e}"))?;
        let policy = WormholePolicy::default();
        let options = self.options();
        let explore = || {
            explore_policy(
                instance.net.as_ref(),
                instance.routing.as_ref(),
                &self.meta,
                &self.specs,
                &policy,
                &options,
            )
        };
        let result = match tracer {
            Some(t) => t.span("explore.explore", explore),
            None => explore(),
        };
        let wall_s = t0.elapsed().as_secs_f64();
        if let (Some(t), Some(id)) = (tracer, root) {
            t.exit(id);
        }
        let result = result.map_err(|e| format!("explore_policy: {e}"))?;
        Ok((result, instance, wall_s))
    }

    fn checked(
        &self,
        r: &Exploration,
        instance: &Instance,
        wall_s: f64,
        tracer: Option<&Tracer>,
    ) -> Sample {
        let c = &self.cell;
        let mut s = Sample {
            wall_s,
            rss_mib: peak_rss_mib(),
            flit_moves: r.transitions,
            states: r.states as u64,
            // Transitions and enabled moves depend on the worker schedule on
            // a deadlock stop, so only the schedule-invariant counts are
            // compared between runs.
            stats: vec![
                ("states", r.states as u64),
                ("depth", r.depth as u64),
                ("group_size", r.group_size as u64),
            ],
            ..Sample::default()
        };
        s.anchor("states", r.states as u64, c.states);
        s.anchor("depth", r.depth as u64, c.depth);
        s.anchor("group_size", r.group_size as u64, c.group_size);
        match (&r.verdict, c.deadlock) {
            (Verdict::NoReachableDeadlock, false) => {}
            (Verdict::Deadlock(cex), true) => {
                s.anchor("counterexample length", cex.trace.len() as u64, c.depth);
                s.check(r.spilled_bytes > 0, || "nothing spilled".into());
                let replayed = match tracer {
                    Some(t) => t.span("explore.replay", || self.replay(instance, &cex.trace)),
                    None => self.replay(instance, &cex.trace),
                };
                match replayed {
                    Ok(cfg) => {
                        s.check(!cfg.any_move_possible(), || {
                            "replayed counterexample ends where a move is possible".into()
                        });
                        s.check(cfg == cex.config, || {
                            "replay reaches another configuration than reported".into()
                        });
                    }
                    Err(e) => s.failures.push(format!("replay: {e}")),
                }
            }
            (v, _) => s.failures.push(format!("verdict {}", v.label())),
        }
        s
    }

    fn replay(
        &self,
        instance: &Instance,
        trace: &[genoc_core::moves::Move],
    ) -> genoc_core::error::Result<genoc_core::config::Config> {
        replay(
            instance.net.as_ref(),
            instance.routing.as_ref(),
            &self.specs,
            trace,
        )
    }
}

impl Workload for Oracle {
    fn run(&mut self) -> Sample {
        match self.operate(None) {
            Ok((r, instance, wall_s)) => self.checked(&r, &instance, wall_s, None),
            Err(e) => Sample::failed(e),
        }
    }

    fn run_traced(&mut self, tr: &Tracer, layers: &mut Layers) -> Sample {
        // `explore` builds the same workload and symmetry group internally;
        // this repeats those two public calls, outside the timed run, to
        // give the symmetry layer its own time.
        let symmetry = Instance::from_meta(&self.meta).map(|instance| {
            tr.span("explore.symmetry", || {
                ExploreWorkload::new(
                    instance.net.as_ref(),
                    instance.routing.as_ref(),
                    &self.specs,
                )
                .map(|w| slot_perms(instance.net.as_ref(), &self.meta, &w.routes()).len())
            })
        });
        let (r, instance, _) = match self.operate(Some(tr)) {
            Ok(out) => out,
            Err(e) => return Sample::failed(e),
        };
        let mut s = self.checked(&r, &instance, tr.total_s("run"), Some(tr));
        s.check(
            matches!(symmetry, Ok(Ok(n)) if n as u64 == self.cell.group_size),
            || "symmetry group differs from the explorer's".into(),
        );
        let explore_s = tr.total_s("explore.explore");
        let states = r.states as f64;
        let accounted = r.peak_bytes as f64;
        let spilled = r.spilled_bytes as f64;
        let mut put = |name, value| {
            layers.insert(name, value);
        };
        put("explore.explore_s", explore_s);
        put("explore.symmetry_s", tr.total_s("explore.symmetry"));
        put("explore.ns_per_state", ratio(explore_s * 1e9, states));
        put("explore.accounted_mb", accounted / MIB);
        put("explore.bytes_per_state", ratio(accounted, states));
        put(
            "explore.rss_over_accounted",
            ratio(peak_rss_mib() * MIB, accounted),
        );
        if let Some(limit) = self.cell.mem_limit {
            put("explore.spilled_mb", spilled / MIB);
            put("explore.spill_bytes_per_state", ratio(spilled, states));
            put(
                "explore.accounted_over_budget",
                ratio(accounted, limit as f64),
            );
            put("explore.replay_s", tr.total_s("explore.replay"));
        }
        put("explore.states", states);
        put("explore.depth", r.depth as f64);
        put("explore.group_size", r.group_size as f64);
        put("explore.transitions", r.transitions as f64);
        put("explore.enabled", r.enabled_moves as f64);
        put(
            "explore.por_ratio",
            ratio(r.enabled_moves as f64, r.transitions as f64),
        );
        s
    }

    fn setup_once(&self) {
        std::hint::black_box(Instance::from_meta(&self.meta).is_ok());
    }
}
