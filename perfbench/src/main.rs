//! The GeNoC-rs benchmark: four workloads, each driven from outside the
//! program through its public functions, with every result checked.
//!
//! ```text
//! genoc-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats its workload for `--seconds` and reports medians. With
//! `--trace 0` the last stdout line carries the end-to-end metrics; with
//! `--trace 1` half the time goes to untraced operations and half to
//! traced ones, and the line carries the per-layer metrics. See
//! `perfbench/README.md` for the metrics and workloads.

mod gen;
mod harness;
mod oracle;
mod sim;
mod stamp;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use harness::{ratio, Layers, Sample, Workload, END_TO_END, PER_LAYER};
use trace::Tracer;

/// The seed the workloads' anchors were recorded with.
pub const REFERENCE_SEED: u64 = 23;

const WORKLOADS: [&str; 4] = ["sim-mesh64", "sim-recover", "oracle-proof", "oracle-spill"];

/// One set-up sample lasts at least this long: a set-up shorter than this
/// is timed in batches. Host speed on a shared machine changes in phases of
/// a second or so, and a sample that spans several phases is an average, not
/// a draw from one phase.
const SETUP_SAMPLE_S: f64 = 0.5;
/// A run takes at least this many set-up samples.
const SETUP_SAMPLES: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}: expected all, {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Where traced runs write their spans and the oracle spills.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn make(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "sim-mesh64" => Box::new(sim::Mesh64::new(seed)?),
        "sim-recover" => Box::new(sim::Recover::new(seed)),
        "oracle-proof" => Box::new(oracle::Oracle::new(oracle::PROOF, out_dir().join("spill"))),
        "oracle-spill" => Box::new(oracle::Oracle::new(oracle::SPILL, out_dir().join("spill"))),
        _ => unreachable!("workload names are validated"),
    })
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Runs operations for `budget` seconds (at least one), logging each one's
/// wall time to stderr. Another operation starts only while one of median
/// length still fits, so a run ends within its budget however slow the host.
fn repeat(label: &str, budget: f64, mut op: impl FnMut() -> Sample) -> Vec<Sample> {
    let start = Instant::now();
    let mut out = Vec::new();
    let mut took = Vec::new();
    while out.is_empty() || start.elapsed().as_secs_f64() + median(took.clone()) <= budget {
        let t = Instant::now();
        let s = op();
        took.push(t.elapsed().as_secs_f64());
        eprintln!("{label} operation {}: wall {:.4} s", out.len(), s.wall_s);
        out.push(s);
    }
    out
}

/// The operations whose times count: all but the first, a warm-up, unless
/// it is the only one. Every operation is still checked.
fn timed_ops(ops: &[Sample]) -> Vec<&Sample> {
    ops.iter()
        .skip(usize::from(ops.len() > 1))
        .filter(|s| s.failures.is_empty())
        .collect()
}

/// How many set-ups one set-up sample times, from a warm-up that doubles
/// its batch until the batch is long enough to time.
fn setup_batch(w: &dyn Workload) -> usize {
    let mut n = 1usize;
    loop {
        let (_, t) = harness::timed(|| (0..n).for_each(|_| w.setup_once()));
        if t >= 0.01 || n >= 1 << 20 {
            return ((SETUP_SAMPLE_S * n as f64 / t.max(1e-9)).ceil() as usize).clamp(1, 1 << 24);
        }
        n *= 2;
    }
}

/// Seconds per set-up over one batch of `batch` set-ups.
fn setup_sample(w: &dyn Workload, batch: usize) -> f64 {
    let (_, t) = harness::timed(|| (0..batch).for_each(|_| w.setup_once()));
    t / batch as f64
}

fn metrics_json(values: &[(&str, f64, &str)]) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    out
}

fn run_one(args: &Args) -> ExitCode {
    let machine = stamp::machine_json();
    let mut w = match make(&args.workload, args.seed) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    // Set-up is sampled after every untraced operation, so the samples are
    // spread over the run like the operations are.
    let batch = if args.trace {
        0
    } else {
        setup_batch(w.as_ref())
    };
    let mut setups = Vec::new();
    let untraced = repeat("untraced", budget, || {
        let s = w.run();
        if batch > 0 {
            setups.push(setup_sample(w.as_ref(), batch));
        }
        s
    });
    let mut traced = Vec::new();
    let mut layer_runs: Vec<Layers> = Vec::new();
    let mut last_tracer = None;
    if args.trace {
        traced = repeat("traced", budget, || {
            let tracer = Tracer::new();
            let mut layers = Layers::new();
            let s = w.run_traced(&tracer, &mut layers);
            layer_runs.push(layers);
            last_tracer = Some(tracer);
            s
        });
    }

    // Every operation must be correct, and every run of the same inputs,
    // traced or not, must reproduce the same simulated statistics.
    let mut failed = 0u64;
    let reference = untraced.iter().find(|s| s.failures.is_empty());
    for (i, s) in untraced.iter().chain(&traced).enumerate() {
        let mut why = s.failures.clone();
        if let Some(r) = reference {
            if s.failures.is_empty() && s.stats != r.stats {
                why.push(format!(
                    "statistics {:?} differ from {:?}",
                    s.stats, r.stats
                ));
            }
        }
        if !why.is_empty() {
            failed += 1;
            eprintln!("{} operation {i} failed: {}", args.workload, why.join("; "));
        }
    }
    let attempted = (untraced.len() + traced.len()) as u64;
    let ok = timed_ops(&untraced);
    let wall_s = median(ok.iter().map(|s| s.wall_s).collect());
    // The first operation's reading: later ones would include the memory
    // the benchmark's own checks of earlier operations used.
    let peak_rss_mb = untraced
        .first()
        .filter(|s| s.failures.is_empty())
        .map_or(0.0, |s| s.rss_mib);

    let values: Vec<(&str, f64, &str)> = if args.trace {
        let traced_wall = median(timed_ops(&traced).iter().map(|s| s.wall_s).collect());
        let spans = last_tracer.as_ref().map_or(0, |t| t.spans_len());
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "trace.untraced_wall_s" => wall_s,
                    "trace.traced_wall_s" => traced_wall,
                    "trace.overhead" => ratio(traced_wall, wall_s),
                    "trace.spans" => spans as f64,
                    _ => median(
                        layer_runs
                            .iter()
                            .filter_map(|l| l.get(name).copied())
                            .collect(),
                    ),
                };
                (name, value, unit)
            })
            .collect()
    } else {
        while setups.len() < SETUP_SAMPLES {
            setups.push(setup_sample(w.as_ref(), batch));
        }
        let setup_s = median(setups);
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "wall_s" => wall_s,
                    "setup_s" => setup_s,
                    "peak_rss_mb" => peak_rss_mb,
                    "flit_moves_per_s" => median(
                        ok.iter()
                            .map(|s| ratio(s.flit_moves as f64, s.wall_s))
                            .collect(),
                    ),
                    "states_per_s" => median(
                        ok.iter()
                            .map(|s| ratio(s.states as f64, s.wall_s))
                            .collect(),
                    ),
                    _ => unreachable!("every end-to-end metric is computed"),
                };
                (name, value, unit)
            })
            .collect()
    };

    if let Some(tracer) = &last_tracer {
        if let Err(e) = write_trace(args, &machine, tracer) {
            eprintln!("writing spans failed: {e}");
        }
    }
    let _ = std::fs::remove_dir_all(out_dir().join("spill"));

    println!(
        "{{\"machine\": {machine}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"operations\": {attempted}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (name, value, unit) in &values {
        println!("metric\t{name}\t{value}\t{unit}");
    }
    println!("ops\t{attempted}\t{failed}");
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics_json(&values)
    );
    ExitCode::SUCCESS
}

/// Writes the last traced operation's spans, with per-name totals and self
/// times, to `perfbench/out/<workload>-seed<n>-trace.json`.
fn write_trace(args: &Args, machine: &str, tracer: &Tracer) -> std::io::Result<()> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let mut summary = String::new();
    for (i, name) in tracer.names().iter().enumerate() {
        if i > 0 {
            summary.push_str(", ");
        }
        let _ = write!(
            summary,
            "\"{name}\": {{\"count\": {}, \"total_s\": {}, \"self_s\": {}}}",
            tracer.count(name),
            tracer.total_s(name),
            tracer.self_s(name)
        );
    }
    let body = format!(
        "{{\"machine\": {machine}, \"workload\": \"{}\", \"seed\": {}, \"layers\": {{{summary}}}, \"spans\": {}}}\n",
        args.workload,
        args.seed,
        tracer.spans_json()
    );
    std::fs::write(
        dir.join(format!("{}-seed{}-trace.json", args.workload, args.seed)),
        body,
    )
}

/// Runs every workload, each in a fresh process, and prints one table.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate the benchmark executable: {e}");
            return ExitCode::from(2);
        }
    };
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut values: Vec<(String, f64, String)> = Vec::new();
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let out = match out {
            Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).into_owned(),
            Ok(out) => {
                eprintln!("{w}: exited with {}", out.status);
                return ExitCode::from(1);
            }
            Err(e) => {
                eprintln!("{w}: {e}");
                return ExitCode::from(1);
            }
        };
        for line in out.lines() {
            let fields: Vec<&str> = line.split('\t').collect();
            match fields.as_slice() {
                ["metric", name, value, unit] => {
                    println!("{w:<13} {name:<30} {value:>22} {unit}");
                    values.push((
                        format!("{w}.{name}"),
                        value.parse().unwrap_or(0.0),
                        unit.to_string(),
                    ));
                }
                ["ops", a, f] => {
                    println!("{w:<13} {:<30} {:>22} failed of {a}", "operations", f);
                    attempted += a.parse::<u64>().unwrap_or(0);
                    failed += f.parse::<u64>().unwrap_or(1);
                }
                _ => {}
            }
        }
    }
    let refs: Vec<(&str, f64, &str)> = values
        .iter()
        .map(|(n, v, u)| (n.as_str(), *v, u.as_str()))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0 && attempted > 0,
        metrics_json(&refs)
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("usage: genoc-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}
