//! **stepbench** — whole-step time of the RBX solver on three reference
//! cases, with an outside-in per-layer ledger.
//!
//! ```sh
//! python3 stepbench/run.py --workload cyl_p5_r2_io --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `run.py` builds this crate and runs it pinned to one CPU; the binary
//! takes the same flags.
//! It drives the library API directly (`rbc_box_case`/`rbc_cylinder_case`,
//! `Simulation`, `comm::run_on_ranks`, `CheckpointSet`,
//! `AsyncFieldCompressor`), checks the outputs (see `gate.rs`), and prints
//! a table followed by one JSON line:
//!
//! * `--trace 0`: the end-to-end metrics `step_ms`, `step_ms_p90`,
//!   `setup_s`, `peak_rss_mb`;
//! * `--trace 1`: the per-layer ledger (see `ledger.rs`), each row next to
//!   the end-to-end metric and workload it should move.
//!
//! `--finals` runs one round and prints the final observables of every
//! trajectory instead (how `reference.json` is recorded); `--ledger` prints the metric
//! ledger in `BENCHMARK.json`'s shape.

mod gate;
mod layers;
mod ledger;
mod workload;

use gate::{Gate, Reference};
use ledger::{Report, PER_LAYER, SPANS};
use rbx::comm::{run_on_ranks, Communicator, SingleComm};
use rbx::core::Simulation;
use rbx::telemetry::json::Value;
use std::collections::HashMap;
use std::path::PathBuf;
use workload::{drive, median, quantile, Options, RankOutcome, Spec};

const REFERENCE: &str = include_str!("../reference.json");

struct Args {
    workload: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    finals: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("stepbench: {msg}");
    eprintln!(
        "usage: stepbench --workload <{}> --seed N --seconds S --trace 0|1 [--finals]",
        workload::WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut finals) = (None, None, None, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value();
                workload = Some(
                    Spec::by_name(&name)
                        .unwrap_or_else(|| usage(&format!("unknown workload {name}"))),
                );
            }
            "--seed" => seed = Some(value().parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(value().parse().unwrap_or_else(|_| usage("bad --seconds")))
            }
            "--trace" => {
                trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--finals" => finals = true,
            "--ledger" => {
                println!("{}", ledger::ledger_json());
                std::process::exit(0);
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or(false),
        finals,
    }
}

/// Process memory high-water mark, MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Run the workload on its ranks; outcomes in rank order.
fn run(spec: &Spec, opts: &Options) -> Vec<RankOutcome> {
    let cfg = spec.config(opts.seed);
    if spec.ranks == 1 {
        let comm = SingleComm::new();
        let build = || -> Simulation<'static> { rbx_bench::leaked_sim(spec.case(1), cfg.clone()) };
        vec![drive(spec, opts, &comm, &build)]
    } else {
        run_on_ranks(spec.ranks, |comm| {
            let build = || {
                // Set-up is a one-shot per rank; the case outlives the run.
                let case: &'static _ = Box::leak(Box::new(spec.case(spec.ranks)));
                Simulation::new(
                    cfg.clone(),
                    &case.mesh,
                    &case.part,
                    case.elems[comm.rank()].clone(),
                    comm,
                )
            };
            drive(spec, opts, comm, &build)
        })
    }
}

fn main() {
    let args = parse_args();
    let spec = args.workload;
    let out_dir =
        PathBuf::from(".stepbench_out").join(format!("{}-{}", spec.name, std::process::id()));
    let opts = Options {
        seed: args.seed,
        seconds: if args.finals { 0.0 } else { args.seconds },
        trace: args.trace && !args.finals,
        out_dir: out_dir.clone(),
    };
    println!(
        "stepbench: {} (p={}, {} rank(s) x {} pool thread(s)), seed {}, {} s, trace {}, simd {}",
        spec.name,
        spec.order,
        spec.ranks,
        spec.threads,
        args.seed,
        opts.seconds,
        u8::from(opts.trace),
        rbx::basis::simd::level_name()
    );
    let mut outcomes = run(&spec, &opts);
    let _ = std::fs::remove_dir_all(&out_dir);
    let _ = std::fs::remove_dir(".stepbench_out");
    let traced_layers = outcomes[0].layers.take();
    let rank0 = &outcomes[0];
    let finals = &rank0.finals;
    let steps = &rank0.steps;
    let p_iters = steps.iter().map(|s| s.p_iters).sum::<usize>() as f64 / steps.len() as f64;

    if args.finals {
        let trajectories = finals.iter().enumerate().map(|(j, f)| {
            Value::obj([
                ("seed", Value::int(spec.sub_seed(args.seed, j))),
                ("nu_hot", Value::num(f.nu_hot)),
                ("nu_cold", Value::num(f.nu_cold)),
                ("ke", Value::num(f.ke)),
            ])
        });
        println!(
            "{}",
            Value::obj([
                ("seed", Value::int(args.seed)),
                ("trajectories", Value::arr(trajectories)),
                ("p_iters_per_step", Value::num(p_iters)),
            ])
        );
        return;
    }

    // ---- correctness gate ---------------------------------------------------
    let mut gate = Gate::default();
    for o in &outcomes {
        gate.merge(&o.gate);
    }
    let applied = match Reference::parse(REFERENCE, spec.name) {
        Ok(reference) => reference.check(args.seed, finals, &mut gate),
        Err(e) => {
            gate.check(false, || e.clone());
            e
        }
    };
    let f0 = finals[0];
    println!(
        "final state of trajectory 0 (of {}): Nu hot {:.9}, Nu cold {:.9}, KE {:.9e}; \
         checked: {applied}",
        finals.len(),
        f0.nu_hot,
        f0.nu_cold,
        f0.ke
    );

    // ---- metrics ---------------------------------------------------------------
    let iter_s: Vec<f64> = steps.iter().map(|s| s.iter_s).collect();
    // Every episode of a trajectory does identical work (the same pressure
    // iteration counts, checkpoints and samples), so the median of its
    // per-episode mean step time is its steady centre — a host stall only
    // moves the episodes it hits. step_ms averages those over the ensemble.
    let mut per_traj: Vec<Vec<f64>> = vec![Vec::new(); spec.ensemble];
    for episode in steps.chunks(spec.episode_steps) {
        let ms = 1e3 * episode.iter().map(|s| s.iter_s).sum::<f64>() / episode.len() as f64;
        per_traj[episode[0].traj].push(ms);
    }
    let traj_ms: Vec<f64> = per_traj.iter().map(|v| median(v)).collect();
    let step_ms = traj_ms.iter().sum::<f64>() / traj_ms.len() as f64;
    println!(
        "timed window: {} steps, {} rounds of {} trajectories, {p_iters:.2} pressure iterations \
         per step; median episode per trajectory {:.3} .. {:.3} ms; window mean {:.3} ms",
        steps.len(),
        per_traj[0].len(),
        spec.ensemble,
        quantile(&traj_ms, 0.0),
        quantile(&traj_ms, 1.0),
        1e3 * iter_s.iter().sum::<f64>() / iter_s.len() as f64,
    );
    let mut report = Report::default();
    if !opts.trace {
        report.set("step_ms", step_ms);
        // The tail of each round (one episode of every trajectory), then
        // the median round: a host stall inflates the tail of the rounds it
        // hits, not the typical round's.
        let round_p90: Vec<f64> = iter_s
            .chunks(spec.ensemble * spec.episode_steps)
            .map(|round| 1e3 * quantile(round, 0.9))
            .collect();
        report.set("step_ms_p90", median(&round_p90));
        report.set("setup_s", median(&rank0.setup_s));
        report.set("peak_rss_mb", peak_rss_mib());
        report.print_table(&format!(
            "end-to-end ({} timed steps in {} rounds, {} set-ups):",
            steps.len(),
            round_p90.len(),
            rank0.setup_s.len()
        ));
    } else {
        let mut layers = traced_layers.expect("traced run probes layers");
        layers::host_probes(&mut layers, &spec, args.seed);
        gate.merge(&layers.gate);
        let mut values: HashMap<&str, f64> = layers.values.iter().copied().collect();
        let nsteps = steps.len() as f64;
        let dispatches: u64 = outcomes.iter().map(|o| o.dispatches).sum();
        let grained: u64 = outcomes.iter().map(|o| o.grained).sum();
        values.insert("device.dispatches_per_step", dispatches as f64 / nsteps);
        values.insert("device.grained_per_step", grained as f64 / nsteps);
        // Samples taken in the timed window, where the workload takes any,
        // replace the probe's one synchronous sample.
        let samples: Vec<(f64, f64)> = outcomes.iter().flat_map(|o| o.samples.clone()).collect();
        if !samples.is_empty() {
            let ratio = samples.iter().map(|s| s.0).sum::<f64>() / samples.len() as f64;
            values.insert("compress.ratio", ratio);
            values.insert(
                "compress.error_frac",
                samples.iter().map(|s| s.1).fold(0.0, f64::max),
            );
        }
        let dropped: u64 = outcomes.iter().map(|o| o.samples_dropped).sum();
        values.insert("compress.dropped", dropped as f64);
        for m in PER_LAYER {
            match values.get(m.name) {
                Some(v) => report.set(m.name, *v),
                None => gate.check(false, || {
                    format!("layer metric {} was not measured", m.name)
                }),
            }
        }
        for (path, ms) in &layers.spans {
            report.set_span(path, *ms);
        }
        debug_assert_eq!(layers.spans.len(), SPANS.len());
        report.print_table(&format!(
            "per-layer ledger (traced run, {} timed steps):",
            steps.len()
        ));
        println!("reconciliation:");
        for note in &layers.notes {
            println!("  {note}");
        }
    }
    for msg in &gate.messages {
        println!("FAILED: {msg}");
    }
    println!(
        "correctness: {} of {} operations failed",
        gate.failed, gate.attempted
    );
    println!(
        "{}",
        Value::obj([
            ("correct", Value::Bool(gate.failed == 0)),
            ("attempted", Value::int(gate.attempted)),
            ("failed", Value::int(gate.failed)),
            ("metrics", report.to_json()),
        ])
    );
}
