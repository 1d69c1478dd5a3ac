//! Per-layer probes of a traced run, measured from outside the program:
//! calls into each crate's public functions on the state the workload
//! reached, plus the instrumentation the solver already keeps
//! (`PhaseTimers`, `StepStats`, `PoolStats`, the span tree).
//!
//! Every rank runs every probe in the same order (several are
//! collective); rank 0's numbers are reported.

use crate::gate::Gate;
use crate::ledger::SPANS;
use crate::workload::{median, Options, Spec, StepRecord, SAMPLE_CONFIG};
use rbx::basis::tensor::TensorScratch;
use rbx::basis::ModalBasis;
use rbx::comm::{allreduce_scalar, allreduce_scalar_max};
use rbx::compress::{compress_field, decompress_field, weighted_l2_error};
use rbx::core::{read_checkpoint, CheckpointSet, Simulation};
use rbx::device::WorkerPool;
use rbx::gs::{GatherScatter, GsOp};
use rbx::la::helmholtz::HelmholtzOp;
use rbx::la::ops::ortho_project_mean_layout;
use rbx::la::{fgmres, CoarseGrid, ElementFdm, SchwarzMode};
use rbx::mesh::GeomFactors;
use rbx::perf::{CaseSize, CostModel, Machine, SolverMix};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Timed calls per kernel probe (after one warm-up call); the median is
/// reported.
const KERNEL_REPS: usize = 41;
/// Repeats of the slower probes (pressure replay, checkpoint I/O, set-up).
const SLOW_REPS: usize = 5;

/// Per-layer results of rank 0.
#[derive(Default)]
pub struct Layers {
    pub values: Vec<(&'static str, f64)>,
    roofline: Roofline,
    /// Span path → per-step self time, ms.
    pub spans: Vec<(&'static str, f64)>,
    /// Reconciliation lines for the report.
    pub notes: Vec<String>,
    pub gate: Gate,
}

impl Layers {
    fn set(&mut self, name: &'static str, v: f64) {
        self.values.push((name, v));
    }
}

/// Measured kernel times and sizes the roofline column is computed from.
#[derive(Default)]
struct Roofline {
    /// Local elements and nodes of rank 0.
    nelv: usize,
    n: usize,
    helm_us: f64,
    fdm_us: f64,
    gs_us: f64,
}

/// The probes that need the whole host: triad bandwidth on as many
/// threads as the workload uses, the single-thread baseline, and the
/// roofline column built on the triad. Run after the ranks have finished.
pub fn host_probes(out: &mut Layers, spec: &Spec, seed: u64) {
    let threads = spec.ranks * spec.threads;
    let llc = llc_bytes();
    let (triad, array_bytes) = triad_gbs(&WorkerPool::new(threads), llc);
    out.notes.push(format!(
        "triad: {threads} threads, arrays of {:.0} MiB each, last-level cache {:.0} MiB",
        array_bytes as f64 / (1 << 20) as f64,
        llc as f64 / (1 << 20) as f64
    ));
    out.set("device.triad_gbs", triad);
    let serial_ms = serial_baseline_ms(spec, seed, &mut out.gate);
    out.set("device.serial_step_ms", serial_ms);

    // Roofline: the rbx-perf memory-bound model on a machine whose
    // sustained bandwidth is the measured triad.
    let host = Machine {
        name: "host".into(),
        device: "cpu".into(),
        peak_tflops_fp64: 0.0,
        peak_bw_gbs: triad,
        n_devices: 1,
        logical_per_device: 1,
        interconnect: "in-process".into(),
        nic_gbs: 1.0,
        launch_latency_us: 0.0,
        link_latency_us: 0.0,
        allreduce_hop_us: 0.0,
        bw_efficiency: 1.0,
    };
    let r = &out.roofline;
    let case = CaseSize {
        nelem: r.nelv,
        order: spec.order,
    };
    let model = CostModel::new(host, case, SolverMix::default());
    let bw = triad * 1e9;
    // Gather-scatter local phase: read and write every value, read its
    // u32 member index.
    let gs_bytes = r.n as f64 * (8.0 + 8.0 + 4.0);
    let rows = [
        ("la.helmholtz", model.apply_time(1) * bw, r.helm_us),
        ("la.fdm", model.fdm_time(1) * bw, r.fdm_us),
        ("gs.apply", gs_bytes, r.gs_us),
    ];
    for (layer, bytes, us) in rows {
        let gbs = bytes / (us * 1e-6) / 1e9;
        let (mb, g, f) = match layer {
            "la.helmholtz" => (
                "la.helmholtz.mb",
                "la.helmholtz.gbs",
                "la.helmholtz.roof_frac",
            ),
            "la.fdm" => ("la.fdm.mb", "la.fdm.gbs", "la.fdm.roof_frac"),
            _ => ("gs.apply.mb", "gs.apply.gbs", "gs.apply.roof_frac"),
        };
        out.set(mb, bytes / 1e6);
        out.set(g, gbs);
        out.set(f, gbs / triad);
    }
}

/// Median wall time of `reps` calls of `f` after one warm-up call, in
/// microseconds: the shape of the `bench_kernels` timing loop, with a
/// median instead of a minimum so that a traced run is steady rather
/// than lucky.
pub fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        v.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&v)
}

/// Span aggregates accumulated over the traced episodes only.
#[derive(Default)]
pub struct SpanLedger {
    seconds: BTreeMap<String, f64>,
    pub steps: usize,
}

impl SpanLedger {
    pub fn add_delta(&mut self, before: &[(String, f64)], after: &[(String, f64)], steps: usize) {
        for (path, s) in after {
            let prev = before
                .iter()
                .find(|(p, _)| p == path)
                .map_or(0.0, |(_, s)| *s);
            *self.seconds.entry(path.clone()).or_default() += s - prev;
        }
        self.steps += steps;
    }

    /// Per-step self time of `path` in ms: its seconds minus those of its
    /// direct children.
    fn self_ms(&self, path: &str) -> f64 {
        let total = self.seconds.get(path).copied().unwrap_or(0.0);
        let prefix = format!("{path}/");
        let children: f64 = self
            .seconds
            .iter()
            .filter(|(p, _)| {
                p.strip_prefix(&prefix)
                    .is_some_and(|rest| !rest.contains('/'))
            })
            .map(|(_, s)| s)
            .sum();
        1e3 * (total - children) / self.steps.max(1) as f64
    }
}

/// Flatten a tracer snapshot to `(path, seconds)`.
pub fn span_seconds(tel: &rbx::telemetry::Telemetry) -> Vec<(String, f64)> {
    tel.tracer()
        .snapshot()
        .into_iter()
        .map(|s| (s.path, s.seconds))
        .collect()
}

fn mean(v: impl Iterator<Item = f64>) -> f64 {
    let (s, n) = v.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    s / n.max(1) as f64
}

/// Host triad bandwidth `a = b + s·c` on `pool`, GB/s (best of 5 sweeps,
/// STREAM byte count 24 B/element), with each array at least four times
/// the last-level cache.
fn triad_gbs(pool: &WorkerPool, llc_bytes: usize) -> (f64, usize) {
    let n = 4 * llc_bytes / 8;
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let chunk = n.div_ceil(pool.threads() * 16);
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let out = rbx::device::RangePtr::new(&mut a);
        let t = Instant::now();
        pool.for_each_range(n, chunk, |lo, hi| {
            // SAFETY: the pool hands out disjoint `[lo, hi)` ranges.
            let dst = unsafe { out.range_mut(lo, hi) };
            for ((d, x), y) in dst.iter_mut().zip(&b[lo..hi]).zip(&c[lo..hi]) {
                *d = x + 3.0 * y;
            }
        });
        best = best.min(t.elapsed().as_secs_f64());
    }
    std::hint::black_box(&a);
    (24.0 * n as f64 / best / 1e9, n * 8)
}

/// Last-level cache size from sysfs (the largest cache index of CPU 0).
fn llc_bytes() -> usize {
    let mut best = 0;
    for idx in 0..8 {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}/size");
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        let text = text.trim();
        let (num, mult) = match text.chars().last() {
            Some('K') => (&text[..text.len() - 1], 1 << 10),
            Some('M') => (&text[..text.len() - 1], 1 << 20),
            Some('G') => (&text[..text.len() - 1], 1 << 30),
            _ => (text, 1),
        };
        best = best.max(num.parse::<usize>().unwrap_or(0) * mult);
    }
    if best == 0 {
        32 << 20
    } else {
        best
    }
}

/// Run every per-rank probe. `steps` is this rank's timed window and
/// `spans` the span deltas of its traced episodes.
pub fn probe(
    spec: &Spec,
    opts: &Options,
    sim: &Simulation<'_>,
    pool: &WorkerPool,
    steps: &[StepRecord],
    spans: &SpanLedger,
) -> Layers {
    let mut out = Layers::default();
    let comm = sim.comm;
    let n = sim.n_local();
    let per_step = |f: &dyn Fn(&StepRecord) -> f64| mean(steps.iter().map(f));
    // The phase split comes from the untraced rounds (the phase timers
    // always run), so tracing's own cost does not inflate it.
    let plain: Vec<&StepRecord> = steps.iter().filter(|s| !s.traced).collect();
    let per_plain_step = |f: &dyn Fn(&StepRecord) -> f64| mean(plain.iter().map(|s| f(s)));

    // ---- core: Fig. 4 phases and the reconciliation gap ------------------
    let phase_ms = [0, 1, 2, 3].map(|i| 1e3 * per_plain_step(&|s| s.phases[i]));
    let wall_ms = 1e3 * per_plain_step(&|s| s.step_s);
    let gap_ms = wall_ms - phase_ms.iter().sum::<f64>();
    out.set("core.pressure_ms", phase_ms[0]);
    out.set("core.velocity_ms", phase_ms[1]);
    out.set("core.temperature_ms", phase_ms[2]);
    out.set("core.other_ms", phase_ms[3]);
    out.set("core.gap_ms", gap_ms);
    out.set("core.timed_steps", plain.len() as f64);
    out.gate.check(gap_ms >= -0.01 * wall_ms, || {
        format!(
            "phases sum to {:.3} ms, more than the {wall_ms:.3} ms step",
            wall_ms - gap_ms
        )
    });
    out.notes.push(format!(
        "untraced step wall {wall_ms:.3} ms = pressure {:.3} + velocity {:.3} + \
         temperature {:.3} + other {:.3} + gap {gap_ms:.3} ms ({:.1}% unattributed)",
        phase_ms[0],
        phase_ms[1],
        phase_ms[2],
        phase_ms[3],
        100.0 * gap_ms / wall_ms
    ));

    let u = &sim.state.u;
    let mut adv = vec![0.0; n];
    let advect_us = time_us(KERNEL_REPS / 4, || {
        for v in [&u[0], &u[1], &u[2], &sim.state.t] {
            sim.dealias
                .advect_with(&sim.geom, [&u[0], &u[1], &u[2]], v, &mut adv, pool);
        }
    });
    out.set("core.advect_ms", advect_us / 1e3);

    // ---- la: counts and the replayed pressure solve ----------------------
    out.set("la.fgmres_iters", per_step(&|s| s.p_iters as f64));
    out.set("la.pcg_iters", per_step(&|s| s.pcg_iters as f64));

    let op = HelmholtzOp {
        geom: &sim.geom,
        gs: &sim.gs,
        mask: &sim.mask_p,
        h1: 1.0,
        h2: 0.0,
    };
    // The pressure Poisson problem whose solution is the current pressure.
    let mut rhs = vec![0.0; n];
    op.apply_with(&sim.state.p, &mut rhs, pool, comm);
    ortho_project_mean_layout(&mut rhs, sim.dp.weights(), &sim.elem_layout, comm);
    let mode = sim.cfg.schwarz_mode;
    let (mut op_s, mut pc_s, mut total_s, mut iters) = (vec![], vec![], vec![], 0);
    for _ in 0..SLOW_REPS {
        let (t_op, t_pc) = (Cell::new(0.0), Cell::new(0.0));
        let mut x = vec![0.0; n];
        let t0 = Instant::now();
        let st = fgmres(
            |a, y| {
                let t = Instant::now();
                op.apply_with(a, y, pool, comm);
                t_op.set(t_op.get() + t.elapsed().as_secs_f64());
            },
            |r, z| {
                let t = Instant::now();
                sim.schwarz.apply(r, z, mode, comm);
                t_pc.set(t_pc.get() + t.elapsed().as_secs_f64());
            },
            |a, b| sim.dp.dot_with(a, b, pool, comm),
            &rhs,
            &mut x,
            sim.cfg.p_tol,
            0.0,
            sim.cfg.p_maxit,
            sim.cfg.p_restart,
        );
        total_s.push(t0.elapsed().as_secs_f64());
        op_s.push(t_op.get());
        pc_s.push(t_pc.get());
        iters = st.iterations;
        out.gate
            .check(st.converged, || format!("replayed pressure solve: {st:?}"));
    }
    let (op_ms, pc_ms) = (1e3 * median(&op_s), 1e3 * median(&pc_s));
    out.set("la.fgmres.op_ms", op_ms);
    out.set("la.fgmres.precond_ms", pc_ms);
    out.set("la.fgmres.self_ms", 1e3 * median(&total_s) - op_ms - pc_ms);
    out.notes.push(format!(
        "replayed pressure solve: {iters} FGMRES iterations from a zero guess"
    ));

    // ---- la: kernels on the reached state --------------------------------
    let mut z = vec![0.0; n];
    out.set(
        "la.schwarz_us",
        time_us(KERNEL_REPS, || {
            sim.schwarz.apply(&rhs, &mut z, SchwarzMode::Serial, comm)
        }),
    );
    out.set(
        "la.schwarz_overlapped_us",
        time_us(KERNEL_REPS, || {
            sim.schwarz
                .apply(&rhs, &mut z, SchwarzMode::Overlapped, comm)
        }),
    );
    let coarse = &sim.schwarz.coarse;
    let r_weighted: Vec<f64> = rhs.iter().zip(&sim.mult).map(|(r, m)| r / m).collect();
    let mut rc = vec![0.0; coarse.len()];
    let mut zc = vec![0.0; coarse.len()];
    coarse.restrict(&r_weighted, &mut rc, &mut TensorScratch::new(), comm);
    out.set(
        "la.coarse_solve_us",
        time_us(KERNEL_REPS, || coarse.solve(&rc, &mut zc, comm)),
    );
    out.set(
        "la.coarse_correct_us",
        time_us(KERNEL_REPS, || {
            coarse.correct_add(&r_weighted, &mut z, comm)
        }),
    );
    let fdm_us = time_us(KERNEL_REPS, || {
        sim.schwarz.fdm.apply_add_with(&rhs, &mut z, 1.0, 0.0, pool)
    });
    out.set("la.fdm_us", fdm_us);
    let mut y = vec![0.0; n];
    let helm_us = time_us(KERNEL_REPS, || {
        op.apply_with(&sim.state.p, &mut y, pool, comm)
    });
    out.set("la.helmholtz_us", helm_us);
    out.set(
        "la.dot_us",
        time_us(KERNEL_REPS, || {
            std::hint::black_box(sim.dp.dot_with(&rhs, &sim.state.p, pool, comm));
        }),
    );

    // ---- gs and comm -----------------------------------------------------
    // Zeros keep repeated additive exchanges bounded; the traffic is the
    // same as for any other values.
    let mut v = vec![0.0; n];
    let gs_us = time_us(KERNEL_REPS, || sim.gs.apply(&mut v, GsOp::Add, comm));
    out.set("gs.apply_us", gs_us);
    out.set(
        "gs.shared_values",
        allreduce_scalar(comm, sim.gs.shared_values() as f64),
    );
    out.set(
        "gs.neighbors",
        allreduce_scalar_max(comm, sim.gs.neighbors().len() as f64),
    );
    // On one rank the allreduce is a local no-op: time enough calls per
    // sample to resolve it.
    let batch = if comm.size() > 1 { 100 } else { 100_000 };
    let allreduce_us = time_us(KERNEL_REPS, || {
        for i in 0..batch {
            std::hint::black_box(allreduce_scalar(comm, i as f64));
        }
    }) / batch as f64;
    out.set("comm.allreduce_us", allreduce_us);
    let my_wall: f64 = steps.iter().map(|s| s.step_s).sum();
    let max_wall = allreduce_scalar_max(comm, my_wall);
    let mean_wall = allreduce_scalar(comm, my_wall) / comm.size() as f64;
    out.set("comm.imbalance", max_wall / mean_wall);

    // Kernel inputs of the roofline column, completed by `host_probes`.
    out.roofline = Roofline {
        nelv: sim.geom.nelv,
        n,
        helm_us,
        fdm_us,
        gs_us,
    };

    // ---- compression -------------------------------------------------------
    let basis = ModalBasis::new(spec.order + 1);
    let mut sample = None;
    let sample_us = time_us(SLOW_REPS, || {
        sample = Some(compress_field(
            &sim.state.t,
            &sim.geom,
            &basis,
            &SAMPLE_CONFIG,
        ));
    });
    let sample = sample.expect("sampled");
    let recon = decompress_field(&sample, &basis);
    let err = weighted_l2_error(&sim.state.t, &recon, &sim.geom.mass);
    out.set("compress.sample_ms", sample_us / 1e3);
    out.set("compress.ratio", sample.ratio());
    out.set("compress.error_frac", err / SAMPLE_CONFIG.error_bound);

    // ---- checkpoint I/O ----------------------------------------------------
    let set = CheckpointSet::new(opts.out_dir.join("probe"), 1);
    let mut written = None;
    let write_us = time_us(SLOW_REPS, || written = Some(set.write(sim)));
    // Rank 0 writes the shared file; nobody reads it before it has.
    comm.barrier();
    let mut mb = 0.0;
    let mut read_us = 0.0;
    match written {
        Some(Ok(path)) => {
            mb = std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64 / 1e6);
            let case = spec.case(spec.ranks);
            let mut fresh = Simulation::new(
                sim.cfg.clone(),
                &case.mesh,
                &case.part,
                case.elems[comm.rank()].clone(),
                comm,
            );
            let mut ok = true;
            read_us = time_us(SLOW_REPS, || {
                ok &= read_checkpoint(&mut fresh, &path).is_ok()
            });
            out.gate
                .check(ok, || format!("{}: probe read failed", path.display()));
        }
        Some(Err(e)) => out
            .gate
            .check(false, || format!("probe checkpoint write: {e}")),
        None => {}
    }
    out.set("io.checkpoint_write_ms", write_us / 1e3);
    out.set("io.checkpoint_read_ms", read_us / 1e3);
    out.set("io.checkpoint_mb", allreduce_scalar_max(comm, mb));

    // ---- set-up breakdown --------------------------------------------------
    let p = spec.order;
    let rank = comm.rank();
    let mut case = None;
    let mesh_s = time_us(SLOW_REPS, || case = Some(spec.case(spec.ranks))) / 1e6;
    let case = case.expect("case built");
    let my = &case.elems[rank];
    let gs_s = time_us(SLOW_REPS, || {
        drop(GatherScatter::build(&case.mesh, p, &case.part, my, comm));
    }) / 1e6;
    let coarse_s = time_us(SLOW_REPS, || {
        drop(CoarseGrid::build_with_order(
            &case.mesh,
            p,
            sim.cfg.coarse_order,
            &case.part,
            my,
            &[],
            comm,
        ));
    }) / 1e6;
    let geom = GeomFactors::new(&case.mesh.extract(my), p);
    let fdm_s = time_us(SLOW_REPS, || drop(ElementFdm::new(&geom))) / 1e6;
    let new_s = time_us(SLOW_REPS, || {
        drop(Simulation::new(
            sim.cfg.clone(),
            &case.mesh,
            &case.part,
            my.clone(),
            comm,
        ));
    }) / 1e6;
    out.set("setup.mesh_s", mesh_s);
    out.set("setup.gs_build_s", gs_s);
    out.set("setup.coarse_build_s", coarse_s);
    out.set("setup.fdm_build_s", fdm_s);
    out.set("setup.sim_new_s", new_s);

    // ---- telemetry: cost of tracing, span self times ----------------------
    let traced = mean(steps.iter().filter(|s| s.traced).map(|s| s.step_s));
    let plain = mean(steps.iter().filter(|s| !s.traced).map(|s| s.step_s));
    out.set("telemetry.overhead_pct", 100.0 * (traced / plain - 1.0));
    for path in SPANS {
        out.spans.push((path, spans.self_ms(path)));
    }
    attribute_phases(&mut out, spans);
    out
}

/// Which layer spans account for each phase, all from the traced rounds
/// (the phases as their `step/*` spans). Spans that only run inside one
/// phase are attributed to it; the Krylov kernels and gather-scatter run
/// in pressure, velocity and temperature alike and are listed as shared.
fn attribute_phases(out: &mut Layers, spans: &SpanLedger) {
    let inside = |paths: &[&str]| -> f64 { paths.iter().map(|p| spans.self_ms(p)).sum() };
    let pressure = inside(&["step/pressure"]);
    let other = inside(&["step/other"]);
    let pvt = inside(&["step/pressure", "step/velocity", "step/temperature"]);
    let schwarz = inside(&[
        "schwarz/coarse",
        "schwarz/coarse/restrict",
        "schwarz/coarse/solve",
        "schwarz/coarse/prolong",
        "schwarz/gs",
        "pool/fdm",
    ]);
    let advect = inside(&["pool/advect"]);
    let shared = inside(&["pool/helmholtz", "pool/dot", "pool/gs"]);
    let pct = |x: f64, of: f64| 100.0 * x / of.max(1e-12);
    out.notes.push(format!(
        "traced pressure {pressure:.3} ms: schwarz/* + pool/fdm {schwarz:.3} ms ({:.0}%) \
         inside it alone",
        pct(schwarz, pressure)
    ));
    out.notes.push(format!(
        "traced other {other:.3} ms: pool/advect {advect:.3} ms ({:.0}%)",
        pct(advect, other)
    ));
    out.notes.push(format!(
        "traced pressure+velocity+temperature {pvt:.3} ms: pool/helmholtz+pool/dot+pool/gs \
         {shared:.3} ms ({:.0}%) shared across the three solves",
        pct(shared, pvt)
    ));
}

/// One rank on a 1-thread pool, the first trajectory of the ensemble:
/// mean ms per step over one episode after the same warm-up.
fn serial_baseline_ms(spec: &Spec, seed: u64, gate: &mut Gate) -> f64 {
    let cfg = spec.config(spec.sub_seed(seed, 0));
    let mut sim = rbx_bench::leaked_sim(spec.case(1), cfg);
    sim.set_pool(&WorkerPool::new(1));
    for _ in 0..spec.warm_steps {
        gate.step(&sim.step());
    }
    let t = Instant::now();
    for _ in 0..spec.episode_steps {
        gate.step(&sim.step());
    }
    1e3 * t.elapsed().as_secs_f64() / spec.episode_steps as f64
}
