//! The three reference workloads and the per-rank timed loop.
//!
//! The seed picks an *ensemble* of `ensemble` initial conditions (seeds
//! `seed·ensemble + j`, passed only into `SolverConfig.seed`): how much
//! work a step does depends strongly on the initial condition — pressure
//! iterations per step vary up to 2.5× between seeds on the cylinder —
//! and averaging over an ensemble keeps one seed's run comparable with
//! another's.
//!
//! A run: warm every trajectory up for `warm_steps` and snapshot it, then
//! run *rounds* until the time budget is spent; a round replays one
//! episode of `episode_steps` steps from every snapshot. Every episode of
//! a trajectory does identical work and must end on bitwise the same
//! state. Between episodes, outside the timed steps, one more set-up is
//! timed, so the set-up samples span the whole run.

use crate::gate::Gate;
use crate::layers::{probe, span_seconds, SpanLedger};
use rbx::comm::{allreduce_scalar_max, Communicator};
use rbx::compress::{
    decompress_field, weighted_l2_error, AsyncFieldCompressor, Codec, CompressedField,
    CompressionConfig,
};
use rbx::core::{
    read_checkpoint, CaseSetup, CheckpointSet, FlowState, Observables, Simulation, SolverConfig,
};
use rbx::device::WorkerPool;
use rbx::mesh::BoundaryTag;
use rbx::telemetry::Telemetry;
use std::path::PathBuf;
use std::time::Instant;

/// Error bound of the in-situ samples (the paper's 2.5 % operating point),
/// with unquantized coefficients.
pub const SAMPLE_CONFIG: CompressionConfig = CompressionConfig {
    error_bound: 0.025,
    quant_bits: None,
    codec: Codec::Range,
};

/// A sample passes when its weighted-L² error is within this multiple of
/// the bound: the tolerance the compression suite holds solver fields to.
/// The truncation budget uses each element's mean Jacobian, so on curved
/// elements the error can land slightly above the bound itself;
/// `compress.error_frac` reports by how much.
pub const SAMPLE_TOLERANCE: f64 = 1.5;

#[derive(Clone, Copy, Debug)]
pub enum Geometry {
    /// Γ = 2 box with `nx × nx × nx` elements.
    Box { nx: usize },
    /// The paper's curved cylinder, Γ = 1, resolution 1 (20 elements).
    Cylinder,
}

/// One reference workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub geometry: Geometry,
    pub order: usize,
    /// In-process ranks.
    pub ranks: usize,
    /// Worker-pool threads per rank.
    pub threads: usize,
    /// Initial conditions per run.
    pub ensemble: usize,
    pub warm_steps: usize,
    pub episode_steps: usize,
    /// Checkpoint every this many episode steps (0 = never).
    pub checkpoint_every: usize,
    /// Submit an async compressed sample every this many steps (0 = never).
    pub sample_every: usize,
}

// Every workload runs on one CPU (`run.py` pins it), so the boxes use one
// pool thread. On a 2-vCPU host a 2-thread pool was no faster
// (box_p5_e125: 115-175 ms/step at 2 threads against 121-135 ms at 1, runs
// alternated) and drew several times the CPU steal, so its step time
// spread past any useful bound.
pub const WORKLOADS: &[Spec] = &[
    Spec {
        name: "box_p7_e27",
        geometry: Geometry::Box { nx: 3 },
        order: 7,
        ranks: 1,
        threads: 1,
        ensemble: 8,
        warm_steps: 10,
        episode_steps: 16,
        checkpoint_every: 0,
        sample_every: 0,
    },
    // Runnable by name, but not one of BENCHMARK.json's workloads: on a
    // shared host its step time drifts between levels ~30 % apart over tens
    // of seconds, with no CPU steal and the same seed (101-132 ms/step in
    // six back-to-back 15 s runs), so ten runs spread past any useful
    // bound. Its pressure layers are measured on the cylinder instead.
    Spec {
        name: "box_p5_e125",
        geometry: Geometry::Box { nx: 5 },
        order: 5,
        ranks: 1,
        threads: 1,
        ensemble: 4,
        warm_steps: 10,
        episode_steps: 10,
        checkpoint_every: 0,
        sample_every: 0,
    },
    Spec {
        name: "cyl_p5_r2_io",
        geometry: Geometry::Cylinder,
        order: 5,
        ranks: 2,
        threads: 1,
        // With 12 trajectories the ensemble-mean pressure iterations per
        // step still ranged 16.2-20.4 between run seeds (31-40).
        ensemble: 24,
        warm_steps: 10,
        // One checkpoint per episode: 1 step in 16, so the p90 step time
        // stays among the compute steps instead of on the edge between
        // them and the checkpoint steps.
        episode_steps: 16,
        checkpoint_every: 16,
        sample_every: 4,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Build the case mesh and partition (the first thing set-up does).
    pub fn case(&self, ranks: usize) -> CaseSetup {
        match self.geometry {
            Geometry::Box { nx } => rbx::core::rbc_box_case(2.0, nx, nx, false, ranks),
            Geometry::Cylinder => rbx::core::rbc_cylinder_case(1.0, 1, ranks),
        }
    }

    /// Seed of trajectory `j` of run seed `seed`.
    pub fn sub_seed(&self, seed: u64, j: usize) -> u64 {
        seed.wrapping_mul(self.ensemble as u64)
            .wrapping_add(j as u64)
    }

    /// Ra = 1e5, Pr = 1, the seeded initial condition; `seed` goes nowhere
    /// else.
    pub fn config(&self, seed: u64) -> SolverConfig {
        SolverConfig {
            ra: 1e5,
            pr: 1.0,
            order: self.order,
            dt: 2e-3,
            ic_noise: 0.05,
            seed,
            ..Default::default()
        }
    }
}

/// Run options shared by every rank.
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    /// Attach telemetry and alternate traced/untraced episodes.
    pub trace: bool,
    /// Scratch directory for checkpoints (removed by the caller).
    pub out_dir: PathBuf,
}

/// Final observables of an episode.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Finals {
    pub nu_hot: f64,
    pub nu_cold: f64,
    pub ke: f64,
}

impl Finals {
    pub fn of(sim: &Simulation<'_>) -> Self {
        let obs = Observables::new(&sim.geom, sim.mesh, &sim.my_elems);
        let u = &sim.state.u;
        Finals {
            nu_hot: obs.nusselt_wall(&sim.state.t, BoundaryTag::HotWall, sim.comm),
            nu_cold: obs.nusselt_wall(&sim.state.t, BoundaryTag::ColdWall, sim.comm),
            ke: obs.kinetic_energy([&u[0], &u[1], &u[2]], sim.comm),
        }
    }

    fn bits(&self) -> [u64; 3] {
        [
            self.nu_hot.to_bits(),
            self.nu_cold.to_bits(),
            self.ke.to_bits(),
        ]
    }
}

/// The warmed state every episode starts from.
pub struct Snapshot {
    state: FlowState,
    basis: Vec<Vec<f64>>,
    images: Vec<Vec<f64>>,
}

impl Snapshot {
    pub fn take(sim: &Simulation<'_>) -> Self {
        let (basis, images) = sim.projection_state();
        Snapshot {
            state: sim.state.clone(),
            basis: basis.to_vec(),
            images: images.to_vec(),
        }
    }

    /// Put `sim` back on the snapshot, projection space included (a cold
    /// projection space would take a different Krylov trajectory).
    pub fn restore(&self, sim: &mut Simulation<'_>) {
        sim.state = self.state.clone();
        sim.restore_projection(self.basis.clone(), self.images.clone());
    }
}

/// Per-step record of the timed window.
#[derive(Clone, Copy, Default)]
pub struct StepRecord {
    /// Wall of the loop iteration: the step plus its checkpoint/sample work.
    pub iter_s: f64,
    /// Wall of the `Simulation::step` call alone.
    pub step_s: f64,
    /// Pressure, velocity, temperature, other (PhaseTimers).
    pub phases: [f64; 4],
    pub p_iters: usize,
    pub pcg_iters: usize,
    /// Trajectory of the ensemble the step belongs to.
    pub traj: usize,
    /// Whether telemetry was on for this step (traced runs alternate).
    pub traced: bool,
}

/// What one rank brings back from its run.
pub struct RankOutcome {
    pub setup_s: Vec<f64>,
    pub steps: Vec<StepRecord>,
    /// Pool dispatches and grain-gated inline loops in the timed window.
    pub dispatches: u64,
    pub grained: u64,
    pub gate: Gate,
    /// Final observables of each trajectory's first episode.
    pub finals: Vec<Finals>,
    /// (compression ratio, error / bound) of every sample checked.
    pub samples: Vec<(f64, f64)>,
    pub samples_dropped: u64,
    /// Per-layer probes, rank 0 of traced runs only.
    pub layers: Option<crate::layers::Layers>,
}

/// FNV-1a digest of every bit of the state a checkpoint carries: the flow
/// state with its histories and the pressure projection space.
pub fn state_digest(sim: &Simulation<'_>) -> u64 {
    let s = &sim.state;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: &[f64]| {
        for x in v {
            h ^= x.to_bits();
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for v in
        s.u.iter()
            .chain(s.u_lag.iter().flatten())
            .chain(s.f_lag.iter().flatten())
    {
        eat(v);
    }
    eat(&s.p);
    eat(&s.t);
    for lag in s.t_lag.iter().chain(&s.ft_lag) {
        eat(lag);
    }
    let (basis, images) = sim.projection_state();
    for v in basis.iter().chain(images) {
        eat(v);
    }
    eat(&s.dt_hist);
    eat(&[s.time, s.istep as f64]);
    h
}

/// Median of a non-empty sample.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of a non-empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Time one set-up: case construction, `Simulation::new`, pool and
/// initial condition, until every rank is ready. The simulation is
/// dropped again.
fn timed_setup(spec: &Spec, seed: u64, comm: &dyn Communicator, pool: &WorkerPool) -> f64 {
    comm.barrier();
    let t0 = Instant::now();
    let case = spec.case(spec.ranks);
    let my = case.elems[comm.rank()].clone();
    let mut sim = Simulation::new(spec.config(seed), &case.mesh, &case.part, my, comm);
    sim.set_pool(pool);
    sim.init_rbc();
    comm.barrier();
    t0.elapsed().as_secs_f64()
}

/// Everything one rank does: set up, warm up, timed rounds, then the
/// correctness gate (and, on traced runs, the per-layer probes).
///
/// `build` constructs the case and the `Simulation` the run keeps
/// (collectively on multi-rank worlds).
pub fn drive<'a>(
    spec: &Spec,
    opts: &Options,
    comm: &dyn Communicator,
    build: &dyn Fn() -> Simulation<'a>,
) -> RankOutcome {
    let pool = WorkerPool::new(spec.threads);
    let mut gate = Gate::default();
    let mut setup_s = vec![timed_setup(spec, opts.seed, comm, &pool)];
    let mut sim = build();
    sim.set_pool(&pool);
    let tel = Telemetry::enabled();
    if opts.trace {
        sim.set_telemetry(&tel);
        tel.set_enabled(false);
    }

    // ---- warm-up: one snapshot per trajectory ------------------------------
    let snapshots: Vec<Snapshot> = (0..spec.ensemble)
        .map(|j| {
            sim.cfg.seed = spec.sub_seed(opts.seed, j);
            sim.state = FlowState::new(sim.n_local());
            sim.reset_projection();
            sim.init_rbc();
            for _ in 0..spec.warm_steps {
                gate.step(&sim.step());
            }
            Snapshot::take(&sim)
        })
        .collect();

    // ---- timed rounds --------------------------------------------------------
    let mut encoder = (spec.sample_every > 0)
        .then(|| AsyncFieldCompressor::new(&sim.geom, spec.order + 1, SAMPLE_CONFIG));
    // Originals of the samples still in the encoder (at most two), keyed
    // by submit index; each is checked and dropped when its encoding lands.
    let mut originals: Vec<(u64, Vec<f64>)> = Vec::new();
    let mut encoded: Vec<CompressedField> = Vec::new();
    let mut samples = Vec::new();
    let mut sample_id = 0u64;
    let basis = rbx::basis::ModalBasis::new(spec.order + 1);
    // (path, digest of the state written) for every checkpoint.
    let mut checkpoints: Vec<(PathBuf, u64)> = Vec::new();

    let mut steps = Vec::new();
    let mut finals: Vec<Finals> = Vec::new();
    let mut span_ledger = SpanLedger::default();
    let pool_before = pool.stats();
    let t_start = Instant::now();
    let mut round = 0usize;
    loop {
        // Traced runs alternate traced and untraced rounds.
        let traced = opts.trace && round.is_multiple_of(2);
        tel.set_enabled(traced);
        let spans_before = if traced {
            span_seconds(&tel)
        } else {
            Vec::new()
        };
        for (j, snapshot) in snapshots.iter().enumerate() {
            snapshot.restore(&mut sim);
            let dir = opts.out_dir.join(format!("r{round:04}-t{j:02}"));
            let set = CheckpointSet::new(dir, usize::MAX);
            for k in 1..=spec.episode_steps {
                let t0 = Instant::now();
                let st = sim.step();
                let step_s = t0.elapsed().as_secs_f64();
                let wrote = (spec.checkpoint_every > 0 && k.is_multiple_of(spec.checkpoint_every))
                    .then(|| set.write(&sim));
                let mut submitted = None;
                if let Some(enc) = encoder.as_mut() {
                    if k.is_multiple_of(spec.sample_every) {
                        let field = &sim.state.t;
                        submitted =
                            Some(enc.try_submit(sample_id, sim.state.time, "temperature", field));
                    }
                    while let Some(done) = enc.poll() {
                        encoded.push(done);
                    }
                }
                let iter_s = t0.elapsed().as_secs_f64();

                // Bookkeeping and checks, outside the timed iteration.
                gate.step(&st);
                match wrote {
                    Some(Ok(path)) => {
                        gate.check(true, String::new);
                        checkpoints.push((path, state_digest(&sim)));
                    }
                    Some(Err(e)) => gate.check(false, || format!("checkpoint write failed: {e}")),
                    None => {}
                }
                if let Some(accepted) = submitted {
                    gate.check(accepted, || {
                        format!("sample {sample_id} dropped: encoder busy")
                    });
                    if accepted {
                        originals.push((sample_id, sim.state.t.clone()));
                    }
                    sample_id += 1;
                }
                for done in encoded.drain(..) {
                    check_sample(&done, &mut originals, &basis, &sim, &mut gate, &mut samples);
                }
                steps.push(StepRecord {
                    iter_s,
                    step_s,
                    phases: sim.timers.last_step_seconds(),
                    p_iters: st.p_iters,
                    pcg_iters: st.v_iters.iter().sum::<usize>() + st.t_iters,
                    traj: j,
                    traced,
                });
            }
            // Every episode of a trajectory replays it: its end state must
            // be bitwise the first episode's.
            let end = Finals::of(&sim);
            if round == 0 {
                finals.push(end);
            }
            let first = finals[j];
            gate.check(first.bits() == end.bits(), || {
                format!("round {round}, trajectory {j} ended on {end:?}, round 0 on {first:?}")
            });
            setup_s.push(timed_setup(spec, opts.seed, comm, &pool));
        }
        if traced {
            let steps = spec.ensemble * spec.episode_steps;
            span_ledger.add_delta(&spans_before, &span_seconds(&tel), steps);
        }
        round += 1;
        // Collective stop decision; traced runs end on an untraced round so
        // both halves of the overhead comparison are populated.
        let done = t_start.elapsed().as_secs_f64() >= opts.seconds
            && (!opts.trace || round.is_multiple_of(2));
        if allreduce_scalar_max(comm, if done { 1.0 } else { 0.0 }) > 0.0 {
            break;
        }
    }
    let pool_after = pool.stats();
    let dispatches = pool_after.dispatches - pool_before.dispatches;
    let grained = pool_after.grained - pool_before.grained;
    tel.set_enabled(false);

    // ---- correctness: the samples still in flight --------------------------
    let mut samples_dropped = 0;
    if let Some(enc) = encoder.take() {
        let (rest, stats) = enc.finish();
        samples_dropped = stats.busy_dropped;
        for done in &rest {
            check_sample(done, &mut originals, &basis, &sim, &mut gate, &mut samples);
        }
        for (id, _) in &originals {
            gate.check(false, || {
                format!("sample {id} was accepted but never encoded")
            });
        }
    }

    // ---- correctness: checkpoints read back bitwise -------------------------
    if !checkpoints.is_empty() {
        let mut fresh = build();
        for (path, digest) in &checkpoints {
            let read = read_checkpoint(&mut fresh, path).map(|()| state_digest(&fresh));
            gate.check(matches!(read, Ok(d) if d == *digest), || match read {
                Ok(_) => format!("{}: read back different bits", path.display()),
                Err(e) => format!("{}: read back failed: {e}", path.display()),
            });
        }
    }

    let layers = opts
        .trace
        .then(|| probe(spec, opts, &sim, &pool, &steps, &span_ledger));
    RankOutcome {
        setup_s,
        steps,
        dispatches,
        grained,
        gate,
        finals,
        samples,
        samples_dropped,
        layers,
    }
}

/// Check one finished encoding against its original: it must decompress
/// within `SAMPLE_TOLERANCE` × the error bound.
fn check_sample(
    done: &CompressedField,
    originals: &mut Vec<(u64, Vec<f64>)>,
    basis: &rbx::basis::ModalBasis,
    sim: &Simulation<'_>,
    gate: &mut Gate,
    samples: &mut Vec<(f64, f64)>,
) {
    let id = done.step;
    let Some(pos) = originals.iter().position(|(i, _)| *i == id) else {
        gate.check(false, || format!("sample {id} encoded but never submitted"));
        return;
    };
    let (_, original) = originals.swap_remove(pos);
    let recon = decompress_field(&done.compressed, basis);
    let err = weighted_l2_error(&original, &recon, &sim.geom.mass);
    let bound = SAMPLE_CONFIG.error_bound;
    gate.check(err <= SAMPLE_TOLERANCE * bound, || {
        format!("sample {id}: error {err:.4e} over {SAMPLE_TOLERANCE} x bound {bound}")
    });
    samples.push((done.compressed.ratio(), err / bound));
}
