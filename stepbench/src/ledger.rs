//! The metric ledger: every metric the benchmark reports, its unit, which
//! direction is better, and — for per-layer metrics — the end-to-end
//! metric and workload it should move.
//!
//! `BENCHMARK.json` lists the same names; `run.py` refuses a run whose
//! metric set differs from it, so the two cannot drift apart silently.

use rbx::telemetry::json::Value;

/// One ledger row.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// The end-to-end metric (and workload) this layer should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        moves,
    }
}

/// End-to-end metrics (printed with `--trace 0`).
pub const END_TO_END: &[Metric] = &[
    m(
        "step_ms",
        "ms",
        "lower",
        "headline: time per step at fixed dt (median episode)",
    ),
    m(
        "step_ms_p90",
        "ms",
        "lower",
        "tail of the per-step wall time (median round)",
    ),
    m(
        "setup_s",
        "s",
        "lower",
        "case construction until the first step is ready",
    ),
    m(
        "peak_rss_mb",
        "MiB",
        "lower",
        "process memory high-water mark",
    ),
];

const P7: &str = "step_ms on box_p7_e27";
const CYL: &str = "step_ms on cyl_p5_r2_io";
const PRESSURE: &str = "core.pressure_ms on cyl_p5_r2_io";

/// Span paths whose per-step self time the traced run reports, as
/// `span.<path with '/' → '.'>_ms`. These are the spans the solver
/// already records (step phases, Schwarz sub-stages, pool kernels).
/// Left out: `schwarz/fdm`, `gs/local` and `gs/scatter`, which a solver
/// with a worker pool — every workload here — records as `pool/fdm` and
/// `pool/gs`; and `gs/shared`, which a single-rank workload never records,
/// so it would read exactly zero there (the cylinder's exchange shows in
/// `gs.apply_us` and `comm.allreduce_us`).
pub const SPANS: &[&str] = &[
    "step/pressure",
    "step/velocity",
    "step/temperature",
    "step/other",
    "schwarz/coarse",
    "schwarz/coarse/restrict",
    "schwarz/coarse/solve",
    "schwarz/coarse/prolong",
    "schwarz/gs",
    "pool/helmholtz",
    "pool/dot",
    "pool/advect",
    "pool/fdm",
    "pool/gs",
];

/// Per-layer metrics (printed with `--trace 1`), spans excluded (see
/// [`span_metric_name`]).
pub const PER_LAYER: &[Metric] = &[
    // core: the paper's Fig. 4 split, per step.
    m("core.pressure_ms", "ms", "lower", CYL),
    m("core.velocity_ms", "ms", "lower", P7),
    m("core.temperature_ms", "ms", "lower", P7),
    m("core.other_ms", "ms", "lower", P7),
    m("core.gap_ms", "ms", "lower", "step_ms on every workload"),
    m(
        "core.advect_ms",
        "ms",
        "lower",
        "core.other_ms and step_ms on box_p7_e27",
    ),
    m(
        "core.timed_steps",
        "count",
        "higher",
        "untraced steps behind the core.* split",
    ),
    // la: Krylov counts, the replayed pressure solve, kernels.
    m("la.fgmres_iters", "count", "lower", PRESSURE),
    m("la.pcg_iters", "count", "lower", P7),
    m("la.fgmres.op_ms", "ms", "lower", PRESSURE),
    m("la.fgmres.precond_ms", "ms", "lower", PRESSURE),
    m("la.fgmres.self_ms", "ms", "lower", PRESSURE),
    m("la.schwarz_us", "us", "lower", PRESSURE),
    m("la.schwarz_overlapped_us", "us", "lower", PRESSURE),
    m("la.coarse_solve_us", "us", "lower", PRESSURE),
    m("la.coarse_correct_us", "us", "lower", PRESSURE),
    m(
        "la.fdm_us",
        "us",
        "lower",
        "core.pressure_ms on cyl_p5_r2_io; step_ms on box_p7_e27",
    ),
    m(
        "la.helmholtz_us",
        "us",
        "lower",
        "core.pressure_ms on cyl_p5_r2_io; step_ms on box_p7_e27",
    ),
    m("la.dot_us", "us", "lower", PRESSURE),
    // Roofline column: computed bytes, achieved bandwidth, share of triad.
    m(
        "la.helmholtz.mb",
        "MB",
        "lower",
        "roofline: bytes per Helmholtz apply (rbx-perf model)",
    ),
    m(
        "la.helmholtz.gbs",
        "GB/s",
        "higher",
        "roofline: la.helmholtz_us",
    ),
    m(
        "la.helmholtz.roof_frac",
        "ratio",
        "higher",
        "roofline: la.helmholtz.gbs / device.triad_gbs",
    ),
    m(
        "la.fdm.mb",
        "MB",
        "lower",
        "roofline: bytes per FDM sweep (rbx-perf model)",
    ),
    m("la.fdm.gbs", "GB/s", "higher", "roofline: la.fdm_us"),
    m(
        "la.fdm.roof_frac",
        "ratio",
        "higher",
        "roofline: la.fdm.gbs / device.triad_gbs",
    ),
    m(
        "gs.apply.mb",
        "MB",
        "lower",
        "roofline: bytes per gather-scatter apply",
    ),
    m("gs.apply.gbs", "GB/s", "higher", "roofline: gs.apply_us"),
    m(
        "gs.apply.roof_frac",
        "ratio",
        "higher",
        "roofline: gs.apply.gbs / device.triad_gbs",
    ),
    // gs and comm.
    m("gs.apply_us", "us", "lower", CYL),
    m("gs.shared_values", "count", "lower", CYL),
    m("gs.neighbors", "count", "lower", CYL),
    m("comm.allreduce_us", "us", "lower", CYL),
    m(
        "comm.imbalance",
        "ratio",
        "lower",
        "step_ms_p90 on cyl_p5_r2_io",
    ),
    // device: pool counters, host bandwidth, the single-thread baseline.
    m("device.dispatches_per_step", "count", "lower", P7),
    m("device.grained_per_step", "count", "higher", P7),
    m(
        "device.triad_gbs",
        "GB/s",
        "higher",
        "host bandwidth: the roofline ceiling",
    ),
    m(
        "device.serial_step_ms",
        "ms",
        "lower",
        "baseline: one rank on a 1-thread pool",
    ),
    // in-situ compression.
    m("compress.sample_ms", "ms", "lower", CYL),
    m("compress.ratio", "ratio", "lower", CYL),
    m(
        "compress.error_frac",
        "ratio",
        "lower",
        "sample error / bound (worst sample); correctness, not speed",
    ),
    m("compress.dropped", "count", "lower", CYL),
    // checkpoint I/O.
    m(
        "io.checkpoint_write_ms",
        "ms",
        "lower",
        "step_ms and step_ms_p90 on cyl_p5_r2_io",
    ),
    m(
        "io.checkpoint_read_ms",
        "ms",
        "lower",
        "restart time on cyl_p5_r2_io",
    ),
    m(
        "io.checkpoint_mb",
        "MB",
        "lower",
        "step_ms and step_ms_p90 on cyl_p5_r2_io",
    ),
    // set-up breakdown.
    m("setup.mesh_s", "s", "lower", "setup_s on box_p7_e27"),
    m("setup.gs_build_s", "s", "lower", "setup_s on box_p7_e27"),
    m(
        "setup.coarse_build_s",
        "s",
        "lower",
        "setup_s on box_p7_e27",
    ),
    m("setup.fdm_build_s", "s", "lower", "setup_s on box_p7_e27"),
    m("setup.sim_new_s", "s", "lower", "setup_s on box_p7_e27"),
    // observability cost.
    m(
        "telemetry.overhead_pct",
        "%",
        "lower",
        "none: the cost of tracing itself",
    ),
];

/// Ledger name of a span path: `schwarz/coarse/solve` →
/// `span.schwarz.coarse.solve_ms`.
pub fn span_metric_name(path: &str) -> String {
    format!("span.{}_ms", path.replace('/', "."))
}

/// What a span's self time should move, by its top-level component.
pub fn span_moves(path: &str) -> &'static str {
    match path {
        "step/pressure" => CYL,
        "pool/advect" => "core.other_ms and step_ms on box_p7_e27",
        "pool/fdm" => PRESSURE,
        _ if path.starts_with("schwarz/") => PRESSURE,
        _ => P7,
    }
}

/// The ledger as JSON, in `BENCHMARK.json`'s shape (`run.py` compares
/// the two).
pub fn ledger_json() -> Value {
    let row = |name: String, unit: &str, better: &str| {
        Value::obj([
            ("name", Value::str(name)),
            ("unit", Value::str(unit)),
            ("better", Value::str(better)),
        ])
    };
    let end_to_end = END_TO_END
        .iter()
        .map(|m| row(m.name.into(), m.unit, m.better));
    let per_layer = PER_LAYER
        .iter()
        .map(|m| row(m.name.into(), m.unit, m.better))
        .chain(
            SPANS
                .iter()
                .map(|p| row(span_metric_name(p), "ms", "lower")),
        );
    Value::obj([
        ("end_to_end", Value::arr(end_to_end)),
        ("per_layer", Value::arr(per_layer)),
    ])
}

/// Measured values, in ledger order, ready to print.
#[derive(Default)]
pub struct Report {
    rows: Vec<(String, f64, &'static str, String)>,
}

impl Report {
    /// Record a metric; `name` must be in the ledger.
    pub fn set(&mut self, name: &str, value: f64) {
        let row = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|m| m.name == name)
            .map(|m| (m.unit, m.moves.to_string()));
        let (unit, moves) = match row {
            Some(r) => r,
            None if name.starts_with("span.") => ("ms", String::new()),
            None => panic!("metric {name} is not in the ledger"),
        };
        self.rows.push((name.to_string(), value, unit, moves));
    }

    /// Record a span self time.
    pub fn set_span(&mut self, path: &str, ms: f64) {
        self.rows.push((
            span_metric_name(path),
            ms,
            "ms",
            span_moves(path).to_string(),
        ));
    }

    /// Human-readable table: metric, value, unit, and what it should move.
    pub fn print_table(&self, title: &str) {
        println!("{title}");
        println!(
            "  {:<34} {:>14} {:<6} should move",
            "metric", "value", "unit"
        );
        for (name, value, unit, moves) in &self.rows {
            println!("  {name:<34} {value:>14.6} {unit:<6} → {moves}");
        }
    }

    /// `{"name": {"value": v, "unit": u}, ...}`.
    pub fn to_json(&self) -> Value {
        Value::Obj(
            self.rows
                .iter()
                .map(|(name, value, unit, _)| {
                    (
                        name.clone(),
                        Value::obj([("value", Value::num(*value)), ("unit", Value::str(*unit))]),
                    )
                })
                .collect(),
        )
    }
}
