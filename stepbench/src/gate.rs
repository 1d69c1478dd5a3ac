//! The correctness gate: counts operations attempted and failed, keeps
//! the first few failure messages, and checks the final observables
//! against the recorded reference values.

use crate::workload::Finals;
use rbx::core::sim::StepStats;
use rbx::core::StepVerdict;
use rbx::telemetry::json::Value;

/// Failure messages kept for the report (the counts are exact).
const KEEP_MESSAGES: usize = 8;

#[derive(Default, Debug, Clone)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Gate {
    /// Count one operation; a failure keeps `msg()`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < KEEP_MESSAGES {
                self.messages.push(msg());
            }
        }
    }

    /// A step passes when every solve converged and the verdict is
    /// `Healthy`.
    pub fn step(&mut self, st: &StepStats) {
        let ok = st.converged && matches!(st.verdict, StepVerdict::Healthy);
        self.check(ok, || {
            format!(
                "step not healthy: verdict {:?}, converged {}, p_iters {}",
                st.verdict, st.converged, st.p_iters
            )
        });
    }

    pub fn merge(&mut self, other: &Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in &other.messages {
            if self.messages.len() < KEEP_MESSAGES {
                self.messages.push(m.clone());
            }
        }
    }
}

/// Reference values of one workload, from `reference.json`.
pub struct Reference {
    /// Wall Nusselt number at both plates (seed-independent: the flow is
    /// still conductive at the plates this early).
    pub nu: f64,
    pub nu_tol: f64,
    /// Per run seed, the final kinetic energy of every trajectory, for the
    /// seeds that were recorded.
    pub ke_by_seed: Vec<(u64, Vec<f64>)>,
    pub ke_rel_tol: f64,
    /// Band every trajectory's kinetic energy must fall in.
    pub ke_band: (f64, f64),
}

impl Reference {
    /// Load the entry for `workload` from the reference file text.
    pub fn parse(text: &str, workload: &str) -> Result<Self, String> {
        let root = Value::parse(text).map_err(|e| format!("reference.json: {e}"))?;
        let w = root
            .get("workloads")
            .and_then(|w| w.get(workload))
            .ok_or_else(|| format!("reference.json has no entry for {workload}"))?;
        let num = |key: &str| {
            w.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("reference.json: {workload}.{key} missing"))
        };
        let ke_by_seed = w
            .get("ke_by_seed")
            .and_then(Value::as_obj)
            .ok_or_else(|| format!("reference.json: {workload}.ke_by_seed missing"))?
            .iter()
            .filter_map(|(k, v)| {
                let kes = v
                    .as_arr()?
                    .iter()
                    .map(Value::as_f64)
                    .collect::<Option<_>>()?;
                Some((k.parse().ok()?, kes))
            })
            .collect();
        Ok(Reference {
            nu: num("nu")?,
            nu_tol: num("nu_tol")?,
            ke_by_seed,
            ke_rel_tol: num("ke_rel_tol")?,
            ke_band: (num("ke_min")?, num("ke_max")?),
        })
    }

    /// Check the final observables of every trajectory of run seed
    /// `seed`; returns a description of which references were applied.
    pub fn check(&self, seed: u64, finals: &[Finals], gate: &mut Gate) -> String {
        let recorded = self.ke_by_seed.iter().find(|(s, _)| *s == seed);
        gate.check(
            recorded.is_none_or(|(_, kes)| kes.len() == finals.len()),
            || format!("seed {seed}: reference has a different ensemble size"),
        );
        for (j, f) in finals.iter().enumerate() {
            for (plate, nu) in [("hot", f.nu_hot), ("cold", f.nu_cold)] {
                gate.check((nu - self.nu).abs() <= self.nu_tol, || {
                    format!(
                        "trajectory {j}: {plate}-plate Nu {nu:.9} off reference {} ± {}",
                        self.nu, self.nu_tol
                    )
                });
            }
            let (lo, hi) = self.ke_band;
            gate.check(f.ke >= lo && f.ke <= hi, || {
                format!(
                    "trajectory {j}: kinetic energy {:.6e} outside [{lo:.3e}, {hi:.3e}]",
                    f.ke
                )
            });
            if let Some(&ke) = recorded.and_then(|(_, kes)| kes.get(j)) {
                let rel = (f.ke - ke).abs() / ke;
                gate.check(rel <= self.ke_rel_tol, || {
                    format!(
                        "trajectory {j}: kinetic energy {:.9e} off reference {ke:.9e} (rel {rel:.2e})",
                        f.ke
                    )
                });
            }
        }
        match recorded {
            Some(_) => format!(
                "Nu, KE band and the recorded KE of seed {seed} (rel tol {:.0e})",
                self.ke_rel_tol
            ),
            None => format!("Nu and KE band (seed {seed} has no recorded KE)"),
        }
    }
}
