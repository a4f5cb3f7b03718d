//! End-to-end evaluation: run a compiled plan under the error model and
//! report its fidelity. This is the scoring stage behind Figures 20–25;
//! `zz_service::Session` runs it for requests that carry an eval spec.
//!
//! Following the paper's evaluation, an n-qubit benchmark runs on the
//! smallest sub-grid of the 3×4 device that holds it ([`device_for`]):
//! 4 → 2×2, 6 → 2×3, 9 → 3×3, 12 → 3×4 — visible in Figure 25, whose
//! baseline (#couplings of the device) grows with benchmark size.

use zz_sim::density::{Decoherence, EXACT_MAX_QUBITS};
use zz_sim::executor::{run_density, ZzErrorModel};
use zz_sim::program::{PlanProgram, TrajectoryProgram};
use zz_topology::Topology;

use crate::Compiled;

/// The largest evaluation device of the paper (the 3×4 grid).
pub const MAX_EVAL_QUBITS: usize = 12;

/// The smallest evaluation sub-grid holding `n` qubits, or `None` when
/// `n` exceeds the paper's largest device ([`MAX_EVAL_QUBITS`]).
///
/// The service layer's `Target::for_qubits` is the typed-error front for
/// this lookup.
pub fn try_device_for(n: usize) -> Option<Topology> {
    [(2, 2), (2, 3), (3, 3), (3, 4)]
        .into_iter()
        .find(|(rows, cols)| rows * cols >= n)
        .map(|(rows, cols)| Topology::grid(rows, cols))
}

/// The smallest evaluation sub-grid holding `n` qubits — the
/// abort-on-failure shim over [`try_device_for`] for harness code whose
/// sizes are static.
///
/// # Panics
///
/// Panics if `n > 12` (the paper's largest device).
///
/// # Example
///
/// ```
/// use zz_core::evaluate::device_for;
/// assert_eq!(device_for(6).qubit_count(), 6);   // 2×3
/// assert_eq!(device_for(7).qubit_count(), 9);   // 3×3
/// ```
pub fn device_for(n: usize) -> Topology {
    try_device_for(n).expect("the evaluation devices top out at 3x4 = 12 qubits")
}

/// Configuration of a fidelity evaluation run.
#[derive(Clone, Debug)]
pub struct EvalConfig {
    /// Mean crosstalk strength (rad/ns).
    pub lambda_mean: f64,
    /// Crosstalk standard deviation (rad/ns).
    pub lambda_std: f64,
    /// Seeds for the per-coupling strength samples; fidelities are averaged
    /// over them.
    pub crosstalk_seeds: Vec<u64>,
    /// Seed for benchmark-circuit generation. Evaluation does not read
    /// it: [`fidelity_of`] scores an already-compiled plan.
    pub circuit_seed: u64,
    /// Optional decoherence: `(model, trajectories, rng seed)`. Registers
    /// of up to [`EXACT_MAX_QUBITS`] qubits are evaluated exactly on
    /// density matrices; larger ones use Monte-Carlo trajectories.
    pub decoherence: Option<(Decoherence, usize, u64)>,
}

impl EvalConfig {
    /// The paper's setup: `λ ~ N(2π·200 kHz, (2π·50 kHz)²)`, averaged over
    /// 3 disorder samples, no decoherence.
    pub fn paper_default() -> Self {
        EvalConfig {
            lambda_mean: zz_sim::khz(200.0),
            lambda_std: zz_sim::khz(50.0),
            crosstalk_seeds: vec![11, 23, 37],
            circuit_seed: 7,
            decoherence: None,
        }
    }

    /// Adds decoherence (`T1 = T2 = t` µs) with the given trajectory count
    /// (used only above the exact-density-matrix register size).
    pub fn with_decoherence_us(mut self, t: f64, trajectories: usize) -> Self {
        self.decoherence = Some((Decoherence::equal_us(t), trajectories, 97));
        self
    }

    /// Checks that [`fidelity_of`] can evaluate this config: it needs at
    /// least one crosstalk seed to average over and, with decoherence, at
    /// least one Monte-Carlo trajectory. Callers that take a config from
    /// a request check here and return a typed error instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// A description of what is missing.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.crosstalk_seeds.is_empty() {
            return Err("eval spec has no crosstalk seeds to average over");
        }
        if matches!(self.decoherence, Some((_, 0, _))) {
            return Err("eval spec asks for decoherence with zero Monte-Carlo trajectories");
        }
        Ok(())
    }
}

/// Mean output-state fidelity of a compiled plan over the config's
/// crosstalk samples (and decoherence, when enabled).
///
/// The ideal reference state is computed once and reused across all
/// crosstalk seeds; each seed's noisy execution runs through the
/// precompiled programs of [`zz_sim::program`].
///
/// Monte-Carlo trajectories run sequentially here: every in-repo caller
/// (the service layer's workers, the figure binaries) already fans
/// evaluations over a full-width worker pool at the job level, and
/// nesting a second full-width pool per seed would oversubscribe the
/// machine quadratically. For a standalone parallel fan, call
/// [`zz_sim::executor::fidelity_with_decoherence`] directly.
///
/// # Panics
///
/// Panics if [`EvalConfig::validate`] rejects `cfg`: with no crosstalk
/// seeds the mean is `0/0`, and decoherence with zero trajectories has
/// nothing to average.
pub fn fidelity_of(compiled: &Compiled, cfg: &EvalConfig) -> f64 {
    if let Err(problem) = cfg.validate() {
        panic!("fidelity_of: {problem}");
    }
    let topo = &compiled.topology;
    let ideal = PlanProgram::ideal(&compiled.plan).run();
    let mut total = 0.0;
    for &seed in &cfg.crosstalk_seeds {
        let model = ZzErrorModel::sampled(topo, cfg.lambda_mean, cfg.lambda_std, seed)
            .with_residuals(compiled.residuals);
        total += match &cfg.decoherence {
            None => {
                let noisy =
                    PlanProgram::compile(&compiled.plan, topo, &model, &compiled.durations).run();
                ideal.fidelity(&noisy)
            }
            Some((deco, trajectories, mc_seed)) => {
                if compiled.plan.qubit_count() <= EXACT_MAX_QUBITS {
                    // Exact: density-matrix evolution.
                    let dm = run_density(&compiled.plan, topo, &model, deco, &compiled.durations);
                    dm.fidelity_to_pure(&ideal.to_vector())
                } else {
                    TrajectoryProgram::compile(
                        &compiled.plan,
                        topo,
                        &model,
                        deco,
                        &compiled.durations,
                    )
                    .mean_fidelity(&ideal, *trajectories, *mc_seed ^ seed, 1)
                }
            }
        };
    }
    total / cfg.crosstalk_seeds.len() as f64
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use zz_circuit::bench::{generate, BenchmarkKind};

    use super::*;
    use crate::{PassManager, PulseMethod, SchedulerKind};

    fn small_cfg() -> EvalConfig {
        EvalConfig {
            crosstalk_seeds: vec![11],
            ..EvalConfig::paper_default()
        }
    }

    /// Compiles benchmark `kind`-`n` on its paper sub-grid.
    fn compile(
        kind: BenchmarkKind,
        n: usize,
        method: PulseMethod,
        scheduler: SchedulerKind,
    ) -> Compiled {
        PassManager::builder()
            .topology(device_for(n))
            .pulse_method(method)
            .scheduler(scheduler)
            .build()
            .run(Arc::new(generate(kind, n, 7)))
            .expect("fits")
            .compiled
    }

    /// Compiles benchmark `kind`-`n` on its paper sub-grid and scores it.
    fn fidelity(
        kind: BenchmarkKind,
        n: usize,
        method: PulseMethod,
        scheduler: SchedulerKind,
        cfg: &EvalConfig,
    ) -> f64 {
        fidelity_of(&compile(kind, n, method, scheduler), cfg)
    }

    /// With no seeds the mean would be `0/0`: a clear panic, not NaN.
    #[test]
    #[should_panic(expected = "no crosstalk seeds")]
    fn fidelity_of_rejects_an_empty_seed_list() {
        let compiled = compile(
            BenchmarkKind::Qft,
            4,
            PulseMethod::Gaussian,
            SchedulerKind::ParSched,
        );
        fidelity_of(
            &compiled,
            &EvalConfig {
                crosstalk_seeds: Vec::new(),
                ..small_cfg()
            },
        );
    }

    #[test]
    fn device_selection_matches_the_paper() {
        assert_eq!(device_for(4).coupling_count(), 4); // 2×2
        assert_eq!(device_for(6).coupling_count(), 7); // 2×3
        assert_eq!(device_for(9).coupling_count(), 12); // 3×3
        assert_eq!(device_for(12).coupling_count(), 17); // 3×4
    }

    #[test]
    fn co_optimization_beats_the_baseline() {
        let cfg = small_cfg();
        let base = fidelity(
            BenchmarkKind::Qft,
            4,
            PulseMethod::Gaussian,
            SchedulerKind::ParSched,
            &cfg,
        );
        let ours = fidelity(
            BenchmarkKind::Qft,
            4,
            PulseMethod::Pert,
            SchedulerKind::ZzxSched,
            &cfg,
        );
        assert!(
            ours > base,
            "co-optimization ({ours}) must beat the baseline ({base})"
        );
    }

    #[test]
    fn fidelities_are_probabilities() {
        let cfg = small_cfg();
        for method in [PulseMethod::Gaussian, PulseMethod::Pert] {
            for sched in [SchedulerKind::ParSched, SchedulerKind::ZzxSched] {
                let f = fidelity(BenchmarkKind::HiddenShift, 4, method, sched, &cfg);
                assert!((0.0..=1.0 + 1e-9).contains(&f), "{method}+{sched}: {f}");
            }
        }
    }

    #[test]
    fn decoherence_lowers_fidelity() {
        let compiled = compile(
            BenchmarkKind::Ising,
            4,
            PulseMethod::Pert,
            SchedulerKind::ZzxSched,
        );
        let clean = fidelity_of(&compiled, &small_cfg());
        let noisy = fidelity_of(&compiled, &small_cfg().with_decoherence_us(50.0, 80));
        assert!(noisy < clean + 1e-9, "decoherence {noisy} vs clean {clean}");
    }
}
