//! End-to-end evaluation: compile a benchmark, run it under the error
//! model, report fidelity. This is the pipeline behind Figures 20–25.
//!
//! Following the paper's evaluation, an n-qubit benchmark runs on the
//! smallest sub-grid of the 3×4 device that holds it ([`device_for`]):
//! 4 → 2×2, 6 → 2×3, 9 → 3×3, 12 → 3×4 — visible in Figure 25, whose
//! baseline (#couplings of the device) grows with benchmark size.

use std::fmt;

use zz_circuit::bench::{generate, BenchmarkKind};
use zz_sim::density::{Decoherence, EXACT_MAX_QUBITS};
use zz_sim::executor::{run_density, ZzErrorModel};
use zz_sim::program::{PlanProgram, TrajectoryProgram};
use zz_topology::Topology;

use crate::batch::{parallel_map, BatchCompiler, BatchJob, BatchReport};
use crate::{CoOptError, CoOptimizer, Compiled, PulseMethod, SchedulerKind};

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

/// The typed failure set of a suite evaluation: every compile job that
/// errored, with its label. Carried by [`try_suite_fidelities`] (and
/// wrapped into the service layer's `Error::Eval`) instead of silently
/// folding failed jobs in as fidelity 0.0.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SuiteError {
    /// `(job label, compile error)` for every failed job, in submission
    /// order.
    pub failures: Vec<(String, CoOptError)>,
}

impl fmt::Display for SuiteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} compile job(s) failed: [", self.failures.len())?;
        for (i, (label, err)) in self.failures.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{label}: {err}")?;
        }
        write!(f, "]")
    }
}

impl std::error::Error for SuiteError {}

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
    /// Seed for benchmark-circuit generation.
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

/// Compiles benchmark `kind`-`n` under `(method, scheduler)` on the
/// benchmark's evaluation device.
///
/// # Errors
///
/// Returns [`CoOptError::CircuitTooLarge`] when `n` exceeds
/// [`MAX_EVAL_QUBITS`] (paper benchmarks are otherwise sized to their
/// devices, so the error path only fires for out-of-range sizes).
pub fn compile_benchmark(
    kind: BenchmarkKind,
    n: usize,
    method: PulseMethod,
    scheduler: SchedulerKind,
    cfg: &EvalConfig,
) -> Result<Compiled, CoOptError> {
    let device = try_device_for(n).ok_or(CoOptError::CircuitTooLarge {
        needed: n,
        available: MAX_EVAL_QUBITS,
    })?;
    let circuit = generate(kind, n, cfg.circuit_seed);
    CoOptimizer::builder()
        .topology(device)
        .pulse_method(method)
        .scheduler(scheduler)
        .build()
        .compile(&circuit)
}

/// Mean output-state fidelity of a compiled plan over the config's
/// crosstalk samples (and decoherence, when enabled).
///
/// The ideal reference state is computed once and reused across all
/// crosstalk seeds; each seed's noisy execution runs through the
/// precompiled programs of [`zz_sim::program`].
///
/// Monte-Carlo trajectories run sequentially here: every in-repo caller
/// ([`try_suite_fidelities`], the service layer's workers) already fans
/// evaluations
/// over a full-width [`parallel_map`] at the job level, and nesting a
/// second full-width pool per seed would oversubscribe the machine
/// quadratically. For a standalone parallel fan, call
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

/// Convenience: compile and evaluate in one call — the quantity plotted in
/// Figures 20, 21 and 23.
///
/// # Errors
///
/// Propagates [`compile_benchmark`]'s [`CoOptError`].
pub fn benchmark_fidelity(
    kind: BenchmarkKind,
    n: usize,
    method: PulseMethod,
    scheduler: SchedulerKind,
    cfg: &EvalConfig,
) -> Result<f64, CoOptError> {
    let compiled = compile_benchmark(kind, n, method, scheduler, cfg)?;
    Ok(fidelity_of(&compiled, cfg))
}

/// One benchmark-suite case: a benchmark instance × compile configuration.
pub type SuiteCase = (BenchmarkKind, usize, PulseMethod, SchedulerKind);

/// Compiles a whole suite of cases through one shared [`BatchCompiler`]
/// (each job runs the pass pipeline of [`crate::pipeline`]): calibration
/// runs at most once per pulse method, and cases that share a benchmark
/// instance (same kind and size) are generated once and routed once (the
/// circuit itself is shared via [`BatchJob::shared`], the translation via
/// the compiler's shared [`crate::pipeline::RouteMemo`]).
///
/// When the `ZZ_CACHE_DIR` environment variable names a cache directory,
/// the compiler is additionally backed by an on-disk
/// [`zz_persist::ArtifactStore`], so a second run of the same suite — in
/// a new process — skips calibration and routing entirely.
///
/// This is the compile stage behind Figures 20–25; the figure binaries
/// feed the report into [`try_suite_fidelities`] and print its [`Display`]
/// form (one summary line plus the per-stage timing breakdown aggregated
/// from the jobs' pipeline traces).
///
/// [`Display`]: std::fmt::Display
pub fn compile_suite(cases: &[SuiteCase], cfg: &EvalConfig) -> BatchReport {
    let mut instances: std::collections::HashMap<(BenchmarkKind, usize), std::sync::Arc<_>> =
        std::collections::HashMap::new();
    let jobs: Vec<BatchJob> = cases
        .iter()
        .map(|&(kind, n, method, scheduler)| {
            let circuit = instances
                .entry((kind, n))
                .or_insert_with(|| std::sync::Arc::new(generate(kind, n, cfg.circuit_seed)));
            // An out-of-range size gets the largest paper device: the job
            // then fails validation with a typed CircuitTooLarge in the
            // report (surfaced by try_suite_fidelities) instead of
            // panicking the whole suite here.
            let device = try_device_for(n).unwrap_or_else(|| device_for(MAX_EVAL_QUBITS));
            BatchJob::shared(std::sync::Arc::clone(circuit), method, scheduler)
                .with_topology(device)
                .with_label(format!("{kind}-{n}/{method}+{scheduler}"))
        })
        .collect();
    BatchCompiler::builder().store_from_env().build().run(jobs)
}

/// Evaluates every compiled job of a suite report in parallel, preserving
/// order.
///
/// Failed compile jobs are an error, not a data point: they used to map to
/// fidelity 0.0, which silently dragged suite averages (and the figure
/// tables built from them) down with no signal that anything went wrong.
/// Now every failed job is reported with its label — as a typed
/// [`SuiteError`] listing all failures, so callers can decide whether to
/// abort or re-slice the suite.
///
/// # Errors
///
/// Returns [`SuiteError`] when any job in the report failed to compile.
pub fn try_suite_fidelities(
    report: &BatchReport,
    cfg: &EvalConfig,
) -> Result<Vec<f64>, SuiteError> {
    let failures: Vec<(String, CoOptError)> = report
        .outcomes
        .iter()
        .filter_map(|o| {
            o.result
                .as_ref()
                .err()
                .map(|e| (o.label.clone(), e.clone()))
        })
        .collect();
    if !failures.is_empty() {
        return Err(SuiteError { failures });
    }
    let threads = crate::batch::default_threads();
    Ok(parallel_map(report.outcomes.len(), threads, |i| {
        let compiled = report.outcomes[i]
            .result
            .as_ref()
            .expect("failures were filtered above");
        fidelity_of(compiled, cfg)
    }))
}

/// [`try_suite_fidelities`] for harness code that genuinely wants
/// abort-on-failure — suites whose benchmarks are statically sized to
/// their devices.
///
/// # Panics
///
/// Panics with the failing jobs' labels if any compile job errored
/// (instead of silently folding them in as fidelity 0.0).
pub fn suite_fidelities_or_panic(report: &BatchReport, cfg: &EvalConfig) -> Vec<f64> {
    try_suite_fidelities(report, cfg)
        .unwrap_or_else(|failures| panic!("suite evaluation aborted: {failures}"))
}

/// Compile-and-evaluate for a whole suite: [`compile_suite`] followed by
/// [`try_suite_fidelities`]. Equivalent to mapping [`benchmark_fidelity`]
/// over `cases`, but compiles on a worker pool with shared
/// calibration/routing caches.
///
/// **Legacy adapter.** The service layer expresses the same workload as
/// `CompileRequest`s with an eval spec submitted to a `Session`
/// (`tests/service.rs` pins the two bit-identical).
///
/// # Errors
///
/// Returns [`SuiteError`] when any case failed to compile.
pub fn benchmark_suite_fidelities(
    cases: &[SuiteCase],
    cfg: &EvalConfig,
) -> Result<Vec<f64>, SuiteError> {
    try_suite_fidelities(&compile_suite(cases, cfg), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> EvalConfig {
        EvalConfig {
            crosstalk_seeds: vec![11],
            ..EvalConfig::paper_default()
        }
    }

    /// With no seeds the mean would be `0/0`: a clear panic, not NaN.
    #[test]
    #[should_panic(expected = "no crosstalk seeds")]
    fn fidelity_of_rejects_an_empty_seed_list() {
        let cfg = small_cfg();
        let compiled = compile_benchmark(
            BenchmarkKind::Qft,
            4,
            PulseMethod::Gaussian,
            SchedulerKind::ParSched,
            &cfg,
        )
        .expect("fits");
        fidelity_of(
            &compiled,
            &EvalConfig {
                crosstalk_seeds: Vec::new(),
                ..cfg
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
        let base = benchmark_fidelity(
            BenchmarkKind::Qft,
            4,
            PulseMethod::Gaussian,
            SchedulerKind::ParSched,
            &cfg,
        )
        .expect("fits");
        let ours = benchmark_fidelity(
            BenchmarkKind::Qft,
            4,
            PulseMethod::Pert,
            SchedulerKind::ZzxSched,
            &cfg,
        )
        .expect("fits");
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
                let f = benchmark_fidelity(BenchmarkKind::HiddenShift, 4, method, sched, &cfg)
                    .expect("fits");
                assert!((0.0..=1.0 + 1e-9).contains(&f), "{method}+{sched}: {f}");
            }
        }
    }

    #[test]
    fn failed_compiles_are_surfaced_not_zeroed() {
        use crate::batch::{BatchCompiler, BatchJob};
        let cfg = small_cfg();
        // A 6-qubit circuit on a 4-qubit device: the compile job must fail,
        // and the failure must carry the job's label instead of silently
        // averaging in as fidelity 0.0.
        let big = generate(BenchmarkKind::Qft, 6, 1);
        let jobs = vec![
            BatchJob::new(big, PulseMethod::Gaussian, SchedulerKind::ParSched)
                .with_label("qft-6-on-2x2"),
        ];
        let report = BatchCompiler::builder()
            .topology(Topology::grid(2, 2))
            .build()
            .run(jobs);
        assert_eq!(report.error_count(), 1);
        let err = try_suite_fidelities(&report, &cfg).unwrap_err();
        assert_eq!(err.failures.len(), 1);
        assert_eq!(err.failures[0].0, "qft-6-on-2x2");
        let msg = err.to_string();
        assert!(msg.contains("qft-6-on-2x2"), "label missing from: {msg}");
        assert!(msg.contains("6 qubits"), "cause missing from: {msg}");
    }

    #[test]
    #[should_panic(expected = "qft-6-on-2x2")]
    fn suite_fidelities_panics_with_the_failing_label() {
        use crate::batch::{BatchCompiler, BatchJob};
        let big = generate(BenchmarkKind::Qft, 6, 1);
        let jobs = vec![
            BatchJob::new(big, PulseMethod::Gaussian, SchedulerKind::ParSched)
                .with_label("qft-6-on-2x2"),
        ];
        let report = BatchCompiler::builder()
            .topology(Topology::grid(2, 2))
            .build()
            .run(jobs);
        let _ = suite_fidelities_or_panic(&report, &small_cfg());
    }

    #[test]
    fn oversized_suite_cases_error_typed_instead_of_panicking() {
        let cfg = small_cfg();
        let err = benchmark_suite_fidelities(
            &[(
                BenchmarkKind::Qft,
                13,
                PulseMethod::Gaussian,
                SchedulerKind::ParSched,
            )],
            &cfg,
        )
        .unwrap_err();
        assert_eq!(err.failures.len(), 1);
        assert_eq!(
            err.failures[0].1,
            CoOptError::CircuitTooLarge {
                needed: 13,
                available: MAX_EVAL_QUBITS
            }
        );
    }

    #[test]
    fn decoherence_lowers_fidelity() {
        let cfg = small_cfg();
        let clean = benchmark_fidelity(
            BenchmarkKind::Ising,
            4,
            PulseMethod::Pert,
            SchedulerKind::ZzxSched,
            &cfg,
        )
        .expect("fits");
        let noisy_cfg = small_cfg().with_decoherence_us(50.0, 80);
        let noisy = benchmark_fidelity(
            BenchmarkKind::Ising,
            4,
            PulseMethod::Pert,
            SchedulerKind::ZzxSched,
            &noisy_cfg,
        )
        .expect("fits");
        assert!(noisy < clean + 1e-9, "decoherence {noisy} vs clean {clean}");
    }
}
