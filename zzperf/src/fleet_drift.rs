//! `fleet-drift`: `Fleet::standard` under a drift walk — rounds of jobs
//! with a calibration epoch between rounds, driven from one caller
//! (`Fleet::submit` takes `&mut self`).

use std::time::{Duration, Instant};

use zz_circuit::bench::{generate, BenchmarkKind};
use zz_circuit::Circuit;
use zz_core::evaluate::{fidelity_of, EvalConfig};
use zz_core::{CompileOptions, PulseMethod, SchedulerKind};
use zz_fleet::{DeviceProfile, Dispatch, Fleet, FleetConfig, ScoreKind};
use zz_persist::{fnv1a, fnv1a_mix};
use zz_service::EvalSpec;

use crate::checks;
use crate::harness::{output_digest, timed, trial_seed, PlanFigures, Rng, Trial};
use crate::layer_calls;
use crate::trace::{self, Tracer};

/// Seconds of a run one trial stands for on the reference machine (2
/// cores), its share of the run's checks included; a run makes
/// `--seconds / TRIAL_S` trials.
pub const TRIAL_S: f64 = 1.25;

/// Job rounds per trial; an epoch advances between rounds.
pub const ROUNDS: usize = 4;
/// Qubits of the small jobs of a round (every backend holds them).
///
/// A job's cost is set by its size: about 1 ms at 16 qubits (scored by
/// the proxy), 20–70 ms at 4, 45–140 ms at 5 and 60–270 ms at 6. With one
/// job of each size per round, the median fell on the border between two
/// sizes, where jobs are few, and `latency_p50_ms` swung by 0.2 of itself
/// between runs. Two 5-qubit jobs put the median inside them: of a
/// trial's 16 jobs, the 4 large ones cost less and the 4 of 6 qubits
/// more.
const SMALL_QUBITS: [usize; 3] = [5, 5, 6];
/// Small jobs per round.
const SMALL_PER_ROUND: usize = SMALL_QUBITS.len();
/// Qubits of the one large job per round, which only the heavy-hex
/// backend holds (scored by the plan-metrics proxy).
const LARGE_QUBITS: usize = 16;

const METHODS: [PulseMethod; 2] = [PulseMethod::Gaussian, PulseMethod::Pert];

/// One fleet job.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    kind: BenchmarkKind,
    qubits: usize,
    circuit_seed: u64,
    method: PulseMethod,
    scheduler: SchedulerKind,
}

impl Job {
    /// The circuit (generated here).
    pub fn circuit(&self) -> Circuit {
        generate(self.kind, self.qubits, self.circuit_seed)
    }

    /// The compile options.
    pub fn options(&self) -> CompileOptions {
        CompileOptions {
            method: self.method,
            scheduler: self.scheduler,
            ..CompileOptions::default()
        }
    }
}

/// Families of the large job, one per round in turn.
const LARGE_FAMILIES: [BenchmarkKind; 3] = [
    BenchmarkKind::HiddenShift,
    BenchmarkKind::Ising,
    BenchmarkKind::Grc,
];

/// The rounds of jobs for `seed`. The mix is the same in every trial —
/// each core family twice among the small jobs, methods and schedulers
/// in equal shares — because per-job cost differs eightfold between
/// families, and a drawn mix would swing a trial's cost with the seed.
/// The seed picks the circuits.
pub fn rounds(seed: u64) -> Vec<Vec<Job>> {
    let mut rng = Rng::new(seed, 0xf1ee7);
    let mut job = |slot: usize, kind: BenchmarkKind, qubits: usize| Job {
        kind,
        qubits,
        circuit_seed: rng.next() >> 16,
        method: METHODS[slot % METHODS.len()],
        scheduler: [SchedulerKind::ParSched, SchedulerKind::ZzxSched][(slot / 2) % 2],
    };
    (0..ROUNDS)
        .map(|r| {
            let mut round: Vec<Job> = (0..SMALL_PER_ROUND)
                .map(|j| {
                    let slot = r * SMALL_PER_ROUND + j;
                    let kind = BenchmarkKind::CORE[slot % BenchmarkKind::CORE.len()];
                    job(slot, kind, SMALL_QUBITS[j])
                })
                .collect();
            round.push(job(
                r,
                LARGE_FAMILIES[r % LARGE_FAMILIES.len()],
                LARGE_QUBITS,
            ));
            round
        })
        .collect()
}

/// The fleet configuration for `seed`: a low invalidation threshold, so
/// some epochs recalibrate devices and some do not.
pub fn config(seed: u64) -> FleetConfig {
    FleetConfig {
        seed: Rng::new(seed, 0xd21f7).next(),
        invalidation_threshold: 0.05,
        threads_per_device: 1,
        eval_seeds: vec![11],
        trajectories: 4,
        ..FleetConfig::default()
    }
}

/// Builds the fleet and calibrates every backend for every method the
/// jobs use.
pub fn setup(config: &FleetConfig) -> Fleet {
    let fleet = Fleet::standard(config.clone()).expect("the standard fleet builds");
    for device in fleet.devices() {
        let session = fleet.session(device).expect("listed devices exist");
        for method in METHODS {
            session.target().calib().residuals(method);
        }
    }
    fleet
}

/// Checks one dispatch: the winner's plan is valid and the winner holds
/// the best score among valid candidate scores.
pub fn check_dispatch(dispatch: &Dispatch) -> Vec<String> {
    let mut problems = checks::plan(&dispatch.response.compiled, None);
    if dispatch.candidates.is_empty() {
        problems.push("no candidates".into());
    }
    if dispatch
        .candidates
        .iter()
        .any(|c| !(0.0..=1.0).contains(&c.score) || c.score > dispatch.score)
    {
        problems.push("a candidate outscored the winner or left [0, 1]".into());
    }
    problems
}

/// The digest of one dispatch decision and its output.
pub fn dispatch_digest(dispatch: &Dispatch) -> u64 {
    let mut h = fnv1a(dispatch.device.as_bytes());
    h = fnv1a_mix(h, dispatch.score.to_bits());
    for c in &dispatch.candidates {
        h = fnv1a_mix(h, c.score.to_bits());
    }
    fnv1a_mix(
        h,
        output_digest(&dispatch.response.compiled, dispatch.response.fidelity),
    )
}

/// The fidelity a dispatch contributes to `fidelity_geomean`: the
/// winner's simulated score (plan-metrics wins have none).
pub fn simulated_fidelity(dispatch: &Dispatch) -> Option<f64> {
    dispatch
        .candidates
        .iter()
        .find(|c| c.device == dispatch.device && c.kind == ScoreKind::Simulated)
        .map(|c| c.score)
}

/// Calibration runs of each backend's current calibration cache.
fn calibration_runs(fleet: &Fleet) -> Vec<(String, usize)> {
    fleet
        .report()
        .devices
        .into_iter()
        .map(|d| (d.device, d.calibration_runs))
        .collect()
}

/// The evaluation a fleet backend ran to score `dispatch`: its target's
/// calibrated noise, the fleet's disorder seeds, and the device's
/// decoherence. `None` for a plan-metrics win.
fn replay_config(fleet: &Fleet, config: &FleetConfig, dispatch: &Dispatch) -> Option<EvalConfig> {
    simulated_fidelity(dispatch)?;
    let target = fleet.session(&dispatch.device).ok()?.target();
    let profile = DeviceProfile::standard_fleet()
        .into_iter()
        .find(|p| p.name == dispatch.device)?;
    let spec = EvalSpec {
        crosstalk_seeds: config.eval_seeds.clone(),
        decoherence: Some((profile.decoherence(), config.trajectories, 97)),
    };
    Some(layer_calls::eval_config(&spec, target))
}

/// One trial: a fresh fleet runs every round, advancing an epoch
/// between rounds. The traced trial puts a span around every
/// `Fleet::submit` and `Fleet::advance_epoch`. Outside the timed phase
/// it replays each simulated win through `fidelity_of`, which must
/// reproduce the dispatch score bit for bit, and measures the score's
/// gap to `Fleet::ground_truth_fidelity` — the winner's fidelity at its
/// drifted noise, i.e. the cost of calibration gone stale.
pub fn trial(seed: u64, index: usize, traced: bool) -> Trial {
    let seed = trial_seed(seed, index);
    let rounds = rounds(seed);
    let config = config(seed);
    let (mut fleet, setup_s) = timed(|| setup(&config));
    let mut trial = Trial {
        setup_s,
        ..Trial::default()
    };
    let t0 = Instant::now();
    let mut tracer = Tracer::new(t0);
    let (mut candidates, mut invalidations, mut eval_ns, mut evals) = (0usize, 0usize, 0u128, 0u32);
    let mut retired_runs = 0;
    let mut off_clock = Duration::ZERO;
    // |dispatch score − ground truth| of every simulated win.
    let mut gaps = Vec::new();
    let start = Instant::now();
    for (r, round) in rounds.iter().enumerate() {
        if r > 0 {
            let runs_before = calibration_runs(&fleet);
            match tracer.span("advance_epoch", r as u64, |_| fleet.advance_epoch()) {
                Ok(report) => {
                    invalidations += report.invalidations.len();
                    // An invalidated device gets a fresh calibration
                    // cache; keep the count its old one reached.
                    retired_runs += report
                        .invalidations
                        .iter()
                        .filter_map(|i| runs_before.iter().find(|(d, _)| *d == i.device))
                        .map(|(_, runs)| runs)
                        .sum::<usize>();
                }
                Err(e) => trial.problems.push(format!("epoch {r}: {e}")),
            }
        }
        for (j, job) in round.iter().enumerate() {
            let request = (r * round.len() + j) as u64;
            let circuit = job.circuit();
            let source = circuit.content_digest();
            let sent = Instant::now();
            let outcome = tracer.span("submit", request, |_| fleet.submit(circuit, job.options()));
            let ms = sent.elapsed().as_secs_f64() * 1e3;
            // Keeping every `Dispatch` until the trial ends would
            // inflate the memory figure, so each is checked here, off
            // the clock.
            let paused = Instant::now();
            let latency = match outcome {
                Ok(dispatch) => {
                    let mut problems = check_dispatch(&dispatch);
                    candidates += dispatch.candidates.len();
                    if traced {
                        if let Some(cfg) = replay_config(&fleet, &config, &dispatch) {
                            let e0 = Instant::now();
                            let replayed = fidelity_of(&dispatch.response.compiled, &cfg);
                            eval_ns += e0.elapsed().as_nanos();
                            evals += 1;
                            match fleet.ground_truth_fidelity(
                                &dispatch.device,
                                job.circuit(),
                                job.options(),
                            ) {
                                Ok(truth) => gaps.push((dispatch.score - truth).abs()),
                                Err(e) => problems.push(format!("ground truth: {e}")),
                            }
                            if replayed.to_bits() != dispatch.score.to_bits() {
                                problems.push(format!(
                                    "replayed fidelity {replayed} differs from the dispatch score {}",
                                    dispatch.score
                                ));
                            }
                        }
                    }
                    if problems.is_empty() {
                        trial.digest = fnv1a_mix(trial.digest, dispatch_digest(&dispatch));
                        trial.figures.push(PlanFigures::of(
                            &dispatch.response.compiled,
                            source,
                            job.scheduler,
                            simulated_fidelity(&dispatch),
                        ));
                        Some(ms)
                    } else {
                        trial.problems.extend(problems);
                        None
                    }
                }
                Err(e) => {
                    trial.problems.push(format!("{job:?}: {e}"));
                    None
                }
            };
            trial.latency_ms.push(latency);
            off_clock += paused.elapsed();
        }
    }
    let wall = start.elapsed() - off_clock;
    trial.wall_s = wall.as_secs_f64();

    let jobs = trial.latency_ms.len().max(1) as f64;
    trial.layer("fleet.candidates_per_job", candidates as f64 / jobs);
    trial.layer("fleet.invalidations", invalidations as f64);
    let runs: usize = calibration_runs(&fleet).iter().map(|(_, r)| r).sum();
    trial.layer("calib.runs", (retired_runs + runs) as f64);
    trial.layer("calib.us", setup_s * 1e6);
    if traced {
        trial.spans = Tracer::merge(vec![tracer]);
        let times = trace::self_times(&trial.spans);
        let mean_us = |name: &str| {
            times
                .get(name)
                .map_or(0.0, |t| t.self_ns as f64 / 1e3 / t.count.max(1) as f64)
        };
        trial.layer("fleet.submit_us", mean_us("submit"));
        trial.layer("fleet.advance_epoch_us", mean_us("advance_epoch"));
        if evals > 0 {
            trial.layer("eval.us", eval_ns as f64 / 1e3 / f64::from(evals));
        }
        trial.layer(
            "trace.unattributed_frac",
            trace::unattributed_frac(
                &times,
                &[],
                1,
                u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX),
            ),
        );
        trial.layer(
            "fleet.score_gap",
            gaps.iter().sum::<f64>() / gaps.len().max(1) as f64,
        );
    }
    trial
}
