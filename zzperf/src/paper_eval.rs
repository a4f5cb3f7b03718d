//! `paper-eval`: the paper's evaluation matrix through the session
//! queue — every core family at its paper sizes × {Gaussian, Pert} ×
//! {ParSched, ZZXSched}, each job compiled on its paper sub-grid and
//! evaluated in-queue with `EvalSpec::paper_default()`.

use std::sync::Arc;

use zz_circuit::bench::{generate, BenchmarkKind};
use zz_core::evaluate::device_for;
use zz_core::{CompileOptions, PulseMethod, SchedulerKind};
use zz_service::EvalSpec;

use crate::harness::{trial_seed, Rng, Trial};
use crate::session_run::{self, Job, Plan};

/// Seconds of a run one trial stands for on the reference machine (2
/// cores), its share of the run's checks included; a run makes
/// `--seconds / TRIAL_S` trials.
pub const TRIAL_S: f64 = 0.9;

const METHODS: [PulseMethod; 2] = [PulseMethod::Gaussian, PulseMethod::Pert];
const SCHEDULERS: [SchedulerKind; 2] = [SchedulerKind::ParSched, SchedulerKind::ZzxSched];

/// `(family, qubits, circuit seed)` for every family at every paper
/// size: 21 circuits, each compiled under the four method × scheduler
/// configurations (84 jobs).
fn circuits(seed: u64) -> Vec<(BenchmarkKind, usize, u64)> {
    let mut rng = Rng::new(seed, 0x9a9e);
    BenchmarkKind::CORE
        .iter()
        .flat_map(|&kind| kind.paper_sizes().iter().map(move |&n| (kind, n)))
        .map(|(kind, n)| (kind, n, rng.next() >> 16))
        .collect()
}

/// Runs trial `index` of a run with `seed`, traced or not.
pub fn trial(seed: u64, index: usize, traced: bool) -> Trial {
    let circuits = circuits(trial_seed(seed, index));
    let configs = METHODS.len() * SCHEDULERS.len();
    let make = |i: usize| {
        let (kind, n, circuit_seed) = circuits[i / configs];
        let config = i % configs;
        Job {
            circuit: Arc::new(generate(kind, n, circuit_seed)),
            device: device_for(n),
            options: CompileOptions {
                method: METHODS[config / SCHEDULERS.len()],
                scheduler: SCHEDULERS[config % SCHEDULERS.len()],
                ..CompileOptions::default()
            },
            eval: Some(EvalSpec::paper_default()),
        }
    };
    let plan = Plan {
        jobs: circuits.len() * configs,
        make: &make,
        methods: &METHODS,
        full_checks: index == 0,
    };
    if traced {
        session_run::traced(&plan)
    } else {
        session_run::untraced(&plan)
    }
}
