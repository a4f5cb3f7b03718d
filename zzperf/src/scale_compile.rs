//! `scale-compile`: compile-only jobs on devices past the simulation
//! ceiling (a 64-qubit grid and 55- and 112-qubit heavy-hex lattices),
//! under both schedulers, with circuits drawn fresh from the seed.

use std::sync::Arc;

use zz_circuit::bench::{generate, BenchmarkKind};
use zz_core::{CompileOptions, PulseMethod, SchedulerKind};
use zz_topology::Topology;

use crate::harness::{trial_seed, Rng, Trial};
use crate::session_run::{self, Job, Plan};

/// Seconds of a run one trial stands for on the reference machine (2
/// cores), its share of the run's checks included; a run makes
/// `--seconds / TRIAL_S` trials.
///
/// A trial takes about 1.3 s. The rest of its share goes to `wire-mixed`
/// and `fleet-drift`: in ten-run sets of runs of about equal length, this
/// workload's throughput spread 0.08 of its median, theirs 0.17–0.23, and
/// the time limit for all runs is shared, so their runs are the longer
/// ones.
pub const TRIAL_S: f64 = 2.3;

/// The pulse method every scale job compiles with.
const METHOD: PulseMethod = PulseMethod::Pert;

/// The families compiled on every device. QFT and QPE are left out:
/// their all-to-all interactions make a single ZZXSched job take 3–48 s
/// at these sizes, which would leave a run with one or two trials.
const FAMILIES: [BenchmarkKind; 4] = [
    BenchmarkKind::HiddenShift,
    BenchmarkKind::Qaoa,
    BenchmarkKind::Ising,
    BenchmarkKind::Grc,
];

/// QAOA's random graphs make routing and ZZX scheduling grow fastest
/// with size (QAOA-112 under ZZXSched takes ~3.6 s alone), so its
/// circuits are capped at this many qubits.
const QAOA_QUBITS: usize = 48;

/// The devices.
fn devices() -> [Topology; 3] {
    [
        Topology::grid(8, 8),
        Topology::heavy_hex(5),
        Topology::heavy_hex(7),
    ]
}

/// Runs trial `index` of a run with `seed`, traced or not.
pub fn trial(seed: u64, index: usize, traced: bool) -> Trial {
    let devices = devices();
    let mut rng = Rng::new(trial_seed(seed, index), 0x5ca1e);
    // (device, family, qubits, circuit seed, scheduler), longest jobs
    // first so the two callers finish close together.
    let mut jobs = Vec::new();
    for (device, topo) in devices.iter().enumerate() {
        for kind in FAMILIES {
            let qubits = match kind {
                BenchmarkKind::Qaoa => topo.qubit_count().min(QAOA_QUBITS),
                _ => topo.qubit_count(),
            };
            let circuit_seed = rng.next() >> 16;
            for scheduler in [SchedulerKind::ZzxSched, SchedulerKind::ParSched] {
                jobs.push((device, kind, qubits, circuit_seed, scheduler));
            }
        }
    }
    jobs.sort_by_key(|&(device, _, _, _, scheduler)| {
        (
            scheduler != SchedulerKind::ZzxSched,
            std::cmp::Reverse(devices[device].qubit_count()),
        )
    });
    let make = |i: usize| {
        let (device, kind, qubits, circuit_seed, scheduler) = jobs[i];
        Job {
            circuit: Arc::new(generate(kind, qubits, circuit_seed)),
            device: devices[device].clone(),
            options: CompileOptions {
                method: METHOD,
                scheduler,
                ..CompileOptions::default()
            },
            eval: None,
        }
    };
    let plan = Plan {
        jobs: jobs.len(),
        make: &make,
        methods: &[METHOD],
        full_checks: false,
    };
    if traced {
        session_run::traced(&plan)
    } else {
        session_run::untraced(&plan)
    }
}
