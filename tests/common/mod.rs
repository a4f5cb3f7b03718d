//! The reference oracle shared by the integration tests that pin compile
//! output bit for bit (`tests/pipeline.rs`, `tests/service.rs`).

use zz_circuit::native::compile_to_native;
use zz_circuit::{route, Circuit};
use zz_core::calib;
use zz_core::{Compiled, PulseMethod, SchedulerKind};
use zz_sched::zzx::{zzx_schedule, Requirement, ZzxConfig};
use zz_sched::{par_schedule, GateDurations};
use zz_topology::Topology;

/// The pre-pipeline compile body, reproduced verbatim:
/// route → lower → `match` on the scheduler → `match` on the method →
/// assemble. No compile entry point may ever drift from this.
pub fn legacy_compile(
    circuit: &Circuit,
    topo: &Topology,
    method: PulseMethod,
    scheduler: SchedulerKind,
    alpha: f64,
    k: usize,
    requirement: Option<Requirement>,
) -> Compiled {
    let routed = route(circuit, topo);
    let native = compile_to_native(&routed);
    let plan = match scheduler {
        SchedulerKind::ParSched => par_schedule(topo, &native),
        SchedulerKind::ZzxSched => {
            let config = ZzxConfig {
                alpha,
                k,
                requirement: requirement.unwrap_or_else(|| Requirement::paper_default(topo)),
            };
            zzx_schedule(topo, &native, &config)
        }
    };
    let durations = match method {
        PulseMethod::Dcg => GateDurations::dcg(),
        _ => GateDurations::standard(),
    };
    Compiled {
        plan,
        topology: topo.clone(),
        durations,
        method,
        residuals: calib::residuals(method),
    }
}

/// Every `(PulseMethod, SchedulerKind)` combination.
pub fn full_matrix() -> Vec<(PulseMethod, SchedulerKind)> {
    PulseMethod::ALL
        .iter()
        .flat_map(|&m| {
            [SchedulerKind::ParSched, SchedulerKind::ZzxSched]
                .into_iter()
                .map(move |s| (m, s))
        })
        .collect()
}

/// The non-default `(alpha, k, requirement)` rows of the matrix: a weak
/// and a strong crosstalk weight, and a tightened requirement.
pub fn non_default_rows() -> [(f64, usize, Option<Requirement>); 2] {
    let req = Requirement {
        nq_limit: 3,
        nc_limit: 5,
    };
    [(0.25, 1, None), (2.0, 8, Some(req))]
}
