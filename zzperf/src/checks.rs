//! Output checks, run outside every timed phase. Each returns the
//! problems it found; an empty list means the output passed.

use zz_circuit::native::compile_to_native;
use zz_circuit::{route, Circuit};
use zz_core::Compiled;
use zz_quantum::gates::equal_up_to_phase;
use zz_service::{EvalSpec, Target};
use zz_sim::executor::ZzErrorModel;

/// Largest device whose plan unitary is compared with the lowered
/// circuit's.
pub const UNITARY_MAX_QUBITS: usize = 6;

/// Largest job whose fidelity is recomputed with the reference
/// simulator.
pub const REFERENCE_MAX_QUBITS: usize = 9;

/// Relative agreement required between the engine and the reference
/// simulator.
const REFERENCE_TOLERANCE: f64 = 1e-9;

/// Structural validity of the plan, and — given the source circuit, on a
/// device small enough — equality of the plan's unitary with the unitary
/// of the routed, lowered circuit, up to global phase.
pub fn plan(compiled: &Compiled, source: Option<&Circuit>) -> Vec<String> {
    let mut problems = Vec::new();
    if let Err(e) = compiled.plan.validate() {
        problems.push(format!("invalid plan: {e}"));
    }
    let small = compiled.topology.qubit_count() <= UNITARY_MAX_QUBITS;
    if let Some(circuit) = source.filter(|_| small) {
        let native = compile_to_native(&route(circuit, &compiled.topology));
        if !equal_up_to_phase(&compiled.plan.unitary(), &native.unitary(), 1e-7) {
            problems.push("plan unitary differs from the lowered circuit's".into());
        }
    }
    problems
}

/// The reference fidelity of a compiled plan under `spec` and the
/// target's crosstalk: the mean over disorder seeds of
/// `|⟨ideal|noisy⟩|²`, both states from `zz_bench::reference`.
pub fn reference_fidelity(compiled: &Compiled, target: &Target, spec: &EvalSpec) -> f64 {
    let topo = &compiled.topology;
    let ideal = zz_bench::reference::run_ideal(&compiled.plan);
    let total: f64 = spec
        .crosstalk_seeds
        .iter()
        .map(|&seed| {
            let model =
                ZzErrorModel::sampled(topo, target.lambda_mean(), target.lambda_std(), seed)
                    .with_residuals(compiled.residuals);
            let noisy =
                zz_bench::reference::run_with_zz(&compiled.plan, topo, &model, &compiled.durations);
            ideal.fidelity(&noisy)
        })
        .sum();
    total / spec.crosstalk_seeds.len() as f64
}

/// Agreement of the engine's fidelity with [`reference_fidelity`].
pub fn fidelity_against_reference(
    compiled: &Compiled,
    target: &Target,
    spec: &EvalSpec,
    fidelity: Option<f64>,
) -> Vec<String> {
    let Some(got) = fidelity else {
        return vec!["no fidelity to compare with the reference".into()];
    };
    let want = reference_fidelity(compiled, target, spec);
    if (got - want).abs() > REFERENCE_TOLERANCE * want.abs().max(1e-3) {
        vec![format!("fidelity {got} differs from the reference {want}")]
    } else {
        Vec::new()
    }
}
