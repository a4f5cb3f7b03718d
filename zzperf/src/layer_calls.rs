//! Traced compilation: the benchmark calls each pipeline layer's
//! public entry point itself — the passes through
//! `PassManager::apply`, the scheduler through its `SchedulerPass`, the
//! pulse stage through `CalibratedPulse`, and evaluation through
//! `fidelity_of` — with a span around each call. It assembles the same
//! `Compiled` the session does, which the traced runs check.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use zz_circuit::native::NativeCircuit;
use zz_circuit::Circuit;
use zz_core::calib::CalibCache;
use zz_core::evaluate::{fidelity_of, EvalConfig};
use zz_core::pipeline::{
    scheduler_pass_for, shape_key, CacheDisposition, CalibratedPulse, Logical, LowerPass, PassCx,
    PassManager, PipelineTrace, PulsePass, RoutePass, ValidatePass,
};
use zz_core::{CompileOptions, Compiled};
use zz_service::{EvalSpec, Target};
use zz_topology::Topology;

use crate::trace::Tracer;

/// Route + lower results by circuit × device shape, shared by the
/// callers of one trial — the benchmark-side twin of the session's
/// routing memo, so traced and untraced runs do the same work.
#[derive(Debug, Default)]
pub struct Memo {
    native: Mutex<HashMap<u64, Arc<NativeCircuit>>>,
}

/// Compiles `circuit` onto `topo`, one span per layer call. Errors are
/// reported as text.
pub fn compile(
    t: &mut Tracer,
    request: u64,
    circuit: Arc<Circuit>,
    topo: &Topology,
    options: &CompileOptions,
    calib: &Arc<CalibCache>,
    memo: &Memo,
) -> Result<Compiled, String> {
    let pm = PassManager::builder()
        .topology(topo.clone())
        .pulse_method(options.method)
        .scheduler(options.scheduler)
        .alpha(options.alpha_or_default())
        .k(options.k_or_default())
        .calib(Arc::clone(calib))
        .build();
    let mut trace = PipelineTrace::default();
    let logical = t.span("validate", request, |_| {
        pm.apply(
            &ValidatePass,
            Logical { circuit },
            CacheDisposition::NotCached,
            &mut trace,
        )
    });
    let logical = logical.map_err(|e| e.to_string())?;

    let key = shape_key(&logical.circuit, topo);
    let cached = memo
        .native
        .lock()
        .expect("no caller panics")
        .get(&key)
        .cloned();
    let native = match cached {
        Some(native) => native,
        None => {
            let routed = t.span("route", request, |_| {
                pm.apply(&RoutePass, logical, CacheDisposition::NotCached, &mut trace)
            });
            let routed = routed.map_err(|e| e.to_string())?;
            let lowered = t.span("lower", request, |_| {
                pm.apply(&LowerPass, routed, CacheDisposition::NotCached, &mut trace)
            });
            let native = lowered.map_err(|e| e.to_string())?.circuit;
            memo.native
                .lock()
                .expect("no caller panics")
                .insert(key, Arc::clone(&native));
            native
        }
    };

    let scheduler = scheduler_pass_for(
        options.scheduler,
        options.alpha_or_default(),
        options.k_or_default(),
        options.requirement,
    );
    let plan = t.span("schedule", request, |_| scheduler.schedule(topo, &native));
    let pulse = CalibratedPulse {
        method: options.method,
    };
    let (residuals, durations) = t.span("pulse", request, |_| {
        let cx = PassCx {
            topology: topo,
            store: None,
            calib,
            memo: None,
            metrics: None,
        };
        (pulse.residuals(&cx).0, pulse.durations())
    });
    Ok(Compiled {
        plan,
        topology: topo.clone(),
        durations,
        method: options.method,
        residuals,
    })
}

/// The evaluation config a session derives from `spec` on `target`.
pub fn eval_config(spec: &EvalSpec, target: &Target) -> EvalConfig {
    EvalConfig {
        lambda_mean: target.lambda_mean(),
        lambda_std: target.lambda_std(),
        crosstalk_seeds: spec.crosstalk_seeds.clone(),
        circuit_seed: 0,
        decoherence: spec.decoherence,
    }
}

/// Evaluates `compiled` inside an `eval` span; returns the fidelity and
/// the amplitude-layer work `seeds × layers × 2ⁿ` it covered.
pub fn evaluate(t: &mut Tracer, request: u64, compiled: &Compiled, cfg: &EvalConfig) -> (f64, f64) {
    let fidelity = t.span("eval", request, |_| fidelity_of(compiled, cfg));
    let work = cfg.crosstalk_seeds.len() as f64
        * compiled.plan.layer_count() as f64
        * (compiled.plan.qubit_count() as f64).exp2();
    (fidelity, work)
}
