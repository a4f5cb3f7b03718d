//! The two ways a compile workload (`paper-eval`, `scale-compile`) runs
//! a trial: through the session queue (the untraced run, which the
//! end-to-end metrics come from), and through the benchmark's own
//! traced layer calls, one span per call.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use zz_circuit::Circuit;
use zz_core::calib::CalibCache;
use zz_core::{CompileOptions, PulseMethod};
use zz_persist::fnv1a_mix;
use zz_service::{CompileRequest, EvalSpec, Session, Target};
use zz_topology::Topology;

use crate::checks;
use crate::harness::{output_digest, proc_status_kb, timed, PlanFigures, Trial, CALLERS};
use crate::layer_calls::{self, Memo};
use crate::trace::{self, Tracer};

/// One compile job, with its circuit already generated.
#[derive(Clone, Debug)]
pub struct Job {
    /// The logical circuit.
    pub circuit: Arc<Circuit>,
    /// The device it compiles onto.
    pub device: Topology,
    /// Method, scheduler and scheduler parameters.
    pub options: CompileOptions,
    /// Evaluation, when the job asks for it.
    pub eval: Option<EvalSpec>,
}

impl Job {
    fn request(&self, label: String) -> CompileRequest {
        let request = CompileRequest::shared(Arc::clone(&self.circuit))
            .with_options(self.options)
            .on_device(self.device.clone())
            .with_label(label);
        match &self.eval {
            Some(spec) => request.with_eval(spec.clone()),
            None => request,
        }
    }
}

/// A compile workload's trial: how many jobs, how to make job `i` (the
/// circuit is generated when the job is sent), and which pulse methods
/// set-up calibrates.
pub struct Plan<'a> {
    /// Jobs in the trial.
    pub jobs: usize,
    /// Makes job `i`.
    pub make: &'a (dyn Fn(usize) -> Job + Sync),
    /// Pulse methods the jobs use.
    pub methods: &'a [PulseMethod],
    /// Whether to run the expensive checks: unitary equivalence on small
    /// devices, and a reference-simulator fidelity on every fifth
    /// evaluated job of at most 9 qubits.
    pub full_checks: bool,
}

/// A target over the paper device with its own, empty calibration
/// cache, so every trial pays for calibration the way a fresh process
/// does.
fn fresh_target(calib: &Arc<CalibCache>) -> Target {
    Target::builder()
        .calib_cache(Arc::clone(calib))
        .build()
        .expect("a target without a store builds")
}

/// Runs `work(i)` for every job index from `CALLERS` closed-loop caller
/// threads; returns each caller's result.
fn closed_loop<R: Send>(
    jobs: usize,
    work: impl Fn(usize, &mut R) + Sync,
    init: impl Fn() -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let callers: Vec<_> = (0..CALLERS)
            .map(|_| {
                s.spawn(|| {
                    let mut state = init();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs {
                            break state;
                        }
                        work(i, &mut state);
                    }
                })
            })
            .collect();
        callers
            .into_iter()
            .map(|c| c.join().expect("callers do not panic"))
            .collect()
    })
}

/// The untraced trial: a fresh session, every job submitted to its
/// queue by the closed-loop callers, outputs checked after the timed
/// phase from the session's own retained results.
pub fn untraced(plan: &Plan<'_>) -> Trial {
    let calib = Arc::new(CalibCache::new());
    let (session, setup_s) = timed(|| {
        let session = Session::with_threads(fresh_target(&calib), CALLERS);
        for &method in plan.methods {
            session.target().calib().residuals(method);
        }
        session
    });
    let rss_before = proc_status_kb("VmRSS");
    let sched_before = zz_sched::sched_totals().distance_queries;

    let latency = Mutex::new(vec![None; plan.jobs]);
    let start = Instant::now();
    closed_loop(
        plan.jobs,
        |i, _: &mut ()| {
            let request = (plan.make)(i).request(i.to_string());
            let t0 = Instant::now();
            let outcome = session.submit(request).wait();
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if outcome.is_ok() {
                latency.lock().expect("no caller panics")[i] = Some(ms);
            }
        },
        || (),
    );
    let wall_s = start.elapsed().as_secs_f64();
    let retained_kb = proc_status_kb("VmRSS").saturating_sub(rss_before);
    let sched_queries = zz_sched::sched_totals().distance_queries - sched_before;
    let mut latency_ms = latency.into_inner().expect("no caller panics");

    let report = session.drain();
    let mut trial = Trial {
        setup_s,
        wall_s,
        ..Trial::default()
    };
    // Callers interleave their submissions, so the drained outcomes are
    // matched back to jobs by label and then visited in job order.
    let mut responses = vec![None; plan.jobs];
    for outcome in report.outcomes {
        match outcome {
            Ok(r) => match r.label.parse::<usize>() {
                Ok(i) if i < plan.jobs => responses[i] = Some(r),
                _ => trial.problems.push(format!("unknown label {}", r.label)),
            },
            Err(e) => trial.problems.push(e.to_string()),
        }
    }
    let (mut route_hits, mut queue_us) = (0usize, 0.0);
    let mut digest = 0;
    for (i, response) in responses.iter().enumerate() {
        let Some(response) = response else {
            latency_ms[i] = None;
            continue;
        };
        route_hits += usize::from(response.route_cache_hit);
        queue_us += response.queue_wait.as_secs_f64() * 1e6;
        let job = (plan.make)(i);
        let mut problems = checks::plan(
            &response.compiled,
            plan.full_checks.then_some(&*job.circuit),
        );
        if let Some(spec) = &job.eval {
            if plan.full_checks
                && job.circuit.qubit_count() <= checks::REFERENCE_MAX_QUBITS
                && i % 5 == 0
            {
                problems.extend(checks::fidelity_against_reference(
                    &response.compiled,
                    session.target(),
                    spec,
                    response.fidelity,
                ));
            }
            if response.fidelity.is_none() {
                problems.push("no fidelity on an evaluated job".into());
            }
        }
        if !problems.is_empty() {
            latency_ms[i] = None;
            trial
                .problems
                .extend(problems.into_iter().map(|p| format!("job {i}: {p}")));
            continue;
        }
        digest = fnv1a_mix(digest, output_digest(&response.compiled, response.fidelity));
        trial.figures.push(PlanFigures::of(
            &response.compiled,
            job.circuit.content_digest(),
            job.options.scheduler,
            response.fidelity,
        ));
    }
    let done = responses.iter().flatten().count().max(1) as f64;
    trial.layer("route.memo_hit_frac", route_hits as f64 / done);
    trial.layer("service.queue_wait_us", queue_us / done);
    trial.layer(
        "service.coalesced_frac",
        session.coalesced_jobs() as f64 / done,
    );
    trial.layer("service.retained_kb_per_job", retained_kb as f64 / done);
    trial.layer("sched.distance_queries", sched_queries as f64);
    trial.latency_ms = latency_ms;
    trial.digest = digest;
    trial
}

/// What one traced caller collects.
#[derive(Debug)]
struct Caller {
    tracer: Tracer,
    /// `(job, latency ms, output digest, figures, eval work)` per job.
    done: Vec<(usize, f64, u64, PlanFigures, f64)>,
    problems: Vec<String>,
}

/// The traced trial: the same jobs compiled (and evaluated) by the
/// benchmark's own calls into each layer, with a span around each.
pub fn traced(plan: &Plan<'_>) -> Trial {
    let calib = Arc::new(CalibCache::new());
    let target = fresh_target(&calib);
    let (_, calib_s) = timed(|| {
        for &method in plan.methods {
            calib.residuals(method);
        }
    });
    let memo = Memo::default();
    let start = Instant::now();
    let callers = closed_loop(
        plan.jobs,
        |i, caller: &mut Caller| {
            let job = (plan.make)(i);
            let request = i as u64;
            let t0 = Instant::now();
            let outcome = caller.tracer.span("job", request, |t| {
                let compiled = layer_calls::compile(
                    t,
                    request,
                    Arc::clone(&job.circuit),
                    &job.device,
                    &job.options,
                    &calib,
                    &memo,
                )?;
                let evaluated = job.eval.as_ref().map(|spec| {
                    layer_calls::evaluate(
                        t,
                        request,
                        &compiled,
                        &layer_calls::eval_config(spec, &target),
                    )
                });
                Ok::<_, String>((compiled, evaluated))
            });
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            match outcome {
                Ok((compiled, evaluated)) => {
                    let fidelity = evaluated.map(|(f, _)| f);
                    caller.done.push((
                        i,
                        ms,
                        output_digest(&compiled, fidelity),
                        PlanFigures::of(
                            &compiled,
                            job.circuit.content_digest(),
                            job.options.scheduler,
                            fidelity,
                        ),
                        evaluated.map_or(0.0, |(_, w)| w),
                    ));
                }
                Err(e) => caller.problems.push(format!("job {i}: {e}")),
            }
        },
        || Caller {
            tracer: Tracer::new(start),
            done: Vec::new(),
            problems: Vec::new(),
        },
    );
    let wall = start.elapsed();

    let mut trial = Trial {
        setup_s: calib_s,
        wall_s: wall.as_secs_f64(),
        latency_ms: vec![None; plan.jobs],
        ..Trial::default()
    };
    let mut outputs = vec![None; plan.jobs];
    let mut tracers = Vec::new();
    let mut eval_work = 0.0;
    for caller in callers {
        tracers.push(caller.tracer);
        trial.problems.extend(caller.problems);
        for (i, ms, digest, figures, work) in caller.done {
            trial.latency_ms[i] = Some(ms);
            outputs[i] = Some((digest, figures));
            eval_work += work;
        }
    }
    for (digest, figures) in outputs.into_iter().flatten() {
        trial.digest = fnv1a_mix(trial.digest, digest);
        trial.figures.push(figures);
    }
    trial.spans = Tracer::merge(tracers);

    let times = trace::self_times(&trial.spans);
    let jobs = plan.jobs as f64;
    let self_us = |name: &str| times.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e3);
    for (stage, metric) in [
        ("route", "route.us"),
        ("lower", "lower.us"),
        ("schedule", "schedule.us"),
        ("pulse", "pulse.us"),
    ] {
        trial.layer(metric, self_us(stage) / jobs);
    }
    if let Some(eval) = times.get("eval") {
        trial.layer("eval.us", self_us("eval") / eval.count as f64);
        trial.layer("eval.ns_per_amp_layer", eval.self_ns as f64 / eval_work);
    }
    trial.layer("calib.runs", calib.calibration_runs() as f64);
    trial.layer("calib.us", calib_s * 1e6);
    trial.layer(
        "trace.unattributed_frac",
        trace::unattributed_frac(&times, &["job"], CALLERS, wall.as_nanos() as u64),
    );
    trial
}
