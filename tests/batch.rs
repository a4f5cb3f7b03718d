//! Integration tests of batched compilation through a session's queue:
//! `submit`/`drain` output must be bit-identical to sequential
//! `Session::compile` calls, and the shared caches must actually share.

use zz_circuit::bench::{generate, BenchmarkKind};
use zz_core::calib::CalibCache;
use zz_service::{
    CompileOptions, CompileRequest, PulseMethod, SchedulerKind, ServiceReport, Session, Target,
};
use zz_topology::Topology;

/// The suite used by both tests: every core benchmark at its smallest
/// paper size, under three pulse × scheduler configurations.
fn suite() -> Vec<(BenchmarkKind, usize, PulseMethod, SchedulerKind)> {
    let configs = [
        (PulseMethod::Gaussian, SchedulerKind::ParSched),
        (PulseMethod::Pert, SchedulerKind::ZzxSched),
        (PulseMethod::Dcg, SchedulerKind::ZzxSched),
    ];
    BenchmarkKind::CORE
        .iter()
        .map(|&kind| (kind, kind.paper_sizes()[0]))
        .flat_map(|(kind, n)| configs.iter().map(move |&(m, s)| (kind, n, m, s)))
        .collect()
}

/// A session over `topo` with no store and process-wide calibration.
fn session_on(topo: Topology) -> Session {
    Session::new(Target::builder().topology(topo).build().expect("no store"))
}

/// Benchmark `kind`-`n` (seed 7) under `(method, scheduler)`.
fn request(
    kind: BenchmarkKind,
    n: usize,
    method: PulseMethod,
    scheduler: SchedulerKind,
) -> CompileRequest {
    CompileRequest::new(generate(kind, n, 7)).with_options(CompileOptions::new(method, scheduler))
}

#[test]
fn batch_results_are_identical_to_sequential_compilation() {
    let topo = Topology::grid(3, 3);
    let cases = suite();

    // Sequential reference: one synchronous compile per case, in a session
    // of its own so the queued run below starts with a cold memo.
    let sequential_session = session_on(topo.clone());
    let sequential: Vec<_> = cases
        .iter()
        .map(|&(kind, n, method, scheduler)| {
            sequential_session
                .compile(&request(kind, n, method, scheduler))
                .expect("fits the 3x3 grid")
                .compiled
        })
        .collect();

    // The same cases through the queue (worker pool + shared caches).
    let session = session_on(topo);
    for &(kind, n, method, scheduler) in &cases {
        session.submit(request(kind, n, method, scheduler));
    }
    let report = session.drain();

    assert_eq!(report.error_count(), 0, "{report}");
    assert!(
        report.route_hits > 0,
        "repeated circuit shapes must hit the routing memo: {report}"
    );
    for (case, (seq, outcome)) in cases.iter().zip(sequential.iter().zip(&report.outcomes)) {
        let queued = &outcome.as_ref().expect("compiled").compiled;
        // Bit-identical: the full Compiled (plan layers, Rz bookkeeping,
        // durations, residual table) compares equal field-for-field.
        assert_eq!(
            seq, queued,
            "case {case:?} diverged between queued and sequential"
        );
    }
}

#[test]
fn calibration_runs_at_most_once_per_method_per_process() {
    let cache = CalibCache::global();
    let run = |session: &Session| -> ServiceReport {
        session.run(
            [
                PulseMethod::Gaussian,
                PulseMethod::Pert,
                PulseMethod::Gaussian,
            ]
            .map(|m| request(BenchmarkKind::Qft, 4, m, SchedulerKind::ZzxSched)),
        )
    };

    // Fill every slot deterministically first (idempotent): the sibling
    // test in this binary runs concurrently and also calibrates, so the
    // global counter is only stable once all methods are measured.
    for method in PulseMethod::ALL {
        cache.residuals(method);
    }
    let runs_before = cache.calibration_runs();
    assert!(
        runs_before <= PulseMethod::ALL.len(),
        "at most one measurement per method per process, got {runs_before}"
    );

    // First drain: every method is already cached — zero new measurements,
    // regardless of how many jobs or workers used each.
    let session = session_on(Topology::grid(2, 2));
    let first = run(&session);
    assert_eq!(first.error_count(), 0);
    assert_eq!(first.calibration_runs, 0, "{first}");

    // Second drain with the same methods: still fully served from the
    // shared cache.
    let second = run(&session);
    assert_eq!(second.error_count(), 0);
    assert_eq!(second.calibration_runs, 0, "{second}");
    assert_eq!(cache.calibration_runs(), runs_before);

    // And a synchronous compile in another session shares the same
    // process-wide cache.
    session_on(Topology::grid(2, 2))
        .compile(&request(
            BenchmarkKind::Qft,
            4,
            PulseMethod::Pert,
            SchedulerKind::ZzxSched,
        ))
        .expect("fits");
    assert_eq!(cache.calibration_runs(), runs_before);
}
