//! Integration tests of the service layer (`zz_service`):
//!
//! * **Equivalence matrix** — for every `(PulseMethod, SchedulerKind)`
//!   combination and for non-default α/k/R, `Session::compile` and the
//!   queued `Session::submit` must be bit-identical to `legacy_compile`,
//!   the reference body the pre-service facades wrapped (shared with
//!   `tests/pipeline.rs`, which holds `PassManager::run` to it).
//! * **Typed error paths** — oversized circuits (alone or inside an
//!   evaluated suite), unwritable cache directories and failing jobs
//!   inside `drain` come back as typed `zz_service::Error` variants,
//!   never as panics.
//! * **Evaluation equivalence** — a request's in-queue fidelity matches
//!   a direct `evaluate::fidelity_of` call exactly.

mod common;

use std::sync::Arc;

use zz_circuit::bench::{generate, BenchmarkKind};
use zz_circuit::Circuit;
use zz_core::evaluate::{fidelity_of, EvalConfig, MAX_EVAL_QUBITS};
use zz_core::{CoOptError, CompileOptions, PulseMethod, SchedulerKind};
use zz_service::{CompileRequest, Error, EvalSpec, Session, Target};
use zz_topology::Topology;

use common::{full_matrix, legacy_compile, non_default_rows};

/// Compiles `circuit` under `options` through the session's synchronous
/// and queued paths and asserts both are bit-identical to
/// `legacy_compile` on the session's device.
fn assert_session_matches_legacy(session: &Session, circuit: &Circuit, options: CompileOptions) {
    let reference = legacy_compile(
        circuit,
        session.target().topology(),
        options.method,
        options.scheduler,
        options.alpha_or_default(),
        options.k_or_default(),
        options.requirement,
    );

    let request = CompileRequest::new(circuit.clone()).with_options(options);
    let via_session = session.compile(&request).expect("fits").compiled;
    assert_eq!(reference, via_session, "{options:?}: session drift");

    let via_queue = session.submit(request).wait().expect("fits").compiled;
    session.drain();
    assert_eq!(reference, via_queue, "{options:?}: queued session drift");
}

/// A session over `topo` with no store and process-wide calibration.
fn session_on(topo: Topology) -> Session {
    Session::new(Target::builder().topology(topo).build().expect("no store"))
}

#[test]
fn session_matches_the_legacy_facades_for_every_method_scheduler_pair() {
    let session = session_on(Topology::grid(2, 3));
    let circuit = generate(BenchmarkKind::Qaoa, 6, 7);
    for (method, scheduler) in full_matrix() {
        assert_session_matches_legacy(&session, &circuit, CompileOptions::new(method, scheduler));
    }
}

#[test]
fn session_matches_the_legacy_facades_for_non_default_parameters() {
    let session = session_on(Topology::grid(3, 3));
    let circuit = generate(BenchmarkKind::Qft, 9, 7);
    for (alpha, k, requirement) in non_default_rows() {
        let mut options = CompileOptions::default().with_alpha(alpha).with_k(k);
        if let Some(r) = requirement {
            options = options.with_requirement(r);
        }
        assert_session_matches_legacy(&session, &circuit, options);
    }
}

#[test]
fn in_queue_evaluation_matches_the_legacy_eval_path() {
    let session = Session::new(Target::for_qubits(4).expect("fits"));
    let circuit = generate(BenchmarkKind::HiddenShift, 4, 7);
    let spec = EvalSpec::paper_default().with_seeds(vec![11, 23]);

    let response = session
        .compile(
            &CompileRequest::new(circuit.clone())
                .with_options(CompileOptions::default())
                .with_eval(spec),
        )
        .expect("fits");

    let legacy_cfg = EvalConfig {
        crosstalk_seeds: vec![11, 23],
        ..EvalConfig::paper_default()
    };
    let legacy = fidelity_of(&response.compiled, &legacy_cfg);
    assert_eq!(
        response.fidelity.expect("eval requested"),
        legacy,
        "in-queue evaluation drifted from evaluate::fidelity_of"
    );
}

/// A Monte-Carlo in-queue evaluation (9 qubits forces the trajectory
/// path) must surface the batched engine's counters — trajectories,
/// kernel sweeps, per-batch run-time histogram — in the session registry
/// that `Client::stats()` ships.
#[test]
fn engine_metrics_surface_in_the_session_registry() {
    let session = Session::new(Target::for_qubits(9).expect("fits"));
    let circuit = generate(BenchmarkKind::Qaoa, 9, 7);
    let trajectories = 24;
    let spec = EvalSpec::paper_default()
        .with_seeds(vec![11])
        .with_decoherence_us(200.0, trajectories);

    let response = session
        .compile(
            &CompileRequest::new(circuit)
                .with_options(CompileOptions::default())
                .with_eval(spec),
        )
        .expect("fits");
    assert!(response.fidelity.is_some(), "eval was requested");

    let snapshot = session.metrics().snapshot();
    let simulated = snapshot.counter("engine.trajectories").unwrap_or(0);
    assert!(
        simulated >= trajectories as u64,
        "expected ≥{trajectories} trajectories in the registry, saw {simulated}"
    );
    assert!(
        snapshot.counter("engine.kernel_sweeps").unwrap_or(0) > 0,
        "kernel sweep counter never moved"
    );
    let hist = snapshot
        .histogram("engine.batch.run_us")
        .expect("batch run-time histogram registered");
    // 24 trajectories at the default batch width of 16 is two batches.
    assert!(hist.count >= 2, "expected ≥2 batches, saw {}", hist.count);
    assert!(
        snapshot.counter("engine.diag.fused").is_some(),
        "fused-diagonal counter registered"
    );
}

#[test]
fn oversized_circuits_are_typed_validate_errors_never_panics() {
    let session = Session::new(
        Target::builder()
            .topology(Topology::grid(2, 2))
            .build()
            .expect("no store"),
    );
    let request = CompileRequest::new(Circuit::new(9)).with_label("nine-on-four");

    // Synchronous path.
    match session.compile(&request) {
        Err(Error::Validate { job, source }) => {
            assert_eq!(job, "nine-on-four");
            assert_eq!(
                source,
                CoOptError::CircuitTooLarge {
                    needed: 9,
                    available: 4
                }
            );
        }
        other => panic!("expected Validate, got {other:?}"),
    }

    // Queued path: the same typed error through the handle.
    let handle = session.submit(request);
    assert!(matches!(handle.wait(), Err(Error::Validate { .. })));
    session.drain();

    // Target construction no longer rejects large devices: beyond the
    // paper's 12-qubit evaluation sub-grids, `for_qubits` scales to a
    // near-square compile-only grid (13 → 3×5 = 15 qubits).
    let large = Target::for_qubits(13).expect("large targets build");
    assert_eq!(large.topology().qubit_count(), 15);
}

#[test]
fn unwritable_cache_dir_is_a_typed_persist_error() {
    // A path under a regular file can never be created as a directory.
    let file = std::env::temp_dir().join(format!("zz-service-it-probe-{}", std::process::id()));
    std::fs::write(&file, b"occupied").expect("temp file");
    let result = Target::builder().store_dir(file.join("cache")).build();
    match result {
        Err(Error::Persist { detail }) => {
            assert!(detail.contains("cache"), "{detail}");
        }
        other => panic!("expected Persist, got {other:?}"),
    }
    let _ = std::fs::remove_file(&file);
}

#[test]
fn failing_jobs_inside_drain_are_reported_in_order_not_panicking() {
    let session = Session::new(
        Target::builder()
            .topology(Topology::grid(2, 2))
            .build()
            .expect("no store"),
    );
    session.submit(CompileRequest::new(generate(BenchmarkKind::Qft, 4, 7)).with_label("ok-1"));
    session.submit(CompileRequest::new(Circuit::new(9)).with_label("too-big"));
    session.submit(CompileRequest::new(generate(BenchmarkKind::Qft, 4, 7)).with_label("ok-2"));

    let report = session.drain();
    assert_eq!(report.outcomes.len(), 3);
    assert_eq!(report.error_count(), 1);
    assert!(report.outcomes[0].is_ok());
    match &report.outcomes[1] {
        Err(Error::Validate { job, .. }) => assert_eq!(job, "too-big"),
        other => panic!("expected Validate, got {other:?}"),
    }
    assert!(report.outcomes[2].is_ok());

    // The failure also surfaces through the typed fidelity accessor.
    assert!(matches!(
        report.fidelities(),
        Err(Error::Eval { .. } | Error::Validate { .. })
    ));
}

#[test]
fn sweeps_share_one_routing_pass_through_the_session_memo() {
    let session = Session::with_threads(
        Target::builder()
            .topology(Topology::grid(3, 3))
            .build()
            .expect("no store"),
        1, // deterministic hit/miss split
    );
    let circuit = Arc::new(generate(BenchmarkKind::Qaoa, 9, 7));
    for alpha in [0.0, 0.25, 0.5, 1.0] {
        session.submit(
            CompileRequest::shared(Arc::clone(&circuit))
                .with_options(CompileOptions::default().with_alpha(alpha))
                .with_label(format!("alpha-{alpha}")),
        );
    }
    let report = session.drain();
    assert_eq!(report.error_count(), 0, "{report}");
    assert_eq!(report.route_misses, 1, "{report}");
    assert_eq!(report.route_hits, 3, "{report}");
    assert_eq!(session.memoized_shapes(), 1);
}

/// An evaluated suite with a case too large for the paper's biggest
/// device: the case fails alone, as a typed validation error carrying its
/// label and cause, and the report's fidelity accessor surfaces that same
/// error instead of folding the case in as fidelity 0.0.
#[test]
fn oversized_suite_cases_error_typed_instead_of_panicking() {
    let session = Session::new(Target::paper_default());
    let eval = EvalSpec::paper_default().with_seeds(vec![11]);
    let options = CompileOptions::new(PulseMethod::Gaussian, SchedulerKind::ParSched);
    let report = session.run([
        CompileRequest::new(generate(BenchmarkKind::Qft, 4, 7))
            .with_options(options)
            .with_eval(eval.clone())
            .with_label("qft-4"),
        CompileRequest::new(generate(BenchmarkKind::Qft, 13, 7))
            .with_options(options)
            .with_eval(eval)
            .with_label("qft-13"),
    ]);
    assert_eq!(report.error_count(), 1, "{report}");
    assert!(report.outcomes[0]
        .as_ref()
        .expect("fits")
        .fidelity
        .is_some());
    let too_large = CoOptError::CircuitTooLarge {
        needed: 13,
        available: MAX_EVAL_QUBITS,
    };
    match &report.outcomes[1] {
        Err(Error::Validate { job, source }) => {
            assert_eq!(job, "qft-13");
            assert_eq!(source, &too_large);
        }
        other => panic!("expected Validate, got {other:?}"),
    }
    let err = report.fidelities().unwrap_err();
    assert_eq!(err.job(), Some("qft-13"));
    let msg = err.to_string();
    assert!(msg.contains("qft-13"), "label missing from: {msg}");
    assert!(msg.contains("13 qubits"), "cause missing from: {msg}");
}
