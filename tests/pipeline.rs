//! Integration tests of the pass-based pipeline (`zz_core::pipeline`):
//!
//! * **Equivalence matrix** — pipeline output must be bit-identical to
//!   the pre-pipeline compile sequence (re-implemented verbatim as
//!   `legacy_compile`) for every `(PulseMethod, SchedulerKind)`
//!   combination and for non-default α/k/R, through `PassManager::run`.
//!   The oracle lives in `tests/common`; `tests/service.rs` holds the
//!   session's synchronous and queued paths to it as well.
//! * **Stage-granular caching** — an α/k-only parameter sweep re-runs
//!   *zero* route/lower passes: the first job routes, every other job is
//!   served by the route memo (in-process) or the disk artifact (across
//!   sessions), while scheduling re-runs for every sweep point.
//! * **Per-pass units** — route-only and schedule-only runs using the
//!   typed stage artifacts.

mod common;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use zz_circuit::bench::{generate, BenchmarkKind};
use zz_circuit::native::compile_to_native;
use zz_circuit::{route, Circuit};
use zz_core::calib::CalibCache;
use zz_core::pipeline::{
    CacheDisposition, Logical, LowerPass, PassManager, PipelineTrace, RoutePass, StageArtifact,
    ValidatePass,
};
use zz_core::{CoOptError, CompileOptions, Stage};
use zz_persist::ArtifactStore;
use zz_service::{CompileRequest, CompileResponse, Error, ServiceReport, Session, Target};
use zz_topology::Topology;

use common::{full_matrix, legacy_compile, non_default_rows};

fn scratch_dir(label: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    std::env::temp_dir().join(format!(
        "zz-pipeline-it-{label}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Compiles `circuit` on `topo` under `options` through the pass manager
/// and asserts the result is bit-identical to `legacy_compile`. The
/// session's synchronous and queued paths are held to the same oracle in
/// `tests/service.rs`.
fn assert_pass_manager_matches_legacy(topo: &Topology, circuit: &Circuit, options: CompileOptions) {
    let reference = legacy_compile(
        circuit,
        topo,
        options.method,
        options.scheduler,
        options.alpha_or_default(),
        options.k_or_default(),
        options.requirement,
    );
    let via_pipeline = PassManager::builder()
        .topology(topo.clone())
        .options(options)
        .build()
        .run(Arc::new(circuit.clone()))
        .expect("fits")
        .compiled;
    assert_eq!(reference, via_pipeline, "{options:?}: pass manager drift");
}

/// A session over `topo` with no store and process-wide calibration.
fn session_on(topo: Topology) -> Session {
    Session::new(Target::builder().topology(topo).build().expect("no store"))
}

#[test]
fn pipeline_matches_the_legacy_path_for_every_method_scheduler_pair() {
    let topo = Topology::grid(2, 3);
    let circuit = generate(BenchmarkKind::Qaoa, 6, 7);
    for (method, scheduler) in full_matrix() {
        assert_pass_manager_matches_legacy(&topo, &circuit, CompileOptions::new(method, scheduler));
    }
}

#[test]
fn pipeline_matches_the_legacy_path_for_non_default_parameters() {
    let topo = Topology::grid(3, 3);
    let circuit = generate(BenchmarkKind::Qft, 9, 7);
    for (alpha, k, requirement) in non_default_rows() {
        let mut options = CompileOptions::default().with_alpha(alpha).with_k(k);
        if let Some(r) = requirement {
            options = options.with_requirement(r);
        }
        assert_pass_manager_matches_legacy(&topo, &circuit, options);
    }
}

/// The pipeline trace of a successful traced response.
fn trace_of(outcome: &Result<CompileResponse, Error>) -> &PipelineTrace {
    outcome
        .as_ref()
        .expect("compiled")
        .trace
        .as_ref()
        .expect("requests are traced by default")
}

/// The aggregate row of `stage` in a drained report.
fn stage_row(report: &ServiceReport, stage: Stage) -> zz_service::StageStats {
    report
        .stage_stats()
        .into_iter()
        .find(|s| s.stage == stage)
        .expect("every stage has a row")
}

#[test]
fn alpha_k_sweep_reruns_zero_route_passes_in_process() {
    let target = Target::builder()
        .topology(Topology::grid(3, 3))
        .calib_cache(Arc::new(CalibCache::new()))
        .build()
        .expect("no store");
    let session = Session::with_threads(target, 1); // deterministic hit/miss split
    let circuit = Arc::new(generate(BenchmarkKind::Qaoa, 9, 7));
    let sweep: Vec<CompileOptions> = [0.0, 0.25, 0.5, 1.0]
        .into_iter()
        .map(|a| CompileOptions::default().with_alpha(a))
        .chain(
            [1usize, 2, 5]
                .into_iter()
                .map(|k| CompileOptions::default().with_k(k)),
        )
        .collect();
    let sweep_points = sweep.len();
    let report = session.run(
        sweep
            .into_iter()
            .map(|o| CompileRequest::shared(Arc::clone(&circuit)).with_options(o)),
    );
    assert_eq!(report.error_count(), 0, "{report}");

    // Exactly one job routed; every other sweep point replayed the memo.
    let route = stage_row(&report, Stage::Route);
    assert_eq!(route.executed, 1, "{report}");
    assert_eq!(route.cache_hits, sweep_points - 1, "{report}");
    assert_eq!(stage_row(&report, Stage::Lower).executed, 1, "{report}");

    // Scheduling can never be replayed across α/k changes: it ran for
    // every sweep point.
    let schedule = stage_row(&report, Stage::Schedule);
    assert_eq!(schedule.executed, sweep_points, "{report}");
    assert_eq!(schedule.cache_hits, 0, "{report}");

    // The per-job traces agree with the aggregate.
    for (i, outcome) in report.outcomes.iter().enumerate() {
        let trace = trace_of(outcome);
        let expected = if i == 0 {
            CacheDisposition::NotCached
        } else {
            CacheDisposition::MemoryHit
        };
        assert_eq!(trace.pass(Stage::Route).unwrap().cache, expected, "job {i}");
        assert!(trace.executed(Stage::Schedule), "job {i}");
    }
}

#[test]
fn alpha_sweep_routes_from_disk_across_compilers() {
    let dir = scratch_dir("alpha-sweep");
    let job = |alpha: f64| {
        CompileRequest::new(generate(BenchmarkKind::Ising, 6, 7))
            .with_options(CompileOptions::default().with_alpha(alpha))
    };
    // Each session is a fresh compiler: fresh memo, fresh calibration.
    let session = |dir: &PathBuf| {
        let target = Target::builder()
            .topology(Topology::grid(2, 3))
            .store(Arc::new(ArtifactStore::at(dir)))
            .calib_cache(Arc::new(CalibCache::new()))
            .build()
            .expect("an open store never fails the build");
        Session::with_threads(target, 1)
    };

    // The first session pays for routing once.
    let cold = session(&dir).run(vec![job(0.5)]);
    assert_eq!(cold.error_count(), 0, "{cold}");
    assert!(trace_of(&cold.outcomes[0]).executed(Stage::Route), "{cold}");

    // A *new* session sweeping *new* α values: the whole-plan artifacts
    // miss (different α), but the route/lower stage is served from the
    // disk artifact — zero route passes run.
    let warm = session(&dir).run(vec![job(0.125), job(0.75)]);
    assert_eq!(warm.error_count(), 0, "{warm}");
    assert_eq!(stage_row(&warm, Stage::Route).executed, 0, "{warm}");
    assert_eq!(
        trace_of(&warm.outcomes[0])
            .pass(Stage::Route)
            .unwrap()
            .cache,
        CacheDisposition::DiskHit,
        "{warm}"
    );
    // The second sweep point hits the memo the first one just filled.
    assert_eq!(
        trace_of(&warm.outcomes[1])
            .pass(Stage::Route)
            .unwrap()
            .cache,
        CacheDisposition::MemoryHit,
        "{warm}"
    );
    assert_eq!(stage_row(&warm, Stage::Schedule).executed, 2, "{warm}");

    // Replaying an *already-swept* α in a third session is a whole-plan
    // disk hit: no stage beyond validation runs at all.
    let replay = session(&dir).run(vec![job(0.75)]);
    let trace = trace_of(&replay.outcomes[0]);
    assert_eq!(trace.compiled_cache, CacheDisposition::DiskHit, "{replay}");
    assert!(!trace.executed(Stage::Route), "{replay}");
    assert!(!trace.executed(Stage::Schedule), "{replay}");
    assert_eq!(
        replay.outcomes[0].as_ref().expect("served").compiled,
        warm.outcomes[1].as_ref().expect("compiled").compiled,
        "disk replay must be bit-identical"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn route_only_pass_produces_the_routed_artifact() {
    let topo = Topology::grid(2, 2);
    let circuit = Arc::new(generate(BenchmarkKind::Qft, 4, 7));
    let manager = PassManager::builder().topology(topo.clone()).build();
    let mut trace = PipelineTrace::default();

    let logical = manager
        .apply(
            &ValidatePass,
            Logical {
                circuit: Arc::clone(&circuit),
            },
            CacheDisposition::NotCached,
            &mut trace,
        )
        .expect("fits");
    let routed = manager
        .apply(&RoutePass, logical, CacheDisposition::NotCached, &mut trace)
        .expect("route is infallible");

    // The typed artifact carries both the source and the routed circuit,
    // and matches a direct `route` call exactly.
    assert_eq!(*routed.source, *circuit);
    assert_eq!(routed.circuit, route(&circuit, &topo));
    assert_eq!(trace.passes.len(), 2);
    assert_eq!(trace.passes[1].stage, Stage::Route);
    assert_eq!(trace.passes[1].output_items, routed.items());

    // And lowering the routed artifact matches a direct translation.
    let native = manager
        .apply(&LowerPass, routed, CacheDisposition::NotCached, &mut trace)
        .expect("lower is infallible");
    assert_eq!(*native.circuit, compile_to_native(&route(&circuit, &topo)));
}

#[test]
fn schedule_only_run_skips_route_and_lower() {
    let topo = Topology::grid(2, 2);
    let circuit = generate(BenchmarkKind::Qft, 4, 7);
    let native = compile_to_native(&route(&circuit, &topo));
    let manager = PassManager::builder().topology(topo.clone()).build();

    let outcome = manager.run_native(&native).expect("fits");
    assert!(outcome.trace.pass(Stage::Route).is_none());
    assert!(outcome.trace.pass(Stage::Lower).is_none());
    assert!(outcome.trace.executed(Stage::Schedule));

    // Identical to the full pipeline's result on the same circuit.
    let full = manager.run(Arc::new(circuit)).expect("fits");
    assert_eq!(outcome.compiled, full.compiled);
}

#[test]
fn oversized_circuits_error_through_both_entry_points() {
    let manager = PassManager::builder()
        .topology(Topology::grid(2, 2))
        .build();
    let too_large = CoOptError::CircuitTooLarge {
        needed: 9,
        available: 4,
    };

    // The full pipeline rejects, as it always did…
    assert_eq!(
        manager.run(Arc::new(Circuit::new(9))).err(),
        Some(too_large.clone())
    );

    // …the schedule-only entry point returns the same error through the
    // validation pass instead of panicking…
    let native = compile_to_native(&Circuit::new(9));
    assert_eq!(manager.run_native(&native).err(), Some(too_large.clone()));

    // …and a session wraps it, labelled, as a typed validation error.
    let session = session_on(Topology::grid(2, 2));
    match session.compile(&CompileRequest::new(Circuit::new(9)).with_label("nine")) {
        Err(Error::Validate { job, source }) => {
            assert_eq!(job, "nine");
            assert_eq!(source, too_large);
        }
        other => panic!("expected Validate, got {other:?}"),
    }
}
