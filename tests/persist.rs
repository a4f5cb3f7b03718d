//! Integration tests of the on-disk compilation cache: a warm start in a
//! fresh session with reset calibration state must reproduce the cold
//! pass bit-identically with zero recompilation, and every failure mode of
//! the cache (corruption, truncation, stale versions, unwritable
//! directories) must degrade to recompilation — never to an error.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use zz_circuit::bench::{generate, BenchmarkKind};
use zz_core::calib::CalibCache;
use zz_core::pipeline::CacheDisposition;
use zz_core::{CompileOptions, PulseMethod, SchedulerKind, Stage};
use zz_persist::ArtifactStore;
use zz_service::{CompileRequest, CompileResponse, Error, ServiceReport, Session, Target};
use zz_topology::Topology;

fn scratch_dir(label: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    std::env::temp_dir().join(format!(
        "zz-persist-it-{label}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A small suite exercising both schedulers, three pulse methods and two
/// distinct circuit shapes.
fn suite_requests() -> Vec<CompileRequest> {
    let configs = [
        (PulseMethod::Gaussian, SchedulerKind::ParSched),
        (PulseMethod::Pert, SchedulerKind::ZzxSched),
        (PulseMethod::Dcg, SchedulerKind::ZzxSched),
    ];
    [(BenchmarkKind::Qft, 4), (BenchmarkKind::Ising, 6)]
        .into_iter()
        .flat_map(|(kind, n)| {
            let circuit = Arc::new(generate(kind, n, 7));
            configs.iter().map(move |&(m, s)| {
                CompileRequest::shared(Arc::clone(&circuit))
                    .with_options(CompileOptions::new(m, s))
                    .with_label(format!("{kind}-{n}/{m}+{s}"))
            })
        })
        .collect()
}

/// A session over `suite_requests()`-sized devices with isolated
/// calibration state, backed by `store` (or by no store at all).
fn session_with(store: Option<ArtifactStore>, calib: Arc<CalibCache>) -> Session {
    let mut target = Target::builder()
        .topology(Topology::grid(3, 3))
        .calib_cache(calib);
    if let Some(store) = store {
        target = target.store(Arc::new(store));
    }
    Session::new(target.build().expect("an open store never fails the build"))
}

/// Runs the suite through a fresh session backed by the store at `dir`.
fn run_suite_at(dir: &PathBuf, calib: Arc<CalibCache>) -> ServiceReport {
    session_with(Some(ArtifactStore::at(dir)), calib).run(suite_requests())
}

/// The compiled response of a successful outcome.
fn response(outcome: &Result<CompileResponse, Error>) -> &CompileResponse {
    outcome.as_ref().expect("compiled")
}

#[test]
fn warm_start_is_bit_identical_with_zero_calibration_and_routing() {
    let dir = scratch_dir("warm");
    let jobs = suite_requests().len();

    // Cold pass: fresh cache directory, fresh calibration state — every
    // job misses disk, calibration actually measures, every shape routes.
    let cold_calib = Arc::new(CalibCache::new());
    let cold = run_suite_at(&dir, Arc::clone(&cold_calib));
    assert_eq!(cold.error_count(), 0, "{cold}");
    assert_eq!(cold.disk_hits, 0, "{cold}");
    assert_eq!(cold.disk_misses, jobs, "{cold}");
    assert!(cold.calibration_runs > 0, "{cold}");
    assert!(cold.route_misses > 0, "{cold}");
    assert_eq!(cold_calib.calibration_runs(), cold.calibration_runs);

    // Warm pass: a *new* session and *reset* calibration state, backed by
    // the same directory. Everything must come from disk: zero pulse-level
    // measurements, zero routing passes, all compiled plans served.
    let warm_calib = Arc::new(CalibCache::new());
    let warm = run_suite_at(&dir, Arc::clone(&warm_calib));
    assert_eq!(warm.error_count(), 0, "{warm}");
    assert_eq!(warm.calibration_runs, 0, "{warm}");
    assert_eq!(warm_calib.calibration_runs(), 0);
    assert_eq!(warm.route_misses, 0, "{warm}");
    assert_eq!(warm.disk_hits, jobs, "{warm}");
    assert_eq!(warm.disk_misses, 0, "{warm}");

    // The stage traces agree: every warm job is a whole-plan disk hit,
    // so no stage beyond validation executed anywhere in the batch.
    for stats in warm.stage_stats() {
        if stats.stage == Stage::Validate {
            assert_eq!(stats.executed, jobs, "{warm}");
        } else {
            assert_eq!(stats.executed, 0, "warm {} ran: {warm}", stats.stage);
        }
    }
    for outcome in warm.successes() {
        let trace = outcome.trace.as_ref().expect("traced");
        assert_eq!(
            trace.compiled_cache,
            CacheDisposition::DiskHit,
            "{}",
            outcome.label
        );
    }

    // And the outputs are bit-identical, field for field.
    for (c, w) in cold.outcomes.iter().zip(&warm.outcomes) {
        let (c, w) = (response(c), response(w));
        assert_eq!(
            c.compiled, w.compiled,
            "{} diverged across the disk round-trip",
            c.label
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damaged_cache_files_are_recompiled_silently() {
    let dir = scratch_dir("damaged");
    let jobs = suite_requests().len();
    let cold = run_suite_at(&dir, Arc::new(CalibCache::new()));
    assert_eq!(cold.error_count(), 0, "{cold}");

    // Damage every artifact in the cache in a rotating style: truncate,
    // corrupt a payload byte, stamp a stale schema version.
    let mut damaged = 0usize;
    let mut files: Vec<PathBuf> = Vec::new();
    for entry in walk(&dir) {
        files.push(entry);
    }
    files.sort();
    assert!(!files.is_empty(), "cold pass must populate the cache");
    for (i, path) in files.iter().enumerate() {
        let bytes = std::fs::read(path).expect("artifact readable");
        let mangled = match i % 3 {
            0 => bytes[..bytes.len() / 2].to_vec(), // truncated
            1 => {
                let mut b = bytes;
                let last = b.len() - 1;
                b[last] ^= 0x55; // corrupted payload
                b
            }
            _ => {
                let mut b = bytes;
                b[4..8].copy_from_slice(&u32::MAX.to_le_bytes()); // stale version
                b
            }
        };
        std::fs::write(path, mangled).expect("artifact writable");
        damaged += 1;
    }
    assert!(damaged >= jobs, "every compiled artifact damaged");

    // The warm pass sees only damaged files: every read is a miss, every
    // job recompiles successfully, and the outputs still match the cold
    // pass bit for bit.
    let recovery = run_suite_at(&dir, Arc::new(CalibCache::new()));
    assert_eq!(recovery.error_count(), 0, "{recovery}");
    assert_eq!(recovery.disk_hits, 0, "{recovery}");
    assert_eq!(recovery.disk_misses, jobs, "{recovery}");
    assert!(recovery.calibration_runs > 0, "{recovery}");
    for (c, r) in cold.outcomes.iter().zip(&recovery.outcomes) {
        let (c, r) = (response(c), response(r));
        assert_eq!(
            c.compiled, r.compiled,
            "{} diverged after cache damage",
            c.label
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unwritable_cache_dir_degrades_to_in_memory_compilation() {
    // Root the store under a regular *file*, so neither directories nor
    // artifacts can ever be created: the session must behave exactly like
    // a store-less one, erroring nowhere. (`TargetBuilder::store_dir`
    // would reject this root up front; an already-open store degrades.)
    let dir = scratch_dir("unwritable");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, b"not a directory").expect("blocker file");

    let jobs = suite_requests().len();
    let report = run_suite_at(&blocker.join("cache"), Arc::new(CalibCache::new()));
    assert_eq!(report.error_count(), 0, "{report}");
    assert_eq!(report.disk_hits, 0, "{report}");
    assert_eq!(report.disk_misses, jobs, "{report}");

    // Same results as a session with no store at all.
    let baseline = session_with(None, Arc::new(CalibCache::new())).run(suite_requests());
    for (a, b) in report.outcomes.iter().zip(&baseline.outcomes) {
        let (a, b) = (response(a), response(b));
        assert_eq!(
            a.compiled, b.compiled,
            "{} diverged between degraded-store and store-less compilation",
            a.label
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn calib_cache_snapshots_roundtrip_through_a_store() {
    let dir = scratch_dir("calib-snapshot");
    let store = ArtifactStore::at(&dir);

    let source = CalibCache::new();
    source.residuals(PulseMethod::Gaussian);
    source.residuals(PulseMethod::Pert);
    assert_eq!(source.calibration_runs(), 2);
    assert_eq!(source.save_to(&store), 2);

    // A fresh cache imports both tables from disk without measuring.
    let restored = CalibCache::new();
    assert_eq!(restored.load_from(&store), 2);
    assert_eq!(restored.calibration_runs(), 0);
    for m in [PulseMethod::Gaussian, PulseMethod::Pert] {
        assert_eq!(restored.peek(m), Some(source.residuals(m)), "{m}");
    }
    // Unmeasured methods stay empty, and importing over a filled slot is a
    // no-op (already-measured tables win).
    assert_eq!(restored.peek(PulseMethod::Dcg), None);
    assert_eq!(restored.import(&source.snapshot()), 0);

    // A store without a snapshot is a silent no-op.
    let empty = ArtifactStore::at(dir.join("empty"));
    assert_eq!(CalibCache::new().load_from(&empty), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recursively lists the files under `dir`.
fn walk(dir: &PathBuf) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            out.extend(walk(&path));
        } else {
            out.push(path);
        }
    }
    out
}
