//! The pulse and scheduling co-optimization framework (the paper's
//! contribution, assembled from the workspace substrates).
//!
//! A [`PassManager`] pairs a pulse-optimization method (`Gaussian`,
//! `OptCtrl`, `Pert`, `DCG`) with a scheduling policy (`ParSched`,
//! `ZZXSched`) and compiles logical circuits end to end:
//!
//! 1. route onto the device topology ([`zz_circuit::route`]),
//! 2. translate to the native gate set ([`zz_circuit::native`]),
//! 3. schedule into layers with identity supplementation
//!    ([`zz_sched`]),
//! 4. attach the method's calibrated pulses and their *measured*
//!    cross-region residual factor ([`calib`]),
//!
//! after which [`evaluate`] scores the compiled circuit under the ZZ (and
//! optionally decoherence) error model of [`zz_sim`].
//!
//! [`pipeline`] models those stages as typed passes
//! (`Logical → Routed → Native → Scheduled → Compiled`) with per-pass
//! instrumentation ([`PipelineTrace`]) and stage-granular caching: a
//! shared routing memo, the calibration cache ([`calib::CalibCache`])
//! and, backed by an on-disk [`zz_persist::ArtifactStore`], artifacts
//! that persist across processes ([`persist`] holds the codec glue), so
//! a warm start skips calibration and routing entirely.
//!
//! Applications compile through `zz_service::Session`, which runs one
//! [`PassManager`] per request over a shared memo, calibration cache and
//! store; this crate cannot depend on it, so the examples here drive the
//! pass manager directly.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use zz_core::{PassManager, PulseMethod, SchedulerKind};
//! use zz_circuit::bench::{generate, BenchmarkKind};
//! use zz_topology::Topology;
//!
//! let topo = Topology::grid(3, 4);
//! let circuit = Arc::new(generate(BenchmarkKind::Qaoa, 6, 1));
//!
//! let baseline = PassManager::builder()
//!     .topology(topo.clone())
//!     .pulse_method(PulseMethod::Gaussian)
//!     .scheduler(SchedulerKind::ParSched)
//!     .build();
//! let ours = PassManager::builder()
//!     .topology(topo)
//!     .pulse_method(PulseMethod::Pert)
//!     .scheduler(SchedulerKind::ZzxSched)
//!     .build();
//!
//! let a = baseline.run(Arc::clone(&circuit))?.compiled;
//! let b = ours.run(circuit)?.compiled;
//! assert!(b.plan.mean_nc() <= a.plan.mean_nc());
//! # Ok::<(), zz_core::CoOptError>(())
//! ```

#![warn(missing_docs)]

pub mod calib;
pub mod evaluate;
pub mod options;
pub mod persist;
pub mod pipeline;

pub use options::CompileOptions;
pub use pipeline::{
    CoOptError, Compiled, DiskStatus, PassManager, PassManagerBuilder, PipelineOutcome,
    PipelineTrace, SchedulerKind, Stage, StageStats,
};
pub use zz_pulse::library::PulseMethod;
