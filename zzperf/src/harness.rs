//! What every workload shares: arguments, seeded input streams, the
//! trial loop, process memory readings and the result printer.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use zz_core::{Compiled, PulseMethod, SchedulerKind};
use zz_persist::{fnv1a, fnv1a_mix, Encode, Encoder};

use crate::stats::{self, Latencies};
use crate::trace::Span;

/// Caller threads (or connections) driving a closed-loop workload: the
/// core count of the reference machine, fixed so the offered load does
/// not depend on where the benchmark runs.
pub const CALLERS: usize = 2;

/// Fewest trials a run makes, however long each takes.
const MIN_TRIALS: usize = 3;

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name (or `all`).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// How long to keep starting trials, seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    ///
    /// # Errors
    ///
    /// Describes the first malformed or missing argument.
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0_f64, false);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if !(seconds > 0.0 && seconds.is_finite()) {
            return Err("--seconds must be positive".into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// The input seed of trial `index` of a run with seed `seed`. Every
/// trial draws fresh inputs, so a run averages over many circuits and a
/// run's figures depend little on which seed it was given.
pub fn trial_seed(seed: u64, index: usize) -> u64 {
    Rng::new(seed, index as u64 + 1).next()
}

/// SplitMix64: the stream every workload derives its inputs from.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated from other streams by `tag`.
    pub fn new(seed: u64, tag: u64) -> Self {
        let mut rng = Rng(seed ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next();
        rng
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Digest of one compiled output: its codec bytes plus the fidelity
/// bits, so two outputs agree exactly when their digests do.
pub fn output_digest(compiled: &Compiled, fidelity: Option<f64>) -> u64 {
    let mut enc = Encoder::new();
    compiled.encode(&mut enc);
    let h = fnv1a(&enc.finish());
    fnv1a_mix(h, fidelity.map_or(u64::MAX, f64::to_bits))
}

/// Plan-quality figures of one job (the deterministic metrics).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlanFigures {
    /// `PlanSummary::residual_zz_weight`, coupling-ns.
    pub residual_zz: f64,
    /// Plan duration, µs.
    pub duration_us: f64,
    /// Simulated fidelity, when the job was evaluated.
    pub fidelity: Option<f64>,
    /// The scheduler that made the plan.
    pub scheduler: SchedulerKind,
    /// What the plan was compiled from: the source circuit's content
    /// digest, the device size and the pulse method. Plans with equal
    /// sources are the same job under different schedulers.
    pub source: (u64, usize, PulseMethod),
}

impl PlanFigures {
    /// The figures of a plan compiled from the circuit with content
    /// digest `circuit`, under its own durations.
    pub fn of(
        compiled: &Compiled,
        circuit: u64,
        scheduler: SchedulerKind,
        fidelity: Option<f64>,
    ) -> Self {
        let summary = compiled.plan.summary(&compiled.durations);
        PlanFigures {
            residual_zz: summary.residual_zz_weight,
            duration_us: summary.duration_ns / 1e3,
            fidelity,
            scheduler,
            source: (circuit, compiled.topology.qubit_count(), compiled.method),
        }
    }
}

/// How many sources were compiled under both schedulers, and on how
/// many of them ZZXSched's plan carries more residual ZZ than
/// ParSched's — the plans where the paper's scheduler loses on its own
/// cost metric.
fn zzx_losses(figures: &[PlanFigures]) -> (usize, usize) {
    let mut pairs: HashMap<(u64, usize, PulseMethod), [Option<f64>; 2]> = HashMap::new();
    for f in figures {
        let slot = usize::from(f.scheduler == SchedulerKind::ZzxSched);
        pairs.entry(f.source).or_default()[slot] = Some(f.residual_zz);
    }
    pairs
        .values()
        .filter_map(|pair| match pair {
            [Some(par), Some(zzx)] => Some(zzx > par),
            _ => None,
        })
        .fold((0, 0), |(both, lost), worse| {
            (both + 1, lost + usize::from(worse))
        })
}

/// One trial: a fresh system set up, a fixed job count run through it,
/// and its outputs checked.
#[derive(Debug, Default)]
pub struct Trial {
    /// Set-up time, seconds.
    pub setup_s: f64,
    /// Wall time of the timed phase, seconds.
    pub wall_s: f64,
    /// Per-job latency (ms) in job order; `None` for a job that failed
    /// or whose output failed a check.
    pub latency_ms: Vec<Option<f64>>,
    /// Plan figures of every completed job, in job order.
    pub figures: Vec<PlanFigures>,
    /// Digest over every output in job order.
    pub digest: u64,
    /// Check failures, one line each.
    pub problems: Vec<String>,
    /// Per-layer readings, by per-layer metric name.
    pub layers: Vec<(&'static str, f64)>,
    /// Spans recorded by a traced trial.
    pub spans: Vec<Span>,
    /// Peak resident set during the trial, kB (see [`measured`]).
    pub peak_rss_kb: u64,
}

impl Trial {
    /// Records a per-layer reading.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.push((name, value));
    }

    /// Jobs that completed and passed their checks.
    pub fn completed(&self) -> usize {
        self.latency_ms.iter().flatten().count()
    }
}

/// Completed jobs per second over the timed phases of all `trials`
/// together: every job done in the run, over every second spent on
/// them.
///
/// Pooled rather than the median of per-trial rates, because the shared
/// host's speed swings by ±25% from one second to the next and by ±15%
/// over minutes. A median picks one trial's rate and with it that trial's
/// moment; the pooled rate weighs each moment of the run by how long it
/// lasted. Over 260 consecutive `wire-mixed` trials cut into runs of 11,
/// the spread of the run figure fell from 0.24 to 0.16 of its median.
pub fn jobs_per_s<'a>(trials: impl IntoIterator<Item = &'a Trial>) -> f64 {
    let (jobs, wall) = trials.into_iter().fold((0, 0.0), |(jobs, wall), t| {
        (jobs + t.completed(), wall + t.wall_s)
    });
    jobs as f64 / wall
}

/// Times `f`, returning its result and the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// How many trials fill `seconds` when one takes `nominal_s` on the
/// reference machine (2 cores), and never fewer than [`MIN_TRIALS`].
///
/// The count depends on the arguments only, never on how fast this
/// machine runs: every run of a workload does the same work, so the
/// sample counts — and with them the tail percentile — stay fixed, and
/// a slower build takes longer instead of measuring less.
pub fn trial_count(seconds: f64, nominal_s: f64) -> usize {
    ((seconds / nominal_s).round() as usize).max(MIN_TRIALS)
}

/// Hands memory the last trial freed back to the operating system, so
/// every trial's peak starts from the same resident baseline. Without
/// it, glibc keeps freed heap pages (its mmap threshold rises after the
/// first large free), and `VmHWM` creeps up trial after trial by an
/// amount that depends on allocation history rather than on the
/// workload.
pub fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: `malloc_trim` is glibc's own entry point with this
        // signature; it only returns free heap pages to the kernel and
        // touches no memory the program still owns.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Runs `trial` as a measured trial: freed memory is returned to the
/// operating system and the process's `VmHWM` is reset to its current
/// resident size (Linux `clear_refs` code 5) first, so the trial's
/// `peak_rss_kb` is the peak of that trial alone. Where the reset is
/// unavailable, the reading is the process-wide peak so far.
pub fn measured(trial: impl FnOnce() -> Trial) -> Trial {
    release_freed_memory();
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let mut t = trial();
    t.peak_rss_kb = proc_status_kb("VmHWM");
    t
}

/// A `/proc/self/status` field in kB (`VmHWM`, `VmRSS`); 0 where the
/// file is unavailable.
pub fn proc_status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field) && l[field.len()..].starts_with(':'))
                .and_then(|l| l.split_whitespace().nth(1)?.parse().ok())
        })
        .unwrap_or(0)
}

/// One metric line of the result.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run: metrics, notes for the human reader, and the
/// accounting the final JSON line carries.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Free-form lines printed before the metrics.
    pub notes: Vec<String>,
    /// Check failures.
    pub problems: Vec<String>,
    /// Jobs attempted.
    pub attempted: usize,
    /// Jobs failed.
    pub failed: usize,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Adds the geometric mean of `values` as a metric; an empty sample
    /// or a non-positive value is a check failure instead.
    pub fn geomean(&mut self, name: &'static str, values: &[f64], unit: &'static str) {
        match stats::geomean(values) {
            Some(g) => self.metric(name, g, unit),
            None => self
                .problems
                .push(format!("{name}: no positive values to average")),
        }
    }

    /// Adds a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every output passed its checks.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// Prints the notes, one `name = value unit` line per metric, and
    /// the JSON result as the last line of standard output.
    pub fn print(&self, workload: &str) {
        for line in &self.notes {
            println!("# {workload}: {line}");
        }
        for p in &self.problems {
            println!("# {workload}: CHECK FAILED: {p}");
        }
        for m in &self.metrics {
            println!("{workload}/{} = {} {}", m.name, m.value, m.unit);
        }
        println!("{}", self.json());
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed,
        );
        for (i, m) in self.metrics.iter().enumerate() {
            // JSON has no infinities: an unbounded latency (failures
            // reaching the tail) prints as the largest finite double.
            let value = if m.value.is_finite() {
                m.value
            } else {
                f64::MAX
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Reduces the trials of an untraced run to the end-to-end metrics.
/// `evaluated` says whether this workload reports simulated fidelity.
pub fn end_to_end(trials: &[Trial], evaluated: bool) -> Report {
    let mut report = Report::default();
    let mut lat = Latencies::default();
    let mut digest = 0;
    for (i, t) in trials.iter().enumerate() {
        for outcome in &t.latency_ms {
            lat.record(*outcome);
        }
        report
            .problems
            .extend(t.problems.iter().map(|p| format!("trial {i}: {p}")));
        digest = fnv1a_mix(digest, t.digest);
    }
    report.note(format!(
        "output digest {digest:016x} (equal on every run with this seed)"
    ));
    report.attempted = lat.attempted();
    report.failed = lat.failures();

    let setup: Vec<f64> = trials.iter().map(|t| t.setup_s).collect();
    report.note(format!(
        "{} trials of {} jobs",
        trials.len(),
        trials[0].latency_ms.len()
    ));
    // Calibration, nearly all of a set-up, runs at one of two speeds on
    // the shared host, trial by trial (about 6 or 10 ms on wire-mixed);
    // a median of the run's set-ups jumped between them from run to run.
    report.metric("setup_s", stats::interquartile_mean(&setup), "s");
    report.metric("jobs_per_s", jobs_per_s(trials), "1/s");
    match stats::summarize(&lat) {
        Some((p50, tail)) => {
            report.note(format!(
                "latency_tail_ms is p{} over {} samples ({} beyond it)",
                tail.percentile, tail.samples, tail.beyond
            ));
            report.metric("latency_p50_ms", p50, "ms");
            report.metric("latency_tail_ms", tail.value, "ms");
        }
        None => report.problems.push(format!(
            "{} latency samples are too few for a tail",
            lat.attempted()
        )),
    }
    let peaks: Vec<f64> = trials
        .iter()
        .map(|t| t.peak_rss_kb as f64 / 1024.0)
        .collect();
    report.metric("peak_rss_mb", stats::median(&peaks), "MB");
    report.metric(
        "ok_frac",
        1.0 - report.failed as f64 / report.attempted.max(1) as f64,
        "frac",
    );

    let figures: Vec<PlanFigures> = trials
        .iter()
        .flat_map(|t| t.figures.iter().copied())
        .collect();
    // A fully suppressed plan has zero residual weight; the shift of one
    // coupling-ns keeps it in the mean (typical plans weigh thousands).
    let residual: Vec<f64> = figures.iter().map(|f| f.residual_zz + 1.0).collect();
    let duration: Vec<f64> = figures.iter().map(|f| f.duration_us).collect();
    let fidelity: Vec<f64> = figures.iter().filter_map(|f| f.fidelity).collect();
    for scheduler in [SchedulerKind::ParSched, SchedulerKind::ZzxSched] {
        let own: Vec<f64> = figures
            .iter()
            .filter(|f| f.scheduler == scheduler)
            .map(|f| f.residual_zz + 1.0)
            .collect();
        if let Some(g) = stats::geomean(&own) {
            report.note(format!(
                "residual_zz_geomean under {scheduler:?} alone: {g} coupling-ns over {} plans",
                own.len()
            ));
        }
    }
    let (both, lost) = zzx_losses(&figures);
    if both > 0 {
        report.note(format!(
            "ZZXSched left more residual ZZ than ParSched on {lost} of {both} circuits compiled under both"
        ));
    }
    report.geomean("residual_zz_geomean", &residual, "coupling-ns");
    report.geomean("plan_duration_geomean_us", &duration, "us");
    if evaluated {
        report.geomean("fidelity_geomean", &fidelity, "fidelity");
    } else {
        report.note("fidelity_geomean: not evaluated on this workload; reported as 1");
        report.metric("fidelity_geomean", 1.0, "fidelity");
    }
    report
}
