//! `zzperf`: the end-to-end and per-layer benchmark of the ZZ
//! co-optimization stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path zzperf/Cargo.toml -- \
//!     --workload paper-eval --seed 1 --seconds 30 --trace 0
//! ```
//!
//! A run sets up one workload, measures it for about `--seconds`,
//! checks every output and prints one `workload/metric = value unit`
//! line per metric, then a JSON result as its last line. It exits
//! non-zero when any output check fails. `--trace 1` prints the
//! per-layer breakdown instead, and `--workload all` runs every workload
//! in its own process. See `zzperf/README.md`.

mod checks;
mod fleet_drift;
mod harness;
mod layer_calls;
mod layers;
mod paper_eval;
mod scale_compile;
mod session_run;
mod stats;
mod trace;
mod wire_mixed;

use std::process::{Command, ExitCode};

use harness::{end_to_end, measured, trial_count, Args, Report, Trial};

/// A workload: its name, the nominal seconds one trial takes on the
/// reference machine, whether it evaluates fidelity, and its trial.
struct Workload {
    name: &'static str,
    trial_s: f64,
    evaluated: bool,
    trial: fn(u64, usize, bool) -> Trial,
}

/// Every workload, in the order `--workload all` runs them.
const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper-eval",
        trial_s: paper_eval::TRIAL_S,
        evaluated: true,
        trial: paper_eval::trial,
    },
    Workload {
        name: "scale-compile",
        trial_s: scale_compile::TRIAL_S,
        evaluated: false,
        trial: scale_compile::trial,
    },
    Workload {
        name: "wire-mixed",
        trial_s: wire_mixed::TRIAL_S,
        evaluated: true,
        trial: wire_mixed::trial,
    },
    Workload {
        name: "fleet-drift",
        trial_s: fleet_drift::TRIAL_S,
        evaluated: true,
        trial: fleet_drift::trial,
    },
];

/// Runs one workload in this process.
fn run(w: &Workload, args: &Args) -> Report {
    let trial = |i, traced| measured(|| (w.trial)(args.seed, i, traced));
    if args.trace {
        // Untraced and traced trials alternate on the same inputs, so
        // machine drift hits both sides of the overhead ratio alike.
        let pairs: Vec<(Trial, Trial)> = (0..trial_count(args.seconds, 2.0 * w.trial_s))
            .map(|i| (trial(i, false), trial(i, true)))
            .collect();
        layers::traced_report(w.name, args.seed, &pairs)
    } else {
        let trials: Vec<Trial> = (0..trial_count(args.seconds, w.trial_s))
            .map(|i| trial(i, false))
            .collect();
        end_to_end(&trials, w.evaluated)
    }
}

/// Runs every workload, each in a child process of this binary, and
/// relays their output. Fails if any child fails.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("zzperf: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in &WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("zzperf: {} exited with {s}", w.name);
                ok = false;
            }
            Err(e) => {
                eprintln!("zzperf: {}: {e}", w.name);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("zzperf: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "zzperf: unknown workload {}; expected one of {names:?} or all",
            args.workload
        );
        return ExitCode::from(2);
    };
    let report = run(w, &args);
    report.print(w.name);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
