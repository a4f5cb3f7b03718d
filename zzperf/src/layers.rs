//! The per-layer metrics of the traced run and the report that reduces
//! a traced run's trials to them.

use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::harness::{jobs_per_s, Report, Trial};
use crate::stats;
use crate::trace;

/// Every per-layer metric with its unit, in print order. A traced run
/// prints all of them; a layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("trace.jobs_per_s", "1/s"),
    ("trace.untraced_jobs_per_s", "1/s"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed_frac", "frac"),
    ("eval.us", "us"),
    ("eval.ns_per_amp_layer", "ns"),
    ("route.us", "us"),
    ("lower.us", "us"),
    ("schedule.us", "us"),
    ("pulse.us", "us"),
    ("route.memo_hit_frac", "frac"),
    ("sched.distance_queries", "count"),
    ("calib.runs", "count"),
    ("calib.us", "us"),
    ("net.frame_encode_us", "us"),
    ("net.frame_decode_us", "us"),
    ("net.request_bytes", "bytes"),
    ("net.response_bytes", "bytes"),
    ("net.roundtrip_overhead_us", "us"),
    ("net.busy", "count"),
    ("store.get_us", "us"),
    ("store.put_us", "us"),
    ("store.artifact_bytes", "bytes"),
    ("store.compiled_hit_frac", "frac"),
    ("service.queue_wait_us", "us"),
    ("service.coalesced_frac", "frac"),
    ("service.retained_kb_per_job", "kB"),
    ("fleet.submit_us", "us"),
    ("fleet.candidates_per_job", "count"),
    ("fleet.advance_epoch_us", "us"),
    ("fleet.invalidations", "count"),
    ("fleet.score_gap", "fidelity"),
];

/// Reduces a traced run — pairs of an untraced and a traced trial on the
/// same inputs — to the per-layer metrics. Each reading is the median
/// over the trials that report it; the two throughputs are pooled over
/// their trials, like the end-to-end `jobs_per_s`. The traced trial must
/// reproduce the untraced trial's outputs exactly.
pub fn traced_report(workload: &str, seed: u64, pairs: &[(Trial, Trial)]) -> Report {
    let mut report = Report::default();
    let mut readings: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (i, (untraced, traced)) in pairs.iter().enumerate() {
        for t in [untraced, traced] {
            report.attempted += t.latency_ms.len();
            report.failed += t.latency_ms.iter().filter(|l| l.is_none()).count();
            report
                .problems
                .extend(t.problems.iter().map(|p| format!("trial {i}: {p}")));
            for &(name, value) in &t.layers {
                readings.entry(name).or_default().push(value);
            }
        }
        if untraced.digest != traced.digest {
            report.problems.push(format!(
                "trial {i}: the traced run's outputs differ from the untraced run's"
            ));
        }
    }
    let untraced = jobs_per_s(pairs.iter().map(|(u, _)| u));
    let traced = jobs_per_s(pairs.iter().map(|(_, t)| t));
    readings.insert("trace.jobs_per_s", vec![traced]);
    readings.insert("trace.untraced_jobs_per_s", vec![untraced]);
    readings.insert("trace.overhead_frac", vec![1.0 - traced / untraced]);

    let path = PathBuf::from(".zzperf_scratch").join(format!("spans-{workload}-{seed}.ndjson"));
    match trace::write_ndjson(&path, pairs.iter().map(|(_, t)| t.spans.as_slice())) {
        Ok(()) => report.note(format!("spans written to {}", path.display())),
        Err(e) => report
            .problems
            .push(format!("writing {}: {e}", path.display())),
    }
    report.note(format!(
        "{} trial pairs; overhead_frac = 1 - traced/untraced jobs_per_s; \
         layers this workload does not exercise read 0",
        pairs.len()
    ));
    for (name, unit) in PER_LAYER {
        let value = readings.get(name).map_or(0.0, |v| stats::median(v));
        report.metric(name, value, unit);
    }
    report
}
