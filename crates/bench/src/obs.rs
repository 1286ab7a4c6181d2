//! Trace builders and artifact writers for the observability layer.
//!
//! Each figure harness can emit two deterministic artifacts after its
//! run (see [`BenchArgs`](crate::BenchArgs)):
//!
//! * `--metrics-out PATH` — the session registry's snapshot as sorted
//!   CSV (`MetricsSnapshot::to_csv`), byte-identical for any thread
//!   count because every golden metric is a simulated-time or integer
//!   quantity;
//! * `--trace-out PATH` — a Chrome-trace JSON of the figure's
//!   representative scenario ([`trace_for`], built by
//!   [`crate::catalogue`]), loadable in Perfetto. Spans are transfers on
//!   their first-hop link-axis track, counter series are waterfill
//!   bytes-in-flight per axis, instants are stall / resume / fault edges.
//!
//! Everything here is keyed on simulated time, so both artifacts are
//! reproducible byte-for-byte regardless of worker threads or host.

use crate::catalogue::{figure_scenarios, Representative};
use crate::runner::PlanCache;
use bgq_comm::{Machine, Program};
use bgq_netsim::{FaultPlan, ResourceId, SimConfig, SimObserver, SimOptions, SimReport};
use bgq_obs::Recorder;
use std::collections::BTreeMap;
use std::path::Path;

/// The Perfetto track a simulated resource belongs to: torus links are
/// grouped per direction (`axis +B`, ...), everything else (eleventh
/// link, ION→fs stages) lands on the `io` track.
fn resource_track(machine: &Machine, r: ResourceId) -> String {
    match machine.torus_link(r) {
        Some(link) => format!("axis {}", link.direction()),
        None => "io".to_string(),
    }
}

/// Record one executed program into `rec`:
///
/// * a span per transfer on its first-hop axis track (undelivered
///   transfers span to the end of the run and say so in their name);
/// * a `bytes_in_flight` counter series per axis from the waterfill
///   heatmap samples;
/// * instants for every stall, resume and never-started transfer.
pub fn record_run(
    rec: &Recorder,
    machine: &Machine,
    prog: &Program,
    report: &SimReport,
    obs: &SimObserver,
) {
    for (i, spec) in prog.graph().specs().iter().enumerate() {
        let track = spec
            .route
            .first()
            .map(|&r| resource_track(machine, r))
            .unwrap_or_else(|| "local".to_string());
        let start = report.flow_start_time[i];
        if !start.is_finite() {
            rec.instant("faults", &format!("t{i} never started"), report.end_time);
            continue;
        }
        let delivered = report.delivery_time[i].is_finite();
        let end = if delivered {
            report.delivery_time[i]
        } else {
            report.end_time
        };
        let name = if delivered {
            format!("t{i} n{}->n{}", spec.src, spec.dst)
        } else {
            format!("t{i} n{}->n{} (undelivered)", spec.src, spec.dst)
        };
        rec.span(&track, &name, start, end, &[("bytes", spec.bytes.to_string())]);
    }

    // Axis-aggregated bytes-in-flight counters. Only axes that ever
    // carry traffic get a series, but those get a sample per epoch
    // (zeros included) so the Perfetto area chart drops back to zero.
    let tracks: Vec<String> = (0..machine.num_resources())
        .map(|r| resource_track(machine, ResourceId(r)))
        .collect();
    let mut active: BTreeMap<&str, ()> = BTreeMap::new();
    for s in &obs.heatmap.samples {
        for &(r, v) in &s.bytes_in_flight {
            if v > 0.0 {
                active.insert(tracks[r as usize].as_str(), ());
            }
        }
    }
    for s in &obs.heatmap.samples {
        let mut sums: BTreeMap<&str, f64> = active.keys().map(|&t| (t, 0.0)).collect();
        for &(r, v) in &s.bytes_in_flight {
            if v > 0.0 {
                *sums.get_mut(tracks[r as usize].as_str()).unwrap() += v;
            }
        }
        for (track, sum) in sums {
            rec.counter(track, "bytes_in_flight", s.time, sum);
        }
    }

    for &(t, tid) in &obs.stalls {
        rec.instant("faults", &format!("stall t{tid}"), t);
    }
    for &(t, tid) in &obs.resumes {
        rec.instant("faults", &format!("resume t{tid}"), t);
    }
}

/// Run `prog` under `faults` with an observer attached and record the
/// execution into `rec`. Returns the simulation report (bit-identical
/// to an unobserved run).
pub fn run_traced(rec: &Recorder, prog: &Program, faults: &FaultPlan) -> SimReport {
    let mut obs = SimObserver::new();
    let report = prog.simulate(SimOptions::new().faults(faults).observer(&mut obs));
    record_run(rec, prog.machine(), prog, &report, &obs);
    report
}

/// Trace a catalogue scenario: one observed run per label, merged under
/// `label/` track prefixes (a single-run scenario records unprefixed).
pub fn trace_scenario(scenario: &Representative, cache: &PlanCache) -> Recorder {
    let mut runs = Vec::new();
    scenario.for_each_run(cache, &SimConfig::default(), |name, prog, faults| {
        let rec = Recorder::new();
        run_traced(&rec, prog, faults);
        runs.push((name.to_string(), rec));
    });
    if runs.len() == 1 {
        return runs.pop().expect("one run").1;
    }
    let all = Recorder::new();
    for (name, rec) in &runs {
        all.merge_prefixed(rec, &format!("{name}/"));
    }
    all
}

/// The representative trace for a figure by name (its
/// [`figure_scenarios`] trace cell), or `None` for figures without one.
pub fn trace_for(figure: &str, cache: &PlanCache) -> Option<Recorder> {
    let scenario = figure_scenarios(figure)?.trace?;
    Some(trace_scenario(&scenario, cache))
}

/// Write `contents` to `path`, creating parent directories.
pub fn write_artifact(path: &str, contents: &str) -> std::io::Result<()> {
    if let Some(dir) = Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, contents)
}

/// Emit the artifacts a figure binary was asked for: the session's
/// metrics snapshot (`--metrics-out`), the figure's representative
/// trace (`--trace-out`), its bottleneck-attribution profile
/// (`--profile-out`) and its run-ledger manifest (`--manifest-out`).
/// Call once, after the run.
pub fn emit_artifacts(args: &crate::BenchArgs, session: &crate::ExperimentSession, figure: &str) {
    if let Some(path) = &args.metrics_out {
        let snap = session
            .metrics()
            .expect("output paths imply observation")
            .snapshot();
        write_artifact(path, &snap.to_csv()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("wrote {path}");
    }
    if let Some(path) = &args.trace_out {
        match trace_for(figure, session.cache()) {
            Some(rec) => {
                write_artifact(path, &rec.to_chrome_json())
                    .unwrap_or_else(|e| panic!("write {path}: {e}"));
                eprintln!("wrote {path}");
            }
            None => eprintln!("no representative trace for {figure}; skipping {path}"),
        }
    }
    if let Some(path) = &args.profile_out {
        match crate::profile::profile_for(figure, session.cache()) {
            Some(art) => {
                art.validate()
                    .unwrap_or_else(|e| panic!("profile accounting broken: {e}"));
                write_artifact(path, &art.to_json())
                    .unwrap_or_else(|e| panic!("write {path}: {e}"));
                eprintln!("wrote {path}");
            }
            None => eprintln!("no representative profile for {figure}; skipping {path}"),
        }
    }
    if let Some(path) = &args.manifest_out {
        match crate::sentinel::manifest_for(figure, session.cache()) {
            Some(manifest) => {
                manifest
                    .validate()
                    .unwrap_or_else(|e| panic!("manifest broken: {e}"));
                write_artifact(path, &manifest.to_json())
                    .unwrap_or_else(|e| panic!("write {path}: {e}"));
                eprintln!("wrote {path}");
            }
            None => eprintln!("no representative manifest for {figure}; skipping {path}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig5_pair(bytes: u64) -> Representative {
        Representative::Pair { nodes: 128, bytes }
    }

    #[test]
    fn fig5_trace_is_valid_and_shows_both_strategies() {
        let cache = PlanCache::new();
        let rec = trace_scenario(&fig5_pair(4 << 20), &cache);
        let json = rec.to_chrome_json();
        bgq_obs::json::validate(&json).expect("chrome trace must be valid JSON");
        assert!(json.contains("direct/axis"), "direct timeline present");
        assert!(json.contains("multipath/axis"), "multipath timeline present");
        assert!(json.contains("bytes_in_flight"), "heatmap counters present");
    }

    #[test]
    fn trace_export_is_identical_across_recordings() {
        let cache = PlanCache::new();
        let a = trace_scenario(&fig5_pair(1 << 20), &cache).to_chrome_json();
        let b = trace_scenario(&fig5_pair(1 << 20), &cache).to_chrome_json();
        assert_eq!(a, b, "same inputs must serialize to the same bytes");
    }

    #[test]
    fn resilience_trace_is_loud_about_the_stall() {
        let cache = PlanCache::new();
        let cut = Representative::DirectCut { bytes: 4 << 20 };
        let json = trace_scenario(&cut, &cache).to_chrome_json();
        bgq_obs::json::validate(&json).unwrap();
        assert!(json.contains("stall t"), "direct stall instant recorded");
        assert!(json.contains("(undelivered)"), "cut route never delivers");
    }

    #[test]
    fn every_figure_with_a_trace_produces_valid_json() {
        // fig6/fig10 build big machines; keep this to the cheap ones and
        // the unknown-figure fallthrough.
        let cache = PlanCache::new();
        assert!(trace_for("fig8_9", &cache).is_none());
        let rec = trace_for("fig5", &cache).unwrap();
        bgq_obs::json::validate(&rec.to_chrome_json()).unwrap();
    }
}
