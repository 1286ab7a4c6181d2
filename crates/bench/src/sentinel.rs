//! The bench side of the run-ledger: fold the representative scenarios'
//! results into a [`bgq_obs::RunManifest`], for the sentinel sweep
//! ([`run_ledger`]) and for a figure binary's `--manifest-out`
//! ([`manifest_for`]).
//!
//! Every scenario records three things: a **config fingerprint**
//! (topology, sizes, seeds, simulator constants — the sentinel refuses
//! to compare apples to oranges silently), the **scalar metrics** the
//! paper's argument rests on (aggregate throughput, speedup ratios,
//! stall totals, waterfill solve counts, the exchange multipath win
//! ratio), and the **profiler blame rollup** (top-N link blame and
//! critical-path facts via [`ScenarioManifest::attach_profile`]) so a
//! later regression diff can name the links that absorbed the lost
//! time. Wall-clock quantities (the scale sweep's solver timings) are
//! recorded under the `wall.` prefix and never serialized.
//!
//! Every ledger scenario except `scale` is a consumer of the scenario
//! catalogue ([`crate::catalogue`]): [`ledger_scenario`] looks the
//! figure up in the same figure → scenario table the traces and
//! profiles read and profiles the catalogue's runs, so the ledger
//! measures exactly what the artifacts show. The simulator config is
//! explicit: the sentinel binary's `--degrade-links` regression-injection
//! knob replays the same scenarios on a weakened machine, which is how
//! the acceptance path ("halve a link capacity, watch a REGRESSED
//! verdict name the link") is exercised end to end.

use crate::catalogue::{figure_scenarios, Representative};
use crate::exchange::{exchange_point_with, ExchangePattern};
use crate::profile::profile_observing;
use crate::runner::PlanCache;
use crate::scale::scale_point_with;
use bgq_netsim::{SimConfig, SimObserver};
use bgq_obs::{ProfileArtifact, RunManifest, ScenarioManifest};
use bgq_torus::CORES_PER_NODE;
use sdm_core::ExchangeAlgorithm;

/// How the ledger runs its scenarios.
#[derive(Debug, Clone)]
pub struct LedgerOptions {
    /// Simulator config every scenario runs under. The default is the
    /// calibrated machine; the sentinel binary substitutes a degraded
    /// one to inject regressions.
    pub sim: SimConfig,
    /// How many most-blamed links each profiled run contributes to the
    /// scenario's blame map.
    pub top_blame: usize,
    /// Worker threads for the scale scenario's sharded rerun (0 = run
    /// the shards in-line). Simulated metrics are thread-independent —
    /// only the non-serialized `wall.` timings see this knob.
    pub threads: usize,
}

impl Default for LedgerOptions {
    fn default() -> LedgerOptions {
        LedgerOptions {
            sim: SimConfig::default(),
            top_blame: 3,
            threads: 0,
        }
    }
}

/// Record the simulator constants that shape every scenario's numbers.
/// Part of the config fingerprint: a run on a degraded machine must not
/// diff silently against the calibrated baseline.
fn sim_config_entries(s: &mut ScenarioManifest, sim: &SimConfig) {
    s.config("sim.link_bandwidth", format!("{:?}", sim.link_bandwidth));
    s.config(
        "sim.io_link_bandwidth",
        format!("{:?}", sim.io_link_bandwidth),
    );
    s.config("sim.per_flow_cap", format!("{:?}", sim.per_flow_cap));
    s.config(
        "sim.contention_penalty",
        format!("{:?}", sim.contention_penalty),
    );
    s.config(
        "sim.contention_floor",
        format!("{:?}", sim.contention_floor),
    );
}

/// Aggregate throughput of a profiled run: payload bytes over the run's
/// end time (`0` if the run never finishes — `undelivered` metrics
/// carry that story).
fn run_throughput(art: &ProfileArtifact, run: &str) -> f64 {
    let r = art.run(run).expect("run exists");
    let bytes: u64 = r.transfers.iter().map(|t| t.bytes).sum();
    if r.end_time.is_finite() && r.end_time > 0.0 {
        bytes as f64 / r.end_time
    } else {
        0.0
    }
}

/// Fold a direct-vs-multipath profile pair into throughput + speedup
/// metrics (speedup = direct end time over multipath end time, the
/// paper's headline ratio).
fn pair_metrics(s: &mut ScenarioManifest, art: &ProfileArtifact) {
    for run in &art.runs {
        s.metric(
            &format!("{}.throughput", run.name),
            run_throughput(art, &run.name),
        );
    }
    if let (Some(d), Some(m)) = (art.run("direct"), art.run("multipath")) {
        if d.end_time.is_finite() && m.end_time.is_finite() && m.end_time > 0.0 {
            s.metric("speedup", d.end_time / m.end_time);
        }
    }
}

/// Fingerprint a catalogue scenario's size parameters.
fn scenario_config(s: &mut ScenarioManifest, scenario: &Representative) {
    match *scenario {
        Representative::Pair { nodes, bytes } => {
            s.config("nodes", nodes);
            s.config("bytes", bytes);
            s.config("proxies", 4);
        }
        Representative::AlignedCoupling { nodes, pairs, bytes }
        | Representative::FanInCoupling { nodes, pairs, bytes } => {
            s.config("nodes", nodes);
            s.config("pairs", pairs);
            s.config("bytes", bytes);
        }
        Representative::SparseWrite { cores } => {
            s.config("cores", cores);
            s.config("nodes", cores / CORES_PER_NODE);
            s.config("rank_bytes", 1u64 << 20);
        }
        Representative::DirectCut { bytes } => {
            s.config("nodes", 128);
            s.config("bytes", bytes);
            s.config("scenario", "direct_cut");
        }
        Representative::Exchange { nodes, bytes } => {
            s.config("nodes", nodes);
            s.config("pattern", "disjoint_heavy");
            s.config("bytes", bytes);
            s.config("seed", crate::exchange::EXCHANGE_SEED);
        }
    }
}

/// scale: the 512-node full-vs-incremental waterfill comparison. The
/// simulated quantities (makespan, event/solve counts) are golden; the
/// wall-clock timings ride along under `wall.` and never serialize.
fn scale_metrics(s: &mut ScenarioManifest, opts: &LedgerOptions) {
    s.config("nodes", 512);
    let p = scale_point_with(512, &opts.sim, opts.threads);
    s.metric("transfers", p.transfers as f64);
    s.metric("shards", p.shards as f64);
    s.metric("makespan", p.full.makespan);
    s.metric("events", p.full.events as f64);
    s.metric("full_mode.full_runs", p.full.full_runs as f64);
    s.metric("incremental_mode.full_runs", p.incremental.full_runs as f64);
    s.metric(
        "incremental_mode.incremental_runs",
        p.incremental.incremental_runs as f64,
    );
    s.metric("full_run_reduction", p.full_run_reduction());
    s.metric("wall.full.secs", p.full.wall_secs);
    s.metric("wall.incremental.secs", p.incremental.wall_secs);
    s.metric("wall.sharded.secs", p.sharded.wall_secs);
    s.metric("wall.speedup", p.speedup());
    s.metric("wall.parallel_speedup", p.parallel_speedup());
}

/// exchange: the sweep cell pinned as `tests/golden/exchange.csv` (all
/// three algorithms on the disjoint-heavy pattern) — throughput,
/// makespan and discovery cost per algorithm, the multipath speedup and
/// the ledger's win ratio.
fn exchange_metrics(
    s: &mut ScenarioManifest,
    cache: &PlanCache,
    opts: &LedgerOptions,
    nodes: u32,
    bytes: u64,
) {
    let pattern = ExchangePattern::DisjointHeavy { bytes };
    let point = exchange_point_with(cache, &opts.sim, nodes, pattern);
    s.metric("pairs", point.pairs as f64);
    for r in &point.results {
        let name = r.algorithm.name();
        s.metric(&format!("{name}.throughput"), r.throughput);
        s.metric(&format!("{name}.makespan"), r.makespan);
        s.metric(&format!("{name}.discovery_cost"), r.discovery_cost);
    }
    s.metric("speedup", point.speedup());
    let mp = point.result(ExchangeAlgorithm::ProxyMultipath);
    s.metric("multipath.links_claimed", mp.links_claimed as f64);
    s.metric(
        "multipath.win_ratio",
        mp.pairs_multipath as f64 / (point.pairs.max(1)) as f64,
    );
}

/// The ledger scenario of a figure, or `None` for figures without a
/// simulated execution. Each records its config fingerprint, its
/// scalar metrics and the blame rollup of the figure's profiled
/// catalogue runs:
///
/// * `fig5`, `fig7` (corner pairs) and `fig6` (the contended 4:1 fan-in
///   coupling `results/BENCH_profile_fig6.json` pins, so
///   `obs_report --cross` can check the two artifacts agree):
///   per-run throughput and the direct-over-multipath speedup;
/// * `io` (fig10/fig11): the sparse write's throughput;
/// * `resilience`: the observer rides on the catalogue's multipath run,
///   so the engine's stall/resume/fault counters land in the ledger (via
///   [`SimObserver::scalars`]) next to the profile's account of where
///   the direct run's stall went;
/// * `exchange`: the sweep cell's per-algorithm metrics;
/// * `scale`: not a catalogue run, but the 512-node full-vs-incremental
///   waterfill comparison, with its wall-clock timings under `wall.`.
pub fn ledger_scenario(
    figure: &str,
    cache: &PlanCache,
    opts: &LedgerOptions,
) -> Option<ScenarioManifest> {
    let row = figure_scenarios(figure)?;
    let mut s = ScenarioManifest::new(row.ledger);
    sim_config_entries(&mut s, &opts.sim);
    let Some(scenario) = row.profile else {
        scale_metrics(&mut s, opts);
        return Some(s);
    };
    scenario_config(&mut s, &scenario);
    // The cut scenario's observer rides on its multipath run: the
    // profile shows where the direct run's stall went, the observer
    // counts how many flows the fault epoch froze and thawed.
    let mut obs = SimObserver::new();
    let watch = matches!(scenario, Representative::DirectCut { .. })
        .then_some(("multipath", &mut obs));
    let art = profile_observing(&scenario, cache, &opts.sim, watch);
    match scenario {
        Representative::DirectCut { .. } => {
            let multipath = art.run("multipath").expect("cut scenario has a multipath run");
            s.metric("multipath.makespan", multipath.end_time);
            for (name, v) in obs.scalars("sim.") {
                s.metric(&name, v);
            }
        }
        Representative::SparseWrite { .. } => {
            s.metric("sparse_write.throughput", run_throughput(&art, "sparse_write"));
        }
        Representative::Exchange { nodes, bytes } => {
            exchange_metrics(&mut s, cache, opts, nodes, bytes);
        }
        Representative::Pair { .. }
        | Representative::AlignedCoupling { .. }
        | Representative::FanInCoupling { .. } => pair_metrics(&mut s, &art),
    }
    s.attach_profile(&art, opts.top_blame);
    Some(s)
}

/// The figures whose ledger scenarios the sentinel sweeps (fig11 shares
/// fig10's `io` scenario).
const LEDGER_FIGURES: [&str; 7] = [
    "fig5",
    "fig6",
    "fig7",
    "fig10",
    "resilience",
    "scale",
    "exchange",
];

/// Run every ledger scenario and assemble the manifest. This is what
/// the `sentinel` binary executes; scenario order in the output is
/// alphabetical regardless of execution order.
pub fn run_ledger(cache: &PlanCache, opts: &LedgerOptions) -> RunManifest {
    let mut m = RunManifest::default();
    for figure in LEDGER_FIGURES {
        m.push(ledger_scenario(figure, cache, opts).expect("ledger figure has a scenario"));
    }
    m.validate().expect("ledger manifest must validate");
    m
}

/// The single-scenario manifest for a figure binary's `--manifest-out`
/// (its [`ledger_scenario`]), or `None` for figures without a simulated
/// execution.
pub fn manifest_for(figure: &str, cache: &PlanCache) -> Option<RunManifest> {
    let mut m = RunManifest::default();
    m.push(ledger_scenario(figure, cache, &LedgerOptions::default())?);
    Some(m)
}

/// One `history.jsonl` entry for a manifest (and, when a baseline
/// comparison ran, its verdict totals). Deliberately timestamp-free:
/// the history is keyed on the manifest fingerprint so re-runs of an
/// unchanged tree append nothing new.
pub fn history_line(manifest: &RunManifest, report: Option<&bgq_obs::SentinelReport>) -> String {
    let metrics: usize = manifest
        .scenarios
        .iter()
        .map(|s| {
            s.metrics
                .iter()
                .filter(|(k, _)| !k.starts_with("wall."))
                .count()
        })
        .sum();
    let mut line = format!(
        "{{\"hash\": \"{}\", \"scenarios\": {}, \"metrics\": {metrics}",
        manifest.fingerprint(),
        manifest.scenarios.len()
    );
    if let Some(rep) = report {
        let (r, i, n) = rep.totals();
        line.push_str(&format!(
            ", \"regressed\": {r}, \"improved\": {i}, \"neutral\": {n}"
        ));
    }
    line.push('}');
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgq_obs::sentinel;

    #[test]
    fn fig5_scenario_is_deterministic_and_self_neutral() {
        let cache = PlanCache::new();
        let opts = LedgerOptions::default();
        let a = ledger_scenario("fig5", &cache, &opts).unwrap();
        let b = ledger_scenario("fig5", &cache, &opts).unwrap();
        assert_eq!(a, b, "same inputs, same scenario");
        a.validate().unwrap();
        assert!(a.metric_value("speedup").unwrap() > 1.0, "multipath wins");
        assert!(a.metric_value("direct.throughput").unwrap() > 0.0);
        assert_eq!(a.metric_value("profile.direct.undelivered"), Some(0.0));

        let mut m = RunManifest::default();
        m.push(a);
        let rep = sentinel::diff(&m, &m);
        assert!(!rep.has_regressions());
        let js = m.to_json();
        assert_eq!(RunManifest::from_json(&js).unwrap().to_json(), js);
    }

    #[test]
    fn scale_scenario_keeps_wall_metrics_out_of_the_artifact() {
        let s = ledger_scenario("scale", &PlanCache::new(), &LedgerOptions::default()).unwrap();
        assert!(s.metric_value("wall.speedup").is_some(), "kept in memory");
        assert!(s.metric_value("makespan").unwrap() > 0.0);
        assert!(s.metric_value("full_run_reduction").unwrap() >= 1.0);
        let mut m = RunManifest::default();
        m.push(s);
        assert!(!m.to_json().contains("wall."), "never serialized");
    }

    #[test]
    fn exchange_scenario_records_the_win_ratio() {
        let cache = PlanCache::new();
        let s = ledger_scenario("exchange", &cache, &LedgerOptions::default()).unwrap();
        assert_eq!(s.metric_value("pairs"), Some(8.0));
        assert!(s.metric_value("speedup").unwrap() >= 1.5, "the paper's bar");
        let win = s.metric_value("multipath.win_ratio").unwrap();
        assert!((0.0..=1.0).contains(&win));
        assert!(s.metric_value("proxy_multipath.throughput").unwrap() > 0.0);
        assert!(!s.blame.is_empty(), "profiled runs contribute blame");
    }

    #[test]
    fn degraded_links_regress_with_link_attribution() {
        // The acceptance-criteria path: halve the link capacity and the
        // sentinel must flag REGRESSED verdicts whose attribution names
        // at least one blamed link.
        let cache = PlanCache::new();
        let base_opts = LedgerOptions::default();
        let mut bad_opts = LedgerOptions::default();
        bad_opts.sim.link_bandwidth *= 0.5;
        bad_opts.sim.io_link_bandwidth *= 0.5;

        let mut base = RunManifest::default();
        base.push(ledger_scenario("fig5", &cache, &base_opts).unwrap());
        let mut cur = RunManifest::default();
        cur.push(ledger_scenario("fig5", &cache, &bad_opts).unwrap());

        let rep = sentinel::diff(&cur, &base);
        assert!(rep.has_regressions(), "halved links must regress");
        let s = &rep.scenarios[0];
        assert!(
            !s.config_drift.is_empty(),
            "degraded sim constants show as config drift"
        );
        assert!(
            s.attribution.iter().any(|l| l.contains("link ")),
            "attribution names a link: {:?}",
            s.attribution
        );
    }

    #[test]
    fn manifest_for_mirrors_the_figure_map() {
        let cache = PlanCache::new();
        assert!(manifest_for("fig8_9", &cache).is_none());
        assert!(manifest_for("nonsense", &cache).is_none());
        let m = manifest_for("scale", &cache).unwrap();
        assert!(m.scenario("scale").is_some());
    }

    #[test]
    fn history_line_is_valid_json_and_hash_keyed() {
        let mut m = RunManifest::default();
        m.push(bgq_obs::ScenarioManifest::new("x"));
        let line = history_line(&m, None);
        bgq_obs::json::validate(&line).unwrap();
        assert!(line.contains(&m.fingerprint()));
        let rep = sentinel::diff(&m, &m);
        let line2 = history_line(&m, Some(&rep));
        bgq_obs::json::validate(&line2).unwrap();
        assert!(line2.contains("\"regressed\": 0"));
    }
}
