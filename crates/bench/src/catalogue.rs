//! The representative-scenario catalogue: every run the figure artifacts
//! record, built in exactly one place.
//!
//! A [`Representative`] names one scenario with its size parameters.
//! [`Representative::for_each_run`] plans it on its machine and yields
//! labeled runs `(name, Program, FaultPlan)`; each artifact is a consumer
//! of those runs:
//!
//! * a Chrome trace ([`crate::obs::trace_scenario`]) records one observed
//!   execution per label, merged under `label/` (a single-run scenario
//!   records without a prefix);
//! * a bottleneck profile ([`crate::profile::profile_scenario`]) profiles
//!   one execution per label;
//! * the run ledger ([`crate::sentinel::ledger_scenario`]) profiles the
//!   same runs and folds them into a scenario manifest.
//!
//! [`figure_scenarios`] is the one figure → scenario table that
//! `trace_for`, `profile_for` and `manifest_for` read, so a figure's
//! trace, profile and manifest cannot drift apart.

use crate::resilience::{fault_plan_for, Scenario};
use crate::runner::PlanCache;
use bgq_comm::{Machine, Program};
use bgq_netsim::{FaultPlan, SimConfig};
use bgq_torus::{shape_for_cores, standard_shape, NodeId, RankMap, Zone, CORES_PER_NODE};
use sdm_core::{
    plan_direct, plan_group_direct, plan_group_via, plan_via_proxies, ExchangeAlgorithm,
    IoMoveOptions, MultipathOptions, NeighborhoodExchange, ProxySearchConfig,
};
use std::collections::HashSet;

/// Message size for representative runs: large enough that multipath
/// beats direct on the fig5 pair, small enough that the trace stays a
/// few kilobytes.
pub const TRACE_BYTES: u64 = 32 << 20;

/// One representative scenario and its size parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Representative {
    /// The corner pair (first and last node) of an `nodes`-node
    /// partition: a `direct` run and a 4-proxy `multipath` run.
    Pair { nodes: u32, bytes: u64 },
    /// Group coupling (fig6's first plane): the first `pairs` nodes send
    /// one-to-one to the opposed slab, `direct` vs. proxy-group
    /// `multipath`. Collision-free by construction, so its direct
    /// baseline is bound by the per-flow protocol cap.
    AlignedCoupling { nodes: u32, pairs: u32, bytes: u64 },
    /// Contended group coupling: the first `pairs` nodes couple to the
    /// opposed slab under a **4:1 fan-in** — source `i` sends to slab
    /// node `i mod (pairs/4)`, so every destination's ingress links carry
    /// four flows and the dimension-ordered routes converge on shared
    /// corridor links. The `direct` run names the converging links; the
    /// per-pair 4-proxy `multipath` run shows the same seconds spread
    /// over the proxy-path links. This is the profiler's congestion
    /// scenario.
    FanInCoupling { nodes: u32, pairs: u32, bytes: u64 },
    /// The topology-aware sparse collective write (nodes → aggregators →
    /// bridges → IONs) at `cores`, uniform 1 MB ranks, chunked like the
    /// weak-scaling figures: one `sparse_write` run.
    SparseWrite { cores: u32 },
    /// The 128-node corner pair under the direct-route cut: the
    /// deterministic route's first link dies halfway through the
    /// fault-free direct transfer. The `direct` run stalls and never
    /// delivers; the `multipath` run routes over link-disjoint proxies.
    DirectCut { bytes: u64 },
    /// The disjoint-heavy neighborhood exchange on an `nodes`-node
    /// partition, one run per [`ExchangeAlgorithm`] (labeled by its
    /// name): direct puts, SDDE-style consensus discovery, and
    /// ledger-coordinated proxy multipath.
    Exchange { nodes: u32, bytes: u64 },
}

/// What each artifact of one figure runs — a row of the figure →
/// scenario table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FigureScenarios {
    /// The figure's run-ledger scenario name.
    pub ledger: &'static str,
    /// The scenario `--trace-out` records, if any.
    pub trace: Option<Representative>,
    /// The scenario `--profile-out` profiles and the ledger folds in;
    /// `None` when the ledger scenario is not a catalogue run (`scale`).
    pub profile: Option<Representative>,
}

/// The figure → scenario table, or `None` for figures without a
/// simulated execution. Fig. 6 keeps two cells: its trace shows the
/// aligned group plan the figure sweeps, while its profile (pinned by
/// `results/BENCH_profile_fig6.json`) and ledger scenario use the 4:1
/// fan-in, where per-link blame has something to say.
pub fn figure_scenarios(figure: &str) -> Option<FigureScenarios> {
    use Representative::*;
    let bytes = TRACE_BYTES;
    let same = |ledger, r| (ledger, Some(r), Some(r));
    let (ledger, trace, profile) = match figure {
        "fig5" => same("fig5", Pair { nodes: 128, bytes }),
        "fig6" => {
            let (nodes, pairs) = (2048, 128);
            let aligned = AlignedCoupling { nodes, pairs, bytes };
            ("fig6", Some(aligned), Some(FanInCoupling { nodes, pairs, bytes }))
        }
        "fig7" => same("fig7", Pair { nodes: 512, bytes }),
        "fig10" | "fig11" => same("io", SparseWrite { cores: 2048 }),
        "resilience" => same("resilience", DirectCut { bytes }),
        "exchange" => ("exchange", None, Some(Exchange { nodes: 512, bytes })),
        "scale" => ("scale", None, None),
        _ => return None,
    };
    Some(FigureScenarios { ledger, trace, profile })
}

/// The pair's 4-proxy selection (memoized by the cache).
fn four_proxies(cache: &PlanCache, machine: &Machine, src: NodeId, dst: NodeId) -> Vec<NodeId> {
    let cfg = ProxySearchConfig { max_proxies: 4, ..Default::default() };
    cache.proxies(machine.shape(), Zone::Z2, src, dst, &HashSet::new(), &cfg).proxies()
}

impl Representative {
    /// Plan the scenario on a machine built under `sim` and hand each
    /// labeled run to `each`, in a fixed order. Planning is a pure
    /// function of the scenario (the cache only memoizes), so every
    /// consumer sees the same programs.
    pub fn for_each_run(
        &self,
        cache: &PlanCache,
        sim: &SimConfig,
        mut each: impl FnMut(&str, &Program, &FaultPlan),
    ) {
        let none = FaultPlan::new();
        match *self {
            Representative::Pair { nodes, bytes } => {
                let machine = cache.machine(standard_shape(nodes).unwrap(), sim);
                let (src, dst) = (NodeId(0), NodeId(machine.num_nodes() - 1));
                let mut pd = Program::new(&machine);
                plan_direct(&mut pd, src, dst, bytes);
                each("direct", &pd, &none);
                let mut pm = Program::new(&machine);
                let proxies = four_proxies(cache, &machine, src, dst);
                plan_via_proxies(&mut pm, src, dst, bytes, &proxies, &MultipathOptions::default());
                each("multipath", &pm, &none);
            }
            Representative::DirectCut { bytes } => {
                let machine = cache.machine(standard_shape(128).unwrap(), sim);
                let (src, dst) = (NodeId(0), NodeId(127));
                let mut pd = Program::new(&machine);
                let hd = plan_direct(&mut pd, src, dst, bytes);
                let t0 = hd.completed_at(&pd.run());
                let cut = fault_plan_for(&machine, &Scenario::DirectCut, t0);
                each("direct", &pd, &cut);
                let mut pm = Program::new(&machine);
                let proxies = four_proxies(cache, &machine, src, dst);
                plan_via_proxies(&mut pm, src, dst, bytes, &proxies, &MultipathOptions::default());
                each("multipath", &pm, &cut);
            }
            Representative::AlignedCoupling { nodes, pairs, bytes } => {
                let machine = cache.machine(standard_shape(nodes).unwrap(), sim);
                let n = machine.shape().num_nodes();
                let sources: Vec<NodeId> = (0..pairs).map(NodeId).collect();
                let dests: Vec<NodeId> = (3 * n / 4..3 * n / 4 + pairs).map(NodeId).collect();
                let mut pd = Program::new(&machine);
                plan_group_direct(&mut pd, &sources, &dests, bytes);
                each("direct", &pd, &none);
                let cfg = ProxySearchConfig::default();
                let groups = cache.proxy_groups(machine.shape(), Zone::Z2, &sources, &dests, &cfg);
                let mut pm = Program::new(&machine);
                let opts = MultipathOptions::default();
                plan_group_via(&mut pm, &sources, &dests, bytes, &groups, false, &opts);
                each("multipath", &pm, &none);
            }
            Representative::FanInCoupling { nodes, pairs, bytes } => {
                let machine = cache.machine(standard_shape(nodes).unwrap(), sim);
                let n = machine.shape().num_nodes();
                assert!(pairs >= 4 && pairs <= n / 4, "need 4..=n/4 coupling pairs");
                let sources: Vec<NodeId> = (0..pairs).map(NodeId).collect();
                let base = 3 * n / 4;
                let dests: Vec<NodeId> =
                    (0..pairs).map(|i| NodeId(base + i % (pairs / 4))).collect();
                let mut pd = Program::new(&machine);
                plan_group_direct(&mut pd, &sources, &dests, bytes);
                each("direct", &pd, &none);
                let mut pm = Program::new(&machine);
                for (&s, &d) in sources.iter().zip(&dests) {
                    let proxies = four_proxies(cache, &machine, s, d);
                    if proxies.is_empty() {
                        plan_direct(&mut pm, s, d, bytes);
                    } else {
                        let opts = MultipathOptions::default();
                        plan_via_proxies(&mut pm, s, d, bytes, &proxies, &opts);
                    }
                }
                each("multipath", &pm, &none);
            }
            Representative::SparseWrite { cores } => {
                let shape = shape_for_cores(cores).expect("standard partition");
                let machine = cache.machine(shape, sim);
                let map = RankMap::default_map(shape, CORES_PER_NODE);
                let rank_sizes = vec![1u64 << 20; cores as usize];
                let data = bgq_workloads::coalesce_to_nodes(&map, &rank_sizes);
                let total: u64 = data.iter().map(|&(_, b)| b).sum();
                let opts = IoMoveOptions {
                    max_chunk: crate::io::sim_chunk_bytes(total, shape.num_nodes()),
                    ..Default::default()
                };
                let mut prog = Program::new(&machine);
                cache.mover(&machine).plan_sparse_write(&mut prog, &data, &opts);
                each("sparse_write", &prog, &none);
            }
            Representative::Exchange { nodes, bytes } => {
                let machine = cache.machine(standard_shape(nodes).unwrap(), sim);
                let map = crate::exchange::ExchangePattern::DisjointHeavy { bytes }
                    .build(nodes, crate::exchange::EXCHANGE_SEED);
                for alg in ExchangeAlgorithm::ALL {
                    let ex = NeighborhoodExchange::with_mover(cache.mover(&machine));
                    let mut prog = Program::new(&machine);
                    ex.plan(&mut prog, &map, alg);
                    each(alg.name(), &prog, &none);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::trace_for;
    use crate::profile::profile_for;
    use bgq_obs::json::Value;

    #[test]
    fn table_covers_exactly_the_simulated_figures() {
        for fig in ["fig5", "fig6", "fig7", "fig10", "fig11", "resilience", "exchange", "scale"] {
            assert!(figure_scenarios(fig).is_some(), "{fig} has a row");
        }
        for fig in ["fig8_9", "thresholds", "nonsense"] {
            assert!(figure_scenarios(fig).is_none(), "{fig} has no simulated run");
        }
        assert_eq!(figure_scenarios("fig11"), figure_scenarios("fig10"));
        let fig6 = figure_scenarios("fig6").unwrap();
        assert_ne!(fig6.trace, fig6.profile, "fig6 keeps two distinct cells");
    }

    /// The `(run, transfer id) → (start µs, end µs)` spans of a Chrome
    /// trace. Track names carry the run as a `run/` prefix; a trace with
    /// no prefixes belongs to the profile's single run.
    fn trace_spans(json: &str, single_run: Option<&str>) -> Vec<(String, u32, f64, f64)> {
        let root = bgq_obs::json::parse(json).expect("trace parses");
        let events = root.get("traceEvents").and_then(Value::as_arr).unwrap();
        let mut tracks = std::collections::HashMap::new();
        for e in events {
            if e.get("ph").and_then(Value::as_str) == Some("M") {
                let tid = e.get("tid").and_then(Value::as_u64).unwrap();
                let name = e.get("args").and_then(|a| a.get("name")).and_then(Value::as_str);
                tracks.insert(tid, name.unwrap().to_string());
            }
        }
        let mut spans = Vec::new();
        for e in events {
            if e.get("ph").and_then(Value::as_str) != Some("X") {
                continue;
            }
            let track = &tracks[&e.get("tid").and_then(Value::as_u64).unwrap()];
            let run = match single_run {
                Some(run) => run.to_string(),
                None => track.split('/').next().unwrap().to_string(),
            };
            let name = e.get("name").and_then(Value::as_str).unwrap();
            let id: u32 = name[1..name.find(' ').unwrap()].parse().unwrap();
            let ts = e.get("ts").and_then(Value::as_f64).unwrap();
            let dur = e.get("dur").and_then(Value::as_f64).unwrap();
            spans.push((run, id, ts, ts + dur));
        }
        spans
    }

    #[test]
    fn trace_and_profile_describe_the_same_runs() {
        // Both artifacts are consumers of the catalogue; this pins that
        // they record the same executions: one span per transfer per run,
        // with the profile's start/end at the trace's microsecond
        // resolution (3 decimals; the span end is rounded twice).
        for fig in ["fig5", "fig7", "fig10", "resilience"] {
            let cache = PlanCache::new();
            let art = profile_for(fig, &cache).unwrap();
            let json = trace_for(fig, &cache).unwrap().to_chrome_json();
            let single = (art.runs.len() == 1).then(|| art.runs[0].name.as_str());
            let spans = trace_spans(&json, single);
            let transfers: usize = art.runs.iter().map(|r| r.transfers.len()).sum();
            assert_eq!(spans.len(), transfers, "{fig}: one span per transfer per run");
            let mut seen = HashSet::new();
            for (run, id, start, end) in spans {
                assert!(seen.insert((run.clone(), id)), "{fig}: t{id} of {run} spanned twice");
                let t = &art.run(&run).unwrap_or_else(|| panic!("{fig}: no run {run}")).transfers
                    [id as usize];
                assert!(
                    (start - t.start * 1e6).abs() <= 5e-4 + 1e-9 * start.abs(),
                    "{fig} {run} t{id}: span start {start} vs profile {}",
                    t.start * 1e6
                );
                assert!(
                    (end - t.end * 1e6).abs() <= 1e-3 + 1e-9 * end.abs(),
                    "{fig} {run} t{id}: span end {end} vs profile {}",
                    t.end * 1e6
                );
            }
        }
    }
}
