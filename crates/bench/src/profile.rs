//! Bottleneck-attribution profiles for the figure harnesses.
//!
//! This is the bridge between the engine's [`bgq_netsim::SimProfile`]
//! (resource indices, raw per-epoch accrual) and the topology-agnostic
//! [`bgq_obs::ProfileArtifact`] (link labels, critical paths, JSON/CSV
//! artifacts). A profile is a consumer of the scenario catalogue
//! ([`crate::catalogue`]): [`profile_scenario`] profiles each labeled
//! run of a scenario, and [`profile_for`] picks the figure's scenario
//! from the same table the traces and the run ledger read. So
//! `--profile-out` answers "why was this run slow" — which links the
//! waterfill blamed, for how long, and which dependency chain bounded
//! the makespan — for exactly the runs the trace shows.
//!
//! Profiles inherit the artifact contract: everything is keyed on
//! simulated time and serialized deterministically, so the JSON is
//! byte-identical across thread counts and repeated runs.

use crate::catalogue::{figure_scenarios, Representative};
use crate::runner::PlanCache;
use bgq_comm::{Machine, Program};
use bgq_netsim::{Binding, FaultPlan, ResourceId, SimConfig, SimObserver, SimOptions, SimReport};
use bgq_obs::{ProfileArtifact, Recorder, RunProfile, TransferProfile};
use std::collections::HashSet;

/// Human label for a simulated resource: torus links render as
/// `node:direction` (e.g. `n0:+A`), everything else (I/O stages) as
/// `io<id>`.
pub fn resource_label(machine: &Machine, r: ResourceId) -> String {
    match machine.torus_link(r) {
        Some(link) => link.to_string(),
        None => format!("io{}", r.0),
    }
}

fn binding_label(machine: &Machine, b: &Binding) -> String {
    match b {
        Binding::Link(r) => resource_label(machine, *r),
        Binding::FlowCap => "cap".to_string(),
    }
}

/// Execute `prog` under `faults` with profiling on. The report carries
/// `report.profile` and is otherwise bit-identical to an unprofiled run.
pub fn run_profiled(prog: &Program, faults: &FaultPlan) -> SimReport {
    prog.simulate(SimOptions::new().faults(faults).profiled())
}

/// Convert a profiled run into a labeled [`RunProfile`]: engine resource
/// indices become link labels, graph dependencies become the chain edges
/// the critical-path walk follows.
///
/// # Panics
/// Panics if `report` was not produced by a profiled run.
pub fn run_profile(
    name: &str,
    machine: &Machine,
    prog: &Program,
    report: &SimReport,
) -> RunProfile {
    let sp = report
        .profile
        .as_ref()
        .expect("run_profile needs a profiled report (SimOptions::profiled)");
    let mut transfers = Vec::with_capacity(sp.transfers.len());
    for (i, spec) in prog.graph().specs().iter().enumerate() {
        let tp = &sp.transfers[i];
        let delivered = report.delivery_time[i].is_finite();
        let end = if delivered {
            report.delivery_time[i]
        } else {
            report.end_time
        };
        let mut link_blame: Vec<(String, f64)> = tp
            .bottlenecked_on
            .iter()
            .map(|&(r, s)| (resource_label(machine, r), s))
            .collect();
        // Distinct resources can collide only if labels did, and they
        // don't (both label forms embed the id) — sorting suffices.
        link_blame.sort_by(|a, b| a.0.cmp(&b.0));
        transfers.push(TransferProfile {
            id: i as u32,
            label: format!("n{}->n{}", spec.src, spec.dst),
            bytes: spec.bytes,
            ready: tp.ready_time,
            start: report.flow_start_time[i],
            end,
            delivered,
            queued: tp.queued_before_start,
            cap_limited: tp.cap_limited,
            stalled: tp.stalled_by_fault,
            latency: tp.delivery_latency,
            link_blame,
            bindings: tp
                .binding_timeline
                .iter()
                .map(|(t, b)| (*t, binding_label(machine, b)))
                .collect(),
            deps: spec.deps.iter().map(|d| d.0).collect(),
        });
    }
    RunProfile {
        name: name.to_string(),
        end_time: report.end_time,
        transfers,
    }
}

/// Profile a catalogue scenario: one profiled run per label, in the
/// scenario's run order.
pub fn profile_scenario(
    scenario: &Representative,
    cache: &PlanCache,
    sim: &SimConfig,
) -> ProfileArtifact {
    profile_observing(scenario, cache, sim, None)
}

/// [`profile_scenario`], with `watch = (label, observer)` attaching the
/// observer to the run labeled `label`. Observation is passive, so the
/// artifact is unchanged.
pub(crate) fn profile_observing(
    scenario: &Representative,
    cache: &PlanCache,
    sim: &SimConfig,
    mut watch: Option<(&str, &mut SimObserver)>,
) -> ProfileArtifact {
    let mut runs = Vec::new();
    scenario.for_each_run(cache, sim, |name, prog, faults| {
        let mut opts = SimOptions::new().faults(faults).profiled();
        if let Some((label, obs)) = watch.as_mut() {
            if *label == name {
                opts = opts.observer(obs);
            }
        }
        let report = prog.simulate(opts);
        runs.push(run_profile(name, prog.machine(), prog, &report));
    });
    ProfileArtifact { runs }
}

/// The representative profile for a figure by name (its
/// [`figure_scenarios`] profile cell), or `None` for figures without a
/// simulated execution.
pub fn profile_for(figure: &str, cache: &PlanCache) -> Option<ProfileArtifact> {
    let scenario = figure_scenarios(figure)?.profile?;
    Some(profile_scenario(&scenario, cache, &SimConfig::default()))
}

/// Cap on flows given a binding track, keeping the trace a few
/// kilobytes even for the group figures.
const MAX_BINDING_FLOWS: usize = 64;

/// Render each run's binding timelines as Perfetto spans: track
/// `<run>/bindings`, one span per (flow, binding) stretch named
/// `t<id> <-- <link>`. Flows on the critical path come first; remaining
/// slots go to flows whose binding actually changed mid-run.
pub fn binding_trace(art: &ProfileArtifact) -> Recorder {
    let rec = Recorder::new();
    for run in &art.runs {
        let mut picked: Vec<u32> = run.critical_path();
        let on_path: HashSet<u32> = picked.iter().copied().collect();
        let mut rest: Vec<u32> = run
            .transfers
            .iter()
            .filter(|t| t.bindings.len() >= 2 && !on_path.contains(&t.id))
            .map(|t| t.id)
            .collect();
        rest.sort_unstable();
        picked.extend(rest);
        picked.truncate(MAX_BINDING_FLOWS);

        let track = format!("{}/bindings", run.name);
        for &id in &picked {
            let t = &run.transfers[id as usize];
            for (j, (at, label)) in t.bindings.iter().enumerate() {
                let until = t
                    .bindings
                    .get(j + 1)
                    .map(|&(next, _)| next)
                    .unwrap_or(t.end);
                rec.span(
                    &track,
                    &format!("t{id} <-- {label}"),
                    *at,
                    until,
                    &[("transfer", t.label.clone())],
                );
            }
        }
    }
    rec
}

/// [`profile_for`] plus the binding-change Perfetto trace built from it.
pub fn profile_for_with_trace(
    figure: &str,
    cache: &PlanCache,
) -> Option<(ProfileArtifact, Recorder)> {
    let art = profile_for(figure, cache)?;
    let rec = binding_trace(&art);
    Some((art, rec))
}

fn fmt_secs(s: f64) -> String {
    if s == 0.0 {
        "0".to_string()
    } else if s.abs() >= 1.0 {
        format!("{s:.3} s")
    } else if s.abs() >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.3} us", s * 1e6)
    }
}

/// Render the "why was this slow" report: per run, the aggregate time
/// decomposition, the ranked bottleneck links, and the critical path
/// with its slowest segment. Deterministic (pure function of the
/// artifact).
pub fn render_report(art: &ProfileArtifact) -> String {
    let mut out = String::new();
    for run in &art.runs {
        let n = run.transfers.len();
        out.push_str(&format!(
            "run {}: {} transfer(s), finished at {}\n",
            run.name,
            n,
            fmt_secs(run.end_time)
        ));
        let sum = |f: fn(&TransferProfile) -> f64| -> f64 { run.transfers.iter().map(f).sum() };
        let queued = sum(|t| t.queued);
        let network = run.total_network_limited();
        let cap = sum(|t| t.cap_limited);
        let stalled = sum(|t| t.stalled);
        let latency = sum(|t| t.latency);
        let total = queued + network + cap + stalled + latency;
        out.push_str("  where the flow-seconds went:\n");
        for (name, v) in [
            ("network-limited", network),
            ("cap-limited", cap),
            ("queued", queued),
            ("stalled by faults", stalled),
            ("delivery latency", latency),
        ] {
            if v > 0.0 {
                out.push_str(&format!(
                    "    {name:<18} {:>12}  ({:.1}%)\n",
                    fmt_secs(v),
                    100.0 * v / total.max(f64::MIN_POSITIVE)
                ));
            }
        }
        let undelivered = run.transfers.iter().filter(|t| !t.delivered).count();
        if undelivered > 0 {
            out.push_str(&format!(
                "    *** {undelivered} transfer(s) UNDELIVERED ***\n"
            ));
        }
        let top = run.top_bottlenecks(5);
        if top.is_empty() {
            out.push_str(
                "  no link was ever a binding resource: every flow was bound by its own\n  \
                 rate cap (the per-flow protocol limit) — add paths, not bandwidth\n",
            );
        } else {
            out.push_str("  top bottleneck links (time spent rate-limited by each):\n");
            for (i, (label, secs)) in top.iter().enumerate() {
                out.push_str(&format!(
                    "    {}. {label:<12} {:>12}\n",
                    i + 1,
                    fmt_secs(*secs)
                ));
            }
        }
        let path = run.critical_path();
        if path.len() > 1 {
            out.push_str(&format!(
                "  critical path ({} chained segment(s)):\n",
                path.len()
            ));
            for &id in &path {
                let t = &run.transfers[id as usize];
                let bound = t
                    .dominant_link()
                    .map(|(l, _)| l.to_string())
                    .unwrap_or_else(|| "cap".to_string());
                out.push_str(&format!(
                    "    t{id} {:<16} {:>12}  bound by {bound}\n",
                    t.label,
                    fmt_secs(t.elapsed())
                ));
            }
        }
        if let Some((id, secs)) = run.slowest_segment() {
            let t = &run.transfers[id as usize];
            out.push_str(&format!(
                "  slowest segment: t{id} {} at {}\n",
                t.label,
                fmt_secs(secs)
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::TRACE_BYTES;
    use bgq_torus::{standard_shape, NodeId};
    use sdm_core::plan_direct;

    /// The fig5 corner pair at `bytes`.
    fn pair(bytes: u64) -> Representative {
        Representative::Pair { nodes: 128, bytes }
    }

    #[test]
    fn pair_profile_shows_the_protocol_cap() {
        // The fig5 story: a lone pair has no link contention anywhere —
        // direct and every proxy chunk are bound by the per-flow
        // protocol cap (1.6 < 1.8 GB/s), which is exactly why multipath
        // helps. The profiler must say so rather than invent link blame.
        let cache = PlanCache::new();
        let art = profile_scenario(&pair(4 << 20), &cache, &SimConfig::default());
        art.validate().expect("profile accounting must balance");

        let direct = art.run("direct").unwrap();
        assert_eq!(direct.transfers.len(), 1);
        let t = &direct.transfers[0];
        assert!(t.link_blame.is_empty(), "solo pair has no contention");
        assert!(
            t.cap_limited > 0.9 * t.elapsed(),
            "direct flow is cap-bound: {t:?}"
        );

        // Proxy chains are dependency chains: the critical path walks
        // src->proxy then proxy->dst.
        let multi = art.run("multipath").unwrap();
        assert!(multi.critical_path().len() >= 2);
        assert!(multi.slowest_segment().is_some());
    }

    #[test]
    fn coupling_profile_names_bottleneck_links() {
        // The congestion story (the fig6-scale scenario scaled down to
        // test size): conflicting pairs collide on shared dimension
        // lines, and the profiler names them.
        let cache = PlanCache::new();
        let fan_in = Representative::FanInCoupling {
            nodes: 128,
            pairs: 16,
            bytes: 4 << 20,
        };
        let art = profile_scenario(&fan_in, &cache, &SimConfig::default());
        art.validate().expect("profile accounting must balance");

        let direct = art.run("direct").unwrap();
        let top = direct.top_bottlenecks(3);
        assert!(!top.is_empty(), "conflicting routes must blame links");
        assert!(
            top[0].0.contains(':'),
            "blame is labeled with a torus link, got {:?}",
            top[0].0
        );

        // The multipath run spreads blame across the proxy-path links
        // (the ISSUE acceptance bar is >= 3 distinct links).
        let multi = art.run("multipath").unwrap();
        assert!(
            multi.link_blame().len() >= 3,
            "multipath blame too narrow: {:?}",
            multi.link_blame()
        );
    }

    #[test]
    fn exchange_profile_blames_each_algorithm_separately() {
        // One run per exchange algorithm over the same disjoint-heavy
        // map, so the per-algorithm link blame is directly comparable.
        let cache = PlanCache::new();
        let exchange = Representative::Exchange {
            nodes: 512,
            bytes: TRACE_BYTES,
        };
        let art = profile_scenario(&exchange, &cache, &SimConfig::default());
        art.validate().expect("profile accounting must balance");

        let direct = art.run("direct").unwrap();
        let consensus = art.run("consensus").unwrap();
        let multi = art.run("proxy_multipath").unwrap();

        // Antipodal puts collide pairwise on the A-dimension wrap links
        // (rank i and i+256 route through the same torus line), so the
        // direct run's blame concentrates on a handful of named links —
        // exactly the congestion the ledger routes around.
        assert_eq!(direct.transfers.len(), 8);
        let blame = direct.link_blame();
        assert!(
            !blame.is_empty() && blame.len() < direct.transfers.len(),
            "blame should concentrate on shared links: {blame:?}"
        );
        assert!(blame[0].0.contains(':'), "blame names torus links: {blame:?}");
        for t in &direct.transfers {
            assert!(
                t.network_limited() > 0.9 * t.elapsed(),
                "direct puts are network-bound: {t:?}"
            );
        }

        // Consensus adds one discovery gate per participant on top of
        // the same payload puts.
        assert!(consensus.transfers.len() > direct.transfers.len());

        // Multipath splits pairs across proxies: each multipath pair
        // becomes many two-leg chunk chains, so the run has far more
        // transfers than pairs. (The critical path can still end on a
        // dependency-free direct put — the pairs the ledger left alone
        // finish last once the contended wrap links are relieved.)
        assert!(multi.transfers.len() > 2 * direct.transfers.len());
        assert!(!multi.critical_path().is_empty());
        assert!(multi.slowest_segment().is_some());

        // The per-transfer decomposition sums to elapsed in every run
        // (validate checked the tolerance; spot-check the totals here).
        for run in &art.runs {
            for t in &run.transfers {
                assert!((t.accounted() - t.elapsed()).abs() <= 1e-6 * t.elapsed().max(1.0));
            }
        }
    }

    #[test]
    fn profile_artifact_is_deterministic() {
        let cache = PlanCache::new();
        let sim = SimConfig::default();
        let a = profile_scenario(&pair(1 << 20), &cache, &sim).to_json();
        let b = profile_scenario(&pair(1 << 20), &cache, &sim).to_json();
        assert_eq!(a, b, "same inputs must serialize to the same bytes");
        let back = ProfileArtifact::from_json(&a).unwrap();
        assert_eq!(back.to_json(), a, "round-trip is byte-exact");
    }

    #[test]
    fn profiled_report_matches_plain_run() {
        let cache = PlanCache::new();
        let machine = cache.machine(standard_shape(128).unwrap(), &SimConfig::default());
        let mut p = Program::new(&machine);
        plan_direct(&mut p, NodeId(0), NodeId(127), 4 << 20);
        let plain = p.run();
        let mut profiled = run_profiled(&p, &FaultPlan::new());
        assert!(profiled.profile.is_some());
        profiled.profile = None;
        assert_eq!(plain, profiled, "profiling must not perturb the engine");
    }

    #[test]
    fn resilience_profile_charges_the_stall_to_faults() {
        let cache = PlanCache::new();
        let cut = Representative::DirectCut { bytes: 4 << 20 };
        let art = profile_scenario(&cut, &cache, &SimConfig::default());
        art.validate().unwrap();
        let direct = art.run("direct").unwrap();
        assert!(
            direct.transfers.iter().any(|t| !t.delivered && t.stalled > 0.0),
            "cut route must show fault-stalled time"
        );
        let multi = art.run("multipath").unwrap();
        assert!(multi.transfers.iter().all(|t| t.delivered));
    }

    #[test]
    fn binding_trace_is_valid_and_labels_flows() {
        let cache = PlanCache::new();
        let (art, rec) = profile_for_with_trace("fig5", &cache).unwrap();
        let json = rec.to_chrome_json();
        bgq_obs::json::validate(&json).unwrap();
        assert!(json.contains("/bindings"), "binding tracks present");
        assert!(json.contains("t0 <-- "), "spans name the binding link");
        assert!(art.run("multipath").is_some());
        assert!(profile_for("fig8_9", &cache).is_none());
    }
}
