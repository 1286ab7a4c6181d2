//! Runners for the microbenchmarks of §V.A (Figures 5, 6 and 7).
//!
//! Each figure has a cache-aware per-point function (`fig5_point`,
//! `fig6_point`, `fig7_point`) — the unit of parallel work for the
//! [`Experiment`](crate::runner::Experiment) harnesses.

use crate::runner::PlanCache;
use bgq_comm::{Machine, Program};
use bgq_netsim::SimConfig;
use bgq_torus::{standard_shape, Dim, Direction, NodeId, Sign, Zone};
use sdm_core::{
    plan_direct, plan_group_direct, plan_group_via, plan_via_proxies, proxy_groups_along,
    MultipathOptions, PlanRequest, ProxyGroup, ProxySearchConfig,
};
use std::collections::HashSet;

/// A fig6 plane: its sources, its destinations, and their proxy groups.
type Plane = (Vec<NodeId>, Vec<NodeId>, std::sync::Arc<Vec<ProxyGroup>>);

/// One point of a direct-vs-multipath sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    pub bytes: u64,
    /// Direct (single default path) throughput, bytes/s.
    pub direct: f64,
    /// Proxy-based multipath throughput, bytes/s.
    pub multipath: f64,
}

/// One Figure-5 point: point-to-point put between the first and last node
/// of the 128-node `2x2x4x4x2` partition, with and without 4 proxies.
/// The machine and the proxy search are served from `cache`.
pub fn fig5_point(cache: &PlanCache, bytes: u64) -> SweepPoint {
    let machine = cache.machine(standard_shape(128).unwrap(), &SimConfig::default());
    let (src, dst) = (NodeId(0), NodeId(127));
    let cfg = ProxySearchConfig {
        max_proxies: 4,
        ..Default::default()
    };
    let proxies = cache
        .proxies(machine.shape(), Zone::Z2, src, dst, &HashSet::new(), &cfg)
        .proxies();
    assert!(proxies.len() >= 3, "fig5 partition must support proxies");

    if cache.metrics().is_some() {
        // Observe mode: also run the real decision procedure so this
        // point's direct-vs-multipath verdict lands in the planner
        // counters. The scratch program is discarded — the measured
        // numbers below stay the explicit direct/multipath pair.
        let mover = cache.mover(&machine).with_search(cfg.clone());
        let mut scratch = Program::new(&machine);
        let _ = mover.plan(&mut scratch, PlanRequest::new(src, dst, bytes));
    }

    let mut pd = Program::new(&machine);
    let hd = plan_direct(&mut pd, src, dst, bytes);
    let direct = hd.throughput(&pd.run());

    let mut pm = Program::new(&machine);
    let hm = plan_via_proxies(
        &mut pm,
        src,
        dst,
        bytes,
        &proxies,
        &MultipathOptions::default(),
    );
    let multipath = hm.throughput(&pm.run());
    SweepPoint {
        bytes,
        direct,
        multipath,
    }
}

/// The two corner groups of Figures 6 and 7: the first and last
/// `group_size` nodes of the partition.
pub fn corner_groups(machine: &Machine, group_size: u32) -> (Vec<NodeId>, Vec<NodeId>) {
    let n = machine.shape().num_nodes();
    assert!(2 * group_size <= n);
    let sources = (0..group_size).map(NodeId).collect();
    let dests = (n - group_size..n).map(NodeId).collect();
    (sources, dests)
}

/// Figure 6: coupling two groups of 256 nodes at opposite ends of the
/// 2K-node `4x4x4x16x2` partition, direct vs. proxy groups. Throughputs
/// are per node pair (the paper's y-axis).
///
/// Group placement note: a 256-node group in this shape spans two `B`
/// planes, so the two groups sit on opposite `A` faces of the torus (one
/// corner to the other end along the longest-stride dimension), paired
/// identically. This is the collision-free layout whose direct baseline
/// plateaus at the single-path peak (the paper's ≈1.58 GB/s); the
/// distributed proxy search then runs per `B` plane, where every pair of
/// a plane shares one uniform displacement.
pub fn fig6_point(cache: &PlanCache, bytes: u64) -> SweepPoint {
    let machine = cache.machine(standard_shape(2048).unwrap(), &SimConfig::default());
    let n = machine.shape().num_nodes();
    let sources: Vec<NodeId> = (0..256).map(NodeId).collect();
    // The A-opposed slab: same B/C/D/E footprint, A = 3.
    let dests: Vec<NodeId> = (3 * n / 4..3 * n / 4 + 256).map(NodeId).collect();

    let plane0: (Vec<NodeId>, Vec<NodeId>) =
        (sources[..128].to_vec(), dests[..128].to_vec());
    let plane1: (Vec<NodeId>, Vec<NodeId>) =
        (sources[128..].to_vec(), dests[128..].to_vec());

    let cfg = ProxySearchConfig::default();
    let planes: Vec<Plane> = [plane0, plane1]
            .into_iter()
            .map(|(s, d)| {
                let groups = cache.proxy_groups(machine.shape(), Zone::Z2, &s, &d, &cfg);
                assert!(groups.len() >= 3, "fig6 expects 3 proxy groups per plane");
                (s, d, groups)
            })
            .collect();

    let npairs = sources.len() as f64;
    let mut pd = Program::new(&machine);
    let mut direct_tokens = Vec::new();
    for (s, d, _) in &planes {
        direct_tokens.extend(plan_group_direct(&mut pd, s, d, bytes).tokens);
    }
    let rep = pd.run();
    let direct = bytes as f64 * npairs / rep.last_delivery(&direct_tokens) / npairs;

    let mut pm = Program::new(&machine);
    let mut multi_tokens = Vec::new();
    for (s, d, groups) in &planes {
        multi_tokens.extend(
            plan_group_via(
                &mut pm,
                s,
                d,
                bytes,
                groups,
                false,
                &MultipathOptions::default(),
            )
            .tokens,
        );
    }
    let rep = pm.run();
    let multipath = bytes as f64 * npairs / rep.last_delivery(&multi_tokens) / npairs;
    SweepPoint {
        bytes,
        direct,
        multipath,
    }
}

fn group_sweep(
    machine: &Machine,
    sources: &[NodeId],
    dests: &[NodeId],
    groups: &[ProxyGroup],
    include_direct: bool,
    sizes: &[u64],
) -> Vec<SweepPoint> {
    let npairs = sources.len() as f64;
    sizes
        .iter()
        .map(|&bytes| {
            let mut pd = Program::new(machine);
            let hd = plan_group_direct(&mut pd, sources, dests, bytes);
            let direct = hd.throughput(&pd.run()) / npairs;

            let mut pm = Program::new(machine);
            let hm = plan_group_via(
                &mut pm,
                sources,
                dests,
                bytes,
                groups,
                include_direct,
                &MultipathOptions::default(),
            );
            let multipath = hm.throughput(&pm.run()) / npairs;
            SweepPoint {
                bytes,
                direct,
                multipath,
            }
        })
        .collect()
}

/// The fixed Figure-7 series: `(label, groups used, include direct)`.
pub fn fig7_series_labels() -> Vec<(String, usize, bool)> {
    [(2usize, false), (3, false), (4, false), (4, true)]
        .into_iter()
        .map(|(count, include_direct)| {
            let label = if include_direct {
                "5 groups (4 + direct)".to_string()
            } else {
                format!("{count} groups of proxies")
            };
            (label, count, include_direct)
        })
        .collect()
}

/// The Figure-7 proxy-group pool: the disjointness-checked search padded
/// to 4 groups with forced `A±`/`B±` placements.
fn fig7_pool(cache: &PlanCache, machine: &Machine, sources: &[NodeId], dests: &[NodeId]) -> Vec<ProxyGroup> {
    let mut pool = cache
        .proxy_groups(
            machine.shape(),
            Zone::Z2,
            sources,
            dests,
            &ProxySearchConfig {
                max_proxies: 4,
                ..Default::default()
            },
        )
        .as_ref()
        .clone();
    // Pad to 4 groups with forced axis placements (the paper's A±/B±
    // directions at offset 1) not already used by the search. These extra
    // groups are not fully link-disjoint — that is the point of the
    // figure: each added path beyond the disjoint set shares links with
    // an existing one.
    let forced = [
        (Direction::new(Dim::A, Sign::Minus), 1u16),
        (Direction::new(Dim::B, Sign::Minus), 1),
        (Direction::new(Dim::A, Sign::Plus), 1),
        (Direction::new(Dim::B, Sign::Plus), 1),
    ];
    for placement in forced {
        if pool.len() >= 4 {
            break;
        }
        if pool
            .iter()
            .any(|g| g.direction == placement.0 && g.offset == placement.1)
        {
            continue;
        }
        pool.extend(proxy_groups_along(machine.shape(), sources, &[placement]));
    }
    assert!(pool.len() >= 4);
    pool
}

/// Figure 7: two groups of 32 nodes in the 512-node `4x4x4x4x2`
/// partition; vary the number of proxy groups (2, 3, 4, and 4+direct as
/// the over-provisioned "5th group is the source itself" case) against
/// the no-proxy baseline. One point is `(no-proxy baseline, per-series
/// throughput)` at one message size, in [`fig7_series_labels`] order.
///
/// The first groups come from the disjointness-checked search; once those
/// are exhausted, forced axis placements (the paper's `A±`, `B±`) pad the
/// list, intentionally allowing the link sharing whose effect the figure
/// demonstrates.
pub fn fig7_point(cache: &PlanCache, bytes: u64) -> (f64, Vec<f64>) {
    let machine = cache.machine(standard_shape(512).unwrap(), &SimConfig::default());
    let (sources, dests) = corner_groups(&machine, 32);
    let pool = fig7_pool(cache, &machine, &sources, &dests);

    let npairs = sources.len() as f64;
    let mut pd = Program::new(&machine);
    let hd = plan_group_direct(&mut pd, &sources, &dests, bytes);
    let baseline = hd.throughput(&pd.run()) / npairs;

    let series = fig7_series_labels()
        .into_iter()
        .map(|(_, count, include_direct)| {
            let groups = &pool[..count];
            group_sweep(&machine, &sources, &dests, groups, include_direct, &[bytes])[0]
                .multipath
        })
        .collect();
    (baseline, series)
}

/// The crossover point of a sweep: the smallest size where multipath
/// overtakes direct, with the direct throughput there (the paper annotates
/// Fig. 5 with "(256KB, 1.4GB/s)" and Fig. 6 with "(512KB, 1.58GB/s)").
pub fn crossover(points: &[SweepPoint]) -> Option<(u64, f64)> {
    points
        .iter()
        .find(|p| p.multipath >= p.direct)
        .map(|p| (p.bytes, p.direct))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_shape_matches_paper() {
        // Coarse sweep to keep the test fast.
        let sizes = [64 << 10, 256 << 10, 1 << 20, 16 << 20, 128 << 20];
        let cache = PlanCache::new();
        let pts: Vec<SweepPoint> = sizes.iter().map(|&b| fig5_point(&cache, b)).collect();

        // Small messages: direct wins.
        assert!(pts[0].direct > pts[0].multipath);
        // Large messages: proxies win by ~2x.
        let last = pts.last().unwrap();
        let speedup = last.multipath / last.direct;
        assert!(
            (1.6..=2.3).contains(&speedup),
            "128MB speedup {speedup:.2} out of range"
        );
        // Direct plateaus near the 1.6 GB/s protocol cap.
        assert!((1.4e9..=1.65e9).contains(&last.direct), "{}", last.direct);
        // Proxy plateau near 3.2 GB/s.
        assert!(
            (2.6e9..=3.4e9).contains(&last.multipath),
            "{}",
            last.multipath
        );
    }

    #[test]
    fn fig5_crossover_near_256kb() {
        let sizes: Vec<u64> = crate::table::paper_size_sweep();
        let cache = PlanCache::new();
        let pts: Vec<SweepPoint> = sizes.iter().map(|&b| fig5_point(&cache, b)).collect();
        let (bytes, thr) = crossover(&pts).expect("multipath must eventually win");
        assert!(
            (64 << 10..=1 << 20).contains(&bytes),
            "crossover {bytes} too far from 256KB"
        );
        assert!(
            (0.9e9..=1.65e9).contains(&thr),
            "crossover throughput {thr} too far from 1.4 GB/s"
        );
    }

    #[test]
    fn fig7_more_groups_help_then_hurt() {
        let (b, t) = fig7_point(&PlanCache::new(), 32 << 20);
        // 3 groups better than 2.
        assert!(t[1] > t[0], "3 groups {:.3e} !> 2 groups {:.3e}", t[1], t[0]);
        // 3+ groups beat the no-proxy baseline.
        assert!(t[1] > b);
        // Over-provisioning (4 + direct) is worse than the best setting.
        let best = t[..3].iter().cloned().fold(0.0, f64::max);
        assert!(
            t[3] < best,
            "5th path should degrade: {:.3e} !< {:.3e}",
            t[3],
            best
        );
    }

    #[test]
    fn crossover_helper() {
        let pts = vec![
            SweepPoint { bytes: 1, direct: 10.0, multipath: 5.0 },
            SweepPoint { bytes: 2, direct: 10.0, multipath: 15.0 },
        ];
        assert_eq!(crossover(&pts), Some((2, 10.0)));
        assert_eq!(crossover(&pts[..1]), None);
    }
}
