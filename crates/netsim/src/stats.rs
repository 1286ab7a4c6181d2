//! Post-run analysis of simulation reports: link utilization.
//!
//! The raw [`SimReport`](crate::SimReport) carries (optionally)
//! per-resource byte counters; this module turns them into the quantity
//! the paper reasons about — link utilization ("one path is used, other
//! paths are idle", Fig. 2) and the busiest resource.

use crate::engine::SimReport;

/// Utilization summary over a set of resources.
#[derive(Debug, Clone, PartialEq)]
pub struct Utilization {
    /// Resources that carried at least one byte.
    pub active_resources: usize,
    /// Resources with zero traffic.
    pub idle_resources: usize,
    /// Mean utilization of *active* resources (bytes / capacity / makespan).
    pub mean_active_utilization: f64,
    /// Highest utilization over all resources.
    pub peak_utilization: f64,
    /// Resource with the highest utilization.
    pub busiest: Option<u32>,
}

/// Why a stats computation could not run on a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsError {
    /// The report was produced without `collect_link_stats`.
    MissingLinkStats,
    /// The report's per-resource counters and the capacity table disagree
    /// on length (report from a different network).
    CapacityMismatch { resources: usize, capacities: usize },
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::MissingLinkStats => {
                write!(f, "report lacks link stats; enable collect_link_stats")
            }
            StatsError::CapacityMismatch {
                resources,
                capacities,
            } => write!(
                f,
                "report has {resources} resources but {capacities} capacities were given"
            ),
        }
    }
}

impl std::error::Error for StatsError {}

/// Compute utilization over `capacities` from a report with link stats.
///
/// # Panics
/// Panics if the report was produced without `collect_link_stats` or the
/// capacity table does not match; use [`try_utilization`] to handle those
/// as values.
pub fn utilization(report: &SimReport, capacities: &[f64]) -> Utilization {
    try_utilization(report, capacities).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible variant of [`utilization`], matching the workspace's `try_*`
/// convention for conditions a caller can meaningfully handle.
pub fn try_utilization(
    report: &SimReport,
    capacities: &[f64],
) -> Result<Utilization, StatsError> {
    let bytes = report
        .resource_bytes
        .as_ref()
        .ok_or(StatsError::MissingLinkStats)?;
    if bytes.len() != capacities.len() {
        return Err(StatsError::CapacityMismatch {
            resources: bytes.len(),
            capacities: capacities.len(),
        });
    }
    let span = report.makespan.max(f64::MIN_POSITIVE);

    let mut active = 0usize;
    let mut sum_active = 0.0f64;
    let mut peak = 0.0f64;
    let mut busiest = None;
    for (i, (&b, &c)) in bytes.iter().zip(capacities).enumerate() {
        if b > 0.0 {
            active += 1;
            let u = b / (c * span);
            sum_active += u;
            if u > peak {
                peak = u;
                busiest = Some(i as u32);
            }
        }
    }
    Ok(Utilization {
        active_resources: active,
        idle_resources: bytes.len() - active,
        mean_active_utilization: if active > 0 { sum_active / active as f64 } else { 0.0 },
        peak_utilization: peak,
        busiest,
    })
}

/// Fraction of resources that carried any traffic — the paper's notion of
/// resource utilization for sparse patterns ("only specific regions of the
/// system are involved", §IV.A).
///
/// # Panics
/// Panics without `collect_link_stats`; see [`try_active_fraction`].
pub fn active_fraction(report: &SimReport) -> f64 {
    try_active_fraction(report).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible variant of [`active_fraction`].
pub fn try_active_fraction(report: &SimReport) -> Result<f64, StatsError> {
    let bytes = report
        .resource_bytes
        .as_ref()
        .ok_or(StatsError::MissingLinkStats)?;
    if bytes.is_empty() {
        return Ok(0.0);
    }
    Ok(bytes.iter().filter(|&&b| b > 0.0).count() as f64 / bytes.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::engine::Simulator;
    use crate::graph::{ResourceId, TransferGraph, TransferSpec};

    fn cfg() -> SimConfig {
        SimConfig {
            link_bandwidth: 100.0,
            io_link_bandwidth: 100.0,
            per_flow_cap: 100.0,
            hop_latency: 0.0,
            send_overhead: 0.0,
            recv_overhead: 0.0,
            rma_phase_overhead: 0.0,
            forward_overhead: 0.0,
            contention_penalty: 0.0,
            contention_floor: 1.0,
            collect_link_stats: true,
        }
    }

    fn run_two_flows() -> (SimReport, Vec<f64>) {
        let caps = vec![100.0, 100.0, 100.0];
        let sim = Simulator::new(3, caps.clone(), cfg());
        let mut g = TransferGraph::new();
        g.add(TransferSpec::new(0, 1, 1000, vec![ResourceId(0)]));
        g.add(TransferSpec::new(1, 2, 500, vec![ResourceId(1)]));
        let rep = sim.simulate(&g, crate::SimOptions::new());
        (rep, caps)
    }

    #[test]
    fn utilization_identifies_idle_and_busy() {
        let (rep, caps) = run_two_flows();
        let u = utilization(&rep, &caps);
        assert_eq!(u.active_resources, 2);
        assert_eq!(u.idle_resources, 1);
        assert_eq!(u.busiest, Some(0), "the 1000-byte flow's link is busiest");
        assert!(u.peak_utilization <= 1.0 + 1e-9);
        assert!(u.mean_active_utilization > 0.0);
    }

    #[test]
    fn active_fraction_matches() {
        let (rep, _) = run_two_flows();
        assert!((active_fraction(&rep) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn try_utilization_reports_errors_as_values() {
        let (rep, caps) = run_two_flows();
        // Matching inputs: same answer as the panicking wrapper.
        assert_eq!(try_utilization(&rep, &caps), Ok(utilization(&rep, &caps)));
        // Capacity table from a different network.
        let err = try_utilization(&rep, &[100.0]).unwrap_err();
        assert_eq!(
            err,
            StatsError::CapacityMismatch { resources: 3, capacities: 1 }
        );
        // No link stats collected.
        let mut c = cfg();
        c.collect_link_stats = false;
        let sim = Simulator::new(2, vec![100.0], c);
        let mut g = TransferGraph::new();
        g.add(TransferSpec::new(0, 1, 10, vec![ResourceId(0)]));
        let bare = sim.simulate(&g, crate::SimOptions::new());
        assert_eq!(
            try_utilization(&bare, &[100.0]).unwrap_err(),
            StatsError::MissingLinkStats
        );
        assert_eq!(try_active_fraction(&bare), Err(StatsError::MissingLinkStats));
        assert!(err.to_string().contains("3 resources"));
    }

    #[test]
    #[should_panic(expected = "lacks link stats")]
    fn utilization_requires_stats() {
        let mut c = cfg();
        c.collect_link_stats = false;
        let sim = Simulator::new(2, vec![100.0], c);
        let mut g = TransferGraph::new();
        g.add(TransferSpec::new(0, 1, 10, vec![ResourceId(0)]));
        let rep = sim.simulate(&g, crate::SimOptions::new());
        utilization(&rep, &[100.0]);
    }
}
