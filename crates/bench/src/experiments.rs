//! Every figure harness of this crate, expressed as an
//! [`Experiment`]: a list of independent points plus a pure
//! `run_point`. The binaries in `src/bin/` are thin drivers that hand
//! these to an [`ExperimentSession`](crate::runner::ExperimentSession);
//! `reproduce` loops over them to regenerate the whole paper.

use std::collections::HashSet;

use bgq_comm::{FsParams, Machine, Program};
use bgq_iosys::{continue_to_storage, plan_collective_write, CollectiveIoConfig, IonChunk};
use bgq_netsim::{active_fraction, utilization, SimConfig, TransferId};
use bgq_torus::{standard_shape, IonId, NodeId, RankMap, Zone};
use bgq_workloads::{
    coalesce_to_nodes, pareto_sizes, uniform_sizes, Histogram, ParetoParams, DEFAULT_MAX_BYTES,
};
use sdm_core::{
    diversity_report, plan_direct, plan_via_proxies, AssignPolicy, CostModel, IoMoveOptions,
    MultipathOptions, ProxySearchConfig, SparseMover,
};

use crate::io::{fig10_point_with, fig11_point_with, policy_point_with, Pattern};
use crate::micro::{fig5_point, fig6_point, fig7_point, fig7_series_labels, SweepPoint};
use crate::runner::{Experiment, PlanCache, Row};
use crate::table::{fmt_bytes, fmt_gbs};

fn sweep_row(p: &SweepPoint) -> Row {
    Row::new(
        vec![
            fmt_bytes(p.bytes),
            fmt_gbs(p.direct),
            fmt_gbs(p.multipath),
            format!("{:.2}", p.multipath / p.direct),
        ],
        vec![p.bytes as f64, p.direct, p.multipath],
    )
}

/// Crossover of a direct-vs-multipath sweep from collected rows
/// (metrics `[bytes, direct, multipath]`).
fn rows_crossover(rows: &[Row]) -> Option<(u64, f64)> {
    rows.iter()
        .find(|r| r.metrics[2] >= r.metrics[1])
        .map(|r| (r.metrics[0] as u64, r.metrics[1]))
}

/// Figure 5: point-to-point PUT with and without 4 proxies (128 nodes).
pub struct Fig5 {
    pub sizes: Vec<u64>,
}

impl Experiment for Fig5 {
    type Point = u64;

    fn name(&self) -> &'static str {
        "fig5"
    }

    fn columns(&self) -> Vec<String> {
        ["size", "direct GB/s", "4 proxies GB/s", "speedup"]
            .map(String::from)
            .to_vec()
    }

    fn points(&self) -> Vec<u64> {
        self.sizes.clone()
    }

    fn run_point(&self, cache: &PlanCache, bytes: &u64) -> Row {
        sweep_row(&fig5_point(cache, *bytes))
    }

    fn footer(&self, rows: &[Row]) -> Option<String> {
        let mut out = String::new();
        if let Some((bytes, thr)) = rows_crossover(rows) {
            out.push_str(&format!(
                "\ncrossover: ({}, {} GB/s)   [paper: (256K, 1.4 GB/s)]\n",
                fmt_bytes(bytes),
                fmt_gbs(thr)
            ));
        }
        let last = rows.last()?;
        out.push_str(&format!(
            "plateau: direct {} GB/s [paper ~1.6], proxies {} GB/s [paper ~3.2]",
            fmt_gbs(last.metrics[1]),
            fmt_gbs(last.metrics[2])
        ));
        Some(out)
    }
}

/// Figure 6: two 256-node groups with and without proxy groups (2K nodes).
pub struct Fig6 {
    pub sizes: Vec<u64>,
}

impl Experiment for Fig6 {
    type Point = u64;

    fn name(&self) -> &'static str {
        "fig6"
    }

    fn columns(&self) -> Vec<String> {
        ["size", "direct GB/s", "3 proxy groups GB/s", "speedup"]
            .map(String::from)
            .to_vec()
    }

    fn points(&self) -> Vec<u64> {
        self.sizes.clone()
    }

    fn run_point(&self, cache: &PlanCache, bytes: &u64) -> Row {
        sweep_row(&fig6_point(cache, *bytes))
    }

    fn footer(&self, rows: &[Row]) -> Option<String> {
        let mut out = String::new();
        if let Some((bytes, thr)) = rows_crossover(rows) {
            out.push_str(&format!(
                "\ncrossover: ({}, {} GB/s)   [paper: (512K, 1.58 GB/s)]\n",
                fmt_bytes(bytes),
                fmt_gbs(thr)
            ));
        }
        let last = rows.last()?;
        out.push_str(&format!(
            "plateau: direct {} GB/s [paper ~1.6], proxy groups {} GB/s [paper ~2.4]",
            fmt_gbs(last.metrics[1]),
            fmt_gbs(last.metrics[2])
        ));
        Some(out)
    }
}

/// Figure 7: throughput vs. number of proxy groups (512 nodes).
pub struct Fig7 {
    pub sizes: Vec<u64>,
}

impl Experiment for Fig7 {
    type Point = u64;

    fn name(&self) -> &'static str {
        "fig7"
    }

    fn columns(&self) -> Vec<String> {
        let mut header = vec!["size".to_string(), "no proxies".to_string()];
        header.extend(fig7_series_labels().into_iter().map(|(label, _, _)| label));
        header
    }

    fn points(&self) -> Vec<u64> {
        self.sizes.clone()
    }

    fn run_point(&self, cache: &PlanCache, bytes: &u64) -> Row {
        let (baseline, series) = fig7_point(cache, *bytes);
        let mut cells = vec![fmt_bytes(*bytes), fmt_gbs(baseline)];
        cells.extend(series.iter().map(|&t| fmt_gbs(t)));
        let mut metrics = vec![*bytes as f64, baseline];
        metrics.extend(&series);
        Row::new(cells, metrics)
    }

    fn footer(&self, rows: &[Row]) -> Option<String> {
        let last = rows.last()?;
        let baseline = last.metrics[1];
        let mut out = String::from("\nlarge-message speedups over no-proxy baseline:\n");
        for (i, (label, _, _)) in fig7_series_labels().into_iter().enumerate() {
            out.push_str(&format!(
                "  {:<22} {:.2}x\n",
                label,
                last.metrics[2 + i] / baseline
            ));
        }
        out.push_str("  [paper: 2 groups ~1x, 3 groups ~1.5x, 4 groups ~2x, 5 groups degrade]");
        Some(out)
    }
}

/// Figures 8/9: histogram of one sparse pattern's per-rank sizes.
/// The histogram is computed up front; each point is one (pre-binned)
/// row, so this experiment exercises only the formatting path.
pub struct PatternHistogram {
    name: &'static str,
    sizes: Vec<u64>,
}

impl PatternHistogram {
    const RANKS: u32 = 1024;

    /// Figure 8: Pattern 1 (uniform sizes, flat histogram).
    pub fn fig8() -> PatternHistogram {
        PatternHistogram {
            name: "fig8",
            sizes: uniform_sizes(Self::RANKS, DEFAULT_MAX_BYTES, 20140901),
        }
    }

    /// Figure 9: Pattern 2 (Pareto sizes, mass near zero + cap spike).
    pub fn fig9() -> PatternHistogram {
        PatternHistogram {
            name: "fig9",
            sizes: pareto_sizes(Self::RANKS, &ParetoParams::default(), 20140902),
        }
    }
}

impl Experiment for PatternHistogram {
    type Point = (u64, u64, u64);

    fn name(&self) -> &'static str {
        self.name
    }

    fn columns(&self) -> Vec<String> {
        ["bin (MB)", "ranks", "bar"].map(String::from).to_vec()
    }

    fn points(&self) -> Vec<(u64, u64, u64)> {
        Histogram::build(&self.sizes, 1 << 20).rows().collect()
    }

    fn run_point(&self, _cache: &PlanCache, &(start, end, count): &(u64, u64, u64)) -> Row {
        Row::new(
            vec![
                format!("{}-{}", start >> 20, end >> 20),
                count.to_string(),
                "#".repeat((count as usize) / 8),
            ],
            vec![count as f64],
        )
    }

    fn footer(&self, _rows: &[Row]) -> Option<String> {
        let total: u64 = self.sizes.iter().sum();
        Some(format!(
            "total data: {:.2} GB ({:.0}% of dense)\n",
            total as f64 / 1e9,
            100.0 * bgq_workloads::sparsity_fraction(&self.sizes, DEFAULT_MAX_BYTES)
        ))
    }
}

/// The seed used for a Figure-10 point at `cores` (shared with the
/// `fig10_point` binary so rows compose into the same tables).
pub fn fig10_seed(cores: u32) -> u64 {
    20140900 + cores as u64
}

/// Figure 10: weak-scaling aggregation throughput for both sparse
/// patterns vs. default MPI collective I/O.
pub struct Fig10 {
    pub scales: Vec<u32>,
}

impl Experiment for Fig10 {
    type Point = (Pattern, u32);

    fn name(&self) -> &'static str {
        "fig10"
    }

    fn columns(&self) -> Vec<String> {
        [
            "cores",
            "pattern",
            "data GB",
            "ours GB/s",
            "MPI coll. I/O GB/s",
            "improvement",
        ]
        .map(String::from)
        .to_vec()
    }

    fn points(&self) -> Vec<(Pattern, u32)> {
        [Pattern::Uniform, Pattern::Pareto]
            .into_iter()
            .flat_map(|pat| self.scales.iter().map(move |&c| (pat, c)))
            .collect()
    }

    fn run_point(&self, cache: &PlanCache, &(pattern, cores): &(Pattern, u32)) -> Row {
        let p = fig10_point_with(cache, cores, pattern, fig10_seed(cores));
        // Stream progress as points complete (large points take minutes).
        eprintln!("done: {} {}", pattern.label(), cores);
        Row::new(
            vec![
                cores.to_string(),
                pattern.label().to_string(),
                format!("{:.1}", p.total_bytes as f64 / 1e9),
                fmt_gbs(p.ours),
                fmt_gbs(p.baseline),
                format!("{:.2}x", p.ours / p.baseline),
            ],
            vec![cores as f64, p.ours, p.baseline],
        )
    }

    fn footer(&self, _rows: &[Row]) -> Option<String> {
        Some(
            "\n[paper: pattern 1 improvement 2x -> 3x with scale; pattern 2 improvement 1.5x -> 2x]"
                .into(),
        )
    }
}

/// Figure 11: HACC I/O write throughput vs. default MPI collective I/O.
pub struct Fig11 {
    pub scales: Vec<u32>,
}

impl Experiment for Fig11 {
    type Point = u32;

    fn name(&self) -> &'static str {
        "fig11"
    }

    fn columns(&self) -> Vec<String> {
        [
            "cores",
            "data GB",
            "custom aggregators GB/s",
            "default MPI coll. I/O GB/s",
            "improvement",
        ]
        .map(String::from)
        .to_vec()
    }

    fn points(&self) -> Vec<u32> {
        self.scales.clone()
    }

    fn run_point(&self, cache: &PlanCache, &cores: &u32) -> Row {
        let p = fig11_point_with(cache, cores);
        eprintln!("done: {cores}");
        Row::new(
            vec![
                cores.to_string(),
                format!("{:.1}", p.total_bytes as f64 / 1e9),
                fmt_gbs(p.ours),
                fmt_gbs(p.baseline),
                format!("{:.2}x", p.ours / p.baseline),
            ],
            vec![cores as f64, p.ours, p.baseline],
        )
    }

    fn footer(&self, _rows: &[Row]) -> Option<String> {
        Some("\n[paper: up to ~1.5x improvement from dynamic aggregator selection]".into())
    }
}

fn fig5_machine(cache: &PlanCache) -> std::sync::Arc<Machine> {
    cache.machine(standard_shape(128).unwrap(), &SimConfig::default())
}

/// §IV.B: the analytical model's per-proxy-count thresholds (Eqs. 1–5).
pub struct ModelThresholds;

impl Experiment for ModelThresholds {
    type Point = u32;

    fn name(&self) -> &'static str {
        "thresholds"
    }

    fn columns(&self) -> Vec<String> {
        [
            "k proxies",
            "threshold (model)",
            "asymptotic speedup (k/2)",
            "speedup @128MB (model)",
        ]
        .map(String::from)
        .to_vec()
    }

    fn points(&self) -> Vec<u32> {
        (1..=8).collect()
    }

    fn run_point(&self, cache: &PlanCache, &k: &u32) -> Row {
        let machine = fig5_machine(cache);
        let model = CostModel::from_sim_config(machine.config(), machine.mean_hops());
        Row::text(vec![
            k.to_string(),
            model
                .threshold_bytes(k)
                .map(fmt_bytes)
                .unwrap_or_else(|| "never wins".into()),
            format!("{:.1}", CostModel::asymptotic_speedup(k)),
            format!("{:.2}", model.speedup(128 << 20, k)),
        ])
    }

    fn footer(&self, _rows: &[Row]) -> Option<String> {
        let machine = Machine::new(standard_shape(128).unwrap(), SimConfig::default());
        let model = CostModel::from_sim_config(machine.config(), machine.mean_hops());
        Some(format!(
            "\nminimum beneficial proxies: {}   [paper: k >= 3]",
            model.min_beneficial_proxies()
        ))
    }
}

/// §IV.B validation: model predictions vs. simulator measurements on the
/// Fig. 5 configuration with 4 proxies.
pub struct ModelVsSim;

impl Experiment for ModelVsSim {
    type Point = u64;

    fn name(&self) -> &'static str {
        "model_vs_sim"
    }

    fn columns(&self) -> Vec<String> {
        [
            "size",
            "model direct (ms)",
            "sim direct (ms)",
            "model proxies (ms)",
            "sim proxies (ms)",
        ]
        .map(String::from)
        .to_vec()
    }

    fn points(&self) -> Vec<u64> {
        vec![64 << 10, 256 << 10, 1 << 20, 8 << 20, 64 << 20]
    }

    fn run_point(&self, cache: &PlanCache, &bytes: &u64) -> Row {
        let machine = fig5_machine(cache);
        let model = CostModel::from_sim_config(machine.config(), machine.mean_hops());
        let (src, dst) = (NodeId(0), NodeId(127));
        let proxies = cache
            .proxies(
                machine.shape(),
                Zone::Z2,
                src,
                dst,
                &HashSet::new(),
                &ProxySearchConfig {
                    max_proxies: 4,
                    ..Default::default()
                },
            )
            .proxies();

        let mut pd = Program::new(&machine);
        let hd = plan_direct(&mut pd, src, dst, bytes);
        let sim_direct = hd.completed_at(&pd.run());

        let mut pm = Program::new(&machine);
        let hm = plan_via_proxies(&mut pm, src, dst, bytes, &proxies, &MultipathOptions::default());
        let sim_proxy = hm.completed_at(&pm.run());

        Row::text(vec![
            fmt_bytes(bytes),
            format!("{:.3}", model.direct_time(bytes) * 1e3),
            format!("{:.3}", sim_direct * 1e3),
            format!("{:.3}", model.proxy_time(bytes, 4) * 1e3),
            format!("{:.3}", sim_proxy * 1e3),
        ])
    }
}

/// The four Figure-2 scenarios measured by the `utilization` harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UtilScenario {
    DirectPair,
    ProxiedPair,
    CollectiveWrite,
    DynamicAggregators,
}

impl UtilScenario {
    pub fn label(self) -> &'static str {
        match self {
            UtilScenario::DirectPair => "point-to-point, direct (Fig 2a)",
            UtilScenario::ProxiedPair => "point-to-point, 4 proxies (Fig 2c)",
            UtilScenario::CollectiveWrite => "sparse write, MPI collective I/O (Fig 2b)",
            UtilScenario::DynamicAggregators => "sparse write, dynamic aggregators (Fig 2d)",
        }
    }
}

fn measure(
    machine: &Machine,
    build: impl FnOnce(&mut Program<'_>) -> (u64, Vec<TransferId>),
) -> (f64, f64, f64, f64) {
    let mut prog = Program::new(machine);
    let (bytes, tokens) = build(&mut prog);
    let rep = prog.run();
    let u = utilization(&rep, &machine.capacities());
    let t = rep.last_delivery(&tokens);
    (
        active_fraction(&rep),
        u.mean_active_utilization,
        u.peak_utilization,
        bytes as f64 / t,
    )
}

/// Figure 2, quantified: link utilization of sparse movement with and
/// without proxies/aggregators on the 128-node partition.
pub struct Utilization;

impl Experiment for Utilization {
    type Point = UtilScenario;

    fn name(&self) -> &'static str {
        "utilization"
    }

    fn columns(&self) -> Vec<String> {
        ["scenario", "active links %", "mean util %", "peak util %", "GB/s"]
            .map(String::from)
            .to_vec()
    }

    fn points(&self) -> Vec<UtilScenario> {
        vec![
            UtilScenario::DirectPair,
            UtilScenario::ProxiedPair,
            UtilScenario::CollectiveWrite,
            UtilScenario::DynamicAggregators,
        ]
    }

    fn run_point(&self, cache: &PlanCache, &scenario: &UtilScenario) -> Row {
        let machine = cache.machine(
            standard_shape(128).unwrap(),
            &SimConfig::default().with_link_stats(),
        );
        let (src, dst) = (NodeId(0), NodeId(127));
        let bytes = 64u64 << 20;

        let (af, mu, pu, gbs) = match scenario {
            UtilScenario::DirectPair => measure(&machine, |p| {
                let h = plan_direct(p, src, dst, bytes);
                (h.bytes, h.tokens)
            }),
            UtilScenario::ProxiedPair => {
                let proxies = cache
                    .proxies(
                        machine.shape(),
                        Zone::Z2,
                        src,
                        dst,
                        &HashSet::new(),
                        &ProxySearchConfig {
                            max_proxies: 4,
                            ..Default::default()
                        },
                    )
                    .proxies();
                measure(&machine, |p| {
                    let h =
                        plan_via_proxies(p, src, dst, bytes, &proxies, &MultipathOptions::default());
                    (h.bytes, h.tokens)
                })
            }
            UtilScenario::CollectiveWrite => {
                let data = utilization_data(&machine);
                measure(&machine, |p| {
                    let h = plan_collective_write(p, &data, &CollectiveIoConfig::default());
                    (h.bytes, h.tokens)
                })
            }
            UtilScenario::DynamicAggregators => {
                let data = utilization_data(&machine);
                let mover = cache.mover(&machine);
                measure(&machine, |p| {
                    let plan = mover.plan_sparse_write(p, &data, &IoMoveOptions::default());
                    (plan.handle.bytes, plan.handle.tokens)
                })
            }
        };

        Row::new(
            vec![
                scenario.label().to_string(),
                format!("{:.1}", af * 100.0),
                format!("{:.1}", mu * 100.0),
                format!("{:.1}", pu * 100.0),
                format!("{:.3}", gbs / 1e9),
            ],
            vec![af, mu, pu, gbs],
        )
    }

    fn footer(&self, _rows: &[Row]) -> Option<String> {
        Some(
            "\n[paper Fig. 2: default mechanisms leave links/IO nodes idle; proxies and\n \
             uniformly distributed aggregators engage more of them]"
                .into(),
        )
    }
}

/// Sparse per-node write sizes shared by the two I/O scenarios.
fn utilization_data(machine: &Machine) -> Vec<(NodeId, u64)> {
    let map = RankMap::default_map(*machine.shape(), 16);
    coalesce_to_nodes(
        &map,
        &pareto_sizes(map.num_ranks(), &ParetoParams::default(), 77),
    )
}

/// Path-diversity analysis across partition sizes (explains the proxy
/// count limits behind Figures 5–7).
pub struct Diversity {
    pub partitions: Vec<u32>,
}

impl Default for Diversity {
    fn default() -> Diversity {
        Diversity {
            partitions: vec![128, 256, 512, 1024, 2048],
        }
    }
}

impl Experiment for Diversity {
    type Point = u32;

    fn name(&self) -> &'static str {
        "diversity"
    }

    fn columns(&self) -> Vec<String> {
        [
            "partition",
            "shape",
            "heuristic proxies",
            "exhaustive disjoint",
            "ceiling (2L)",
            "mean detour hops",
            "k/2 potential",
        ]
        .map(String::from)
        .to_vec()
    }

    fn points(&self) -> Vec<u32> {
        self.partitions.clone()
    }

    fn run_point(&self, cache: &PlanCache, &nodes: &u32) -> Row {
        let shape = standard_shape(nodes).unwrap();
        let (src, dst) = (NodeId(0), NodeId(shape.num_nodes() - 1));
        let heuristic = cache
            .proxies(
                &shape,
                Zone::Z2,
                src,
                dst,
                &HashSet::new(),
                &ProxySearchConfig::default(),
            )
            .len();
        let r = diversity_report(&shape, Zone::Z2, src, dst);
        Row::text(vec![
            nodes.to_string(),
            shape.to_string(),
            heuristic.to_string(),
            r.disjoint_paths.to_string(),
            r.upper_bound.to_string(),
            format!("{:.1}", r.mean_detour_hops),
            format!("{:.1}x", CostModel::asymptotic_speedup(r.disjoint_paths as u32)),
        ])
    }

    fn footer(&self, _rows: &[Row]) -> Option<String> {
        let model = CostModel::bgq_defaults();
        Some(format!(
            "\nmodel: k proxies -> k/2 speedup above the threshold (Eq. 5); \
             4-proxy threshold = {} KB",
            model.threshold_bytes(4).unwrap() >> 10
        ))
    }
}

const PAIR_BYTES: u64 = 64 << 20;

/// Direct and k-proxy completion times for the Fig. 5 pair on `machine`.
fn pair_times(
    cache: &PlanCache,
    machine: &Machine,
    k: usize,
    opts: &MultipathOptions,
) -> (f64, f64) {
    let (src, dst) = (NodeId(0), NodeId(127));
    let mut pd = Program::new(machine);
    let t_direct = plan_direct(&mut pd, src, dst, PAIR_BYTES).completed_at(&pd.run());
    let px = cache
        .proxies(
            machine.shape(),
            Zone::Z2,
            src,
            dst,
            &HashSet::new(),
            &ProxySearchConfig {
                min_proxies: 1,
                max_proxies: k,
                ..Default::default()
            },
        )
        .proxies();
    let mut pm = Program::new(machine);
    let t_multi = plan_via_proxies(&mut pm, src, dst, PAIR_BYTES, &px, opts).completed_at(&pm.run());
    (t_direct, t_multi)
}

/// Ablation: the k/2 law in action (proxy count 1–4, 64 MB pair).
pub struct AblationProxyCount;

impl Experiment for AblationProxyCount {
    type Point = usize;

    fn name(&self) -> &'static str {
        "ablation_proxy_count"
    }

    fn columns(&self) -> Vec<String> {
        ["k", "speedup over direct", "k/2 prediction"]
            .map(String::from)
            .to_vec()
    }

    fn points(&self) -> Vec<usize> {
        (1..=4).collect()
    }

    fn run_point(&self, cache: &PlanCache, &k: &usize) -> Row {
        let machine = fig5_machine(cache);
        let (d, m) = pair_times(cache, &machine, k, &MultipathOptions::default());
        Row::new(
            vec![
                k.to_string(),
                format!("{:.2}x", d / m),
                format!("{:.1}x", k as f64 / 2.0),
            ],
            vec![d / m],
        )
    }
}

/// Ablation: store-and-forward vs. pipelined forwarding (§VII).
pub struct AblationForwarding;

impl AblationForwarding {
    fn strategies() -> Vec<(&'static str, MultipathOptions)> {
        vec![
            ("store-and-forward (paper)", MultipathOptions::default()),
            (
                "pipelined 1 MB sub-chunks (paper §VII)",
                MultipathOptions {
                    pipeline_chunk: Some(1 << 20),
                    ..Default::default()
                },
            ),
        ]
    }
}

impl Experiment for AblationForwarding {
    type Point = (&'static str, MultipathOptions);

    fn name(&self) -> &'static str {
        "ablation_forwarding"
    }

    fn columns(&self) -> Vec<String> {
        ["strategy", "time (ms)", "speedup over direct"]
            .map(String::from)
            .to_vec()
    }

    fn points(&self) -> Vec<(&'static str, MultipathOptions)> {
        Self::strategies()
    }

    fn run_point(&self, cache: &PlanCache, (label, opts): &(&'static str, MultipathOptions)) -> Row {
        let machine = fig5_machine(cache);
        let (d, m) = pair_times(cache, &machine, 4, opts);
        Row::new(
            vec![
                label.to_string(),
                format!("{:.2}", m * 1e3),
                format!("{:.2}x", d / m),
            ],
            vec![m, d / m],
        )
    }
}

/// Ablation: aggregator assignment policy (pattern 2, 2,048 cores), one
/// point per policy. Both points hit the same cached machine and
/// aggregator table.
pub struct AblationPolicy;

impl Experiment for AblationPolicy {
    type Point = AssignPolicy;

    fn name(&self) -> &'static str {
        "ablation_policy"
    }

    fn columns(&self) -> Vec<String> {
        ["policy", "GB/s"].map(String::from).to_vec()
    }

    fn points(&self) -> Vec<AssignPolicy> {
        vec![AssignPolicy::BalancedGreedy, AssignPolicy::PsetLocal]
    }

    fn run_point(&self, cache: &PlanCache, &policy: &AssignPolicy) -> Row {
        let gbs = policy_point_with(cache, 2048, Pattern::Pareto, 7, policy);
        let label = match policy {
            AssignPolicy::BalancedGreedy => "balanced over all IONs (paper)",
            AssignPolicy::PsetLocal => "pset-local",
        };
        Row::new(
            vec![label.into(), format!("{:.3}", gbs / 1e9)],
            vec![gbs],
        )
    }
}

/// Sensitivity: the contention penalty γ on the headline pair speedup.
pub struct GammaSensitivity;

impl Experiment for GammaSensitivity {
    type Point = f64;

    fn name(&self) -> &'static str {
        "gamma_sensitivity"
    }

    fn columns(&self) -> Vec<String> {
        ["γ (floor 0.7)", "direct GB/s", "4-proxy GB/s", "speedup"]
            .map(String::from)
            .to_vec()
    }

    fn points(&self) -> Vec<f64> {
        vec![0.0, 0.05, 0.1, 0.2]
    }

    fn run_point(&self, cache: &PlanCache, &gamma: &f64) -> Row {
        let cfg = SimConfig {
            contention_penalty: gamma,
            ..SimConfig::default()
        };
        let machine = cache.machine(standard_shape(128).unwrap(), &cfg);
        let (d, m) = pair_times(cache, &machine, 4, &MultipathOptions::default());
        Row::new(
            vec![
                format!("{gamma:.2}"),
                format!("{:.3}", PAIR_BYTES as f64 / d / 1e9),
                format!("{:.3}", PAIR_BYTES as f64 / m / 1e9),
                format!("{:.2}x", d / m),
            ],
            vec![d / m],
        )
    }
}

/// The storage backends compared by the `storage` harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageTarget {
    DevNull,
    ScaledGpfs,
    SaturatedFs,
}

impl StorageTarget {
    pub fn label(self) -> &'static str {
        match self {
            StorageTarget::DevNull => "/dev/null (paper)",
            StorageTarget::ScaledGpfs => "GPFS share (4 IONs)",
            StorageTarget::SaturatedFs => "saturated fs (1 GB/s)",
        }
    }

    fn fs(self) -> Option<FsParams> {
        match self {
            StorageTarget::DevNull => None,
            // Aggregate fs ingest scaled to the partition (4/384 of
            // Mira's IONs).
            StorageTarget::ScaledGpfs => Some(FsParams {
                per_ion_bandwidth: 3.2e9,
                aggregate_bandwidth: 240e9 * 4.0 / 384.0,
            }),
            StorageTarget::SaturatedFs => Some(FsParams {
                per_ion_bandwidth: 3.2e9,
                aggregate_bandwidth: 1.0e9,
            }),
        }
    }
}

/// Beyond `/dev/null`: sparse writes through the file-server backend
/// (512 nodes, pattern 2).
pub struct Storage;

impl Experiment for Storage {
    type Point = StorageTarget;

    fn name(&self) -> &'static str {
        "storage"
    }

    fn columns(&self) -> Vec<String> {
        ["target", "ours GB/s", "MPI coll. I/O GB/s", "improvement"]
            .map(String::from)
            .to_vec()
    }

    fn points(&self) -> Vec<StorageTarget> {
        vec![
            StorageTarget::DevNull,
            StorageTarget::ScaledGpfs,
            StorageTarget::SaturatedFs,
        ]
    }

    fn run_point(&self, cache: &PlanCache, &target: &StorageTarget) -> Row {
        let shape = standard_shape(512).unwrap();
        let map = RankMap::default_map(shape, 16);
        let sizes = pareto_sizes(map.num_ranks(), &ParetoParams::default(), 4242);
        let fs = target.fs();

        // Machines with a filesystem attached are point-specific (the
        // cache keys machines by shape+SimConfig only), but the
        // aggregator table depends on the shape alone, so it still comes
        // from the shared cache.
        let mut machine = Machine::new(shape, SimConfig::default());
        if let Some(fs) = fs.clone() {
            machine = machine.with_filesystem(fs);
        }
        let data = coalesce_to_nodes(&map, &sizes);
        let layout = machine.io_layout().clone();

        // Ours.
        let mover = SparseMover::with_aggregator_table(&machine, cache.aggregator_table(&machine));
        let mut prog = Program::new(&machine);
        let plan = mover.plan_sparse_write(&mut prog, &data, &IoMoveOptions::default());
        let ours = if fs.is_some() {
            let chunks: Vec<IonChunk> = plan
                .assignments
                .iter()
                .zip(&plan.handle.tokens)
                .map(|(a, &tok)| IonChunk {
                    ion: layout.ion_of_pset(layout.pset_of(a.to)),
                    bytes: a.bytes,
                    delivered: tok,
                })
                .collect();
            let h = continue_to_storage(&mut prog, &chunks);
            h.throughput(&prog.run())
        } else {
            plan.handle.throughput(&prog.run())
        };

        // Baseline. (The collective plan's ION chunks are not exposed, so
        // for the storage variants we conservatively append one fs write
        // per pset carrying that pset's total, gated on the plan's
        // completion — a best case for the baseline.)
        let mut prog = Program::new(&machine);
        let handle = plan_collective_write(&mut prog, &data, &CollectiveIoConfig::default());
        let baseline = if fs.is_some() {
            let total: u64 = data.iter().map(|&(_, b)| b).sum();
            let per_pset = total / layout.num_psets() as u64;
            let gate = prog.modeled_sync(NodeId(0), 0.0, handle.tokens.clone());
            let chunks: Vec<IonChunk> = (0..layout.num_psets())
                .map(|p| IonChunk {
                    ion: IonId(p),
                    bytes: per_pset,
                    delivered: gate,
                })
                .collect();
            let h = continue_to_storage(&mut prog, &chunks);
            let rep = prog.run();
            handle.bytes as f64 / h.completed_at(&rep)
        } else {
            handle.throughput(&prog.run())
        };

        Row::new(
            vec![
                target.label().to_string(),
                format!("{:.3}", ours / 1e9),
                format!("{:.3}", baseline / 1e9),
                format!("{:.2}x", ours / baseline),
            ],
            vec![ours, baseline],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ExperimentSession;

    #[test]
    fn fig5_experiment_matches_sweep() {
        let sizes = vec![64 << 10, 128 << 20];
        let session = ExperimentSession::new(1);
        let run = session.run(&Fig5 { sizes: sizes.clone() });
        let cache = PlanCache::new();
        let sweep: Vec<_> = sizes.iter().map(|&b| fig5_point(&cache, b)).collect();
        assert_eq!(run.rows.len(), 2);
        assert_eq!(run.rows[0].metrics[1], sweep[0].direct);
        assert_eq!(run.rows[1].metrics[2], sweep[1].multipath);
        // The second size reuses the cached machine and proxy selection.
        assert!(session.cache().stats().hits >= 2);
    }

    #[test]
    fn histogram_experiment_bins_everything() {
        let session = ExperimentSession::new(2);
        let run = session.run(&PatternHistogram::fig8());
        let binned: f64 = run.rows.iter().map(|r| r.metrics[0]).sum();
        assert_eq!(binned as u64, 1024);
        assert!(run.rows.len() >= 8, "0–8MB in 1MB bins");
    }

    #[test]
    fn fig10_points_cover_both_patterns_in_order() {
        let exp = Fig10 { scales: vec![2048, 4096] };
        assert_eq!(
            exp.points(),
            vec![
                (Pattern::Uniform, 2048),
                (Pattern::Uniform, 4096),
                (Pattern::Pareto, 2048),
                (Pattern::Pareto, 4096),
            ]
        );
    }
}
