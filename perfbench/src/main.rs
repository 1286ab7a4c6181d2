//! Host-time benchmark of the simulator: how long it takes this program
//! to plan, lower and simulate the paper's scenarios.
//!
//! One process runs one workload from one seed on one thread (the
//! `threads2` decision probe of a traced run is the only exception). It
//! calls only the public APIs of the library crates and times each call
//! from outside. Run it through `perfbench/run.py`, which builds this
//! package and runs it;
//! `perfbench/README.md` says why each workload exists and what every
//! metric means.
//!
//! Usage: `perfbench --workload <exchange_dense|io_write|exchange_wide>
//! --seed <n> --seconds <s> --trace <0|1> [--reference <BENCH_exchange.json>]
//! [--trace-out <file>]`
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

use bgq_comm::{Machine, Program, SparseSendMap, TransferHandle};
use bgq_netsim::{Binding, ResourceId, SimConfig, SimObserver, SimOptions, SimReport, SolverMode};
use bgq_obs::{MetricsRegistry, ProfileArtifact, Recorder, RunProfile, TransferProfile};
use bgq_torus::{shape_for_cores, standard_shape, NodeId, RankMap, Shape, CORES_PER_NODE};
use bgq_workloads::{coalesce_to_nodes, disjoint_heavy_pairs, sparse_pairs, uniform_sizes};
use sdm_core::{
    AggregatorTable, ExchangeAlgorithm, ExchangePlan, IoMoveOptions, NeighborhoodExchange,
    ProxySearchConfig, SparseMover,
};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run: `setup_s` is their median. One set-up takes well
/// under a millisecond to a few milliseconds, so one sample would mostly
/// measure scheduler noise.
const SETUP_MIN_REPS: usize = 20;
const SETUP_MAX_REPS: usize = 5000;
const SETUP_MIN_TIME: Duration = Duration::from_secs(1);
/// Fewest timed iterations per phase, however long one iteration takes.
const MIN_ITERS: usize = 3;
/// Worker threads of the sharded-engine decision probe.
const PROBE_THREADS: usize = 2;
/// The seed of `results/BENCH_exchange.json`, whose 512-node
/// `sparse f4 256K` cell `exchange_dense` must reproduce.
const PUBLISHED_SEED: u64 = 2014;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ExchangeDense,
    IoWrite,
    ExchangeWide,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "exchange_dense" => Some(Workload::ExchangeDense),
            "io_write" => Some(Workload::IoWrite),
            "exchange_wide" => Some(Workload::ExchangeWide),
            _ => None,
        }
    }

    /// Input instances per iteration. The host time of one `io_write` or
    /// `exchange_wide` instance swings by about ±15% with its seed (the
    /// engine's full-solve fallback and the proxy search react
    /// chaotically to the sizes), so an iteration averages many instances
    /// drawn from the run's seed. One `exchange_dense` instance is already
    /// seconds of work and varies far less.
    fn instances(self) -> usize {
        match self {
            Workload::ExchangeDense => 1,
            Workload::IoWrite => 24,
            Workload::ExchangeWide => 16,
        }
    }

    fn cases(self) -> Vec<Case> {
        match self {
            Workload::ExchangeDense | Workload::ExchangeWide => ExchangeAlgorithm::ALL
                .into_iter()
                .map(Case::Exchange)
                .collect(),
            Workload::IoWrite => vec![Case::IoOurs, Case::IoRomio],
        }
    }

    /// `(headline, baseline)` for the simulated-throughput metrics.
    fn headline(self) -> (Case, Case) {
        match self {
            Workload::ExchangeDense | Workload::ExchangeWide => (
                Case::Exchange(ExchangeAlgorithm::ProxyMultipath),
                Case::Exchange(ExchangeAlgorithm::Direct),
            ),
            Workload::IoWrite => (Case::IoOurs, Case::IoRomio),
        }
    }

    fn shape(self) -> Shape {
        match self {
            Workload::ExchangeDense => standard_shape(512).expect("512-node partition"),
            Workload::IoWrite => shape_for_cores(2048).expect("2,048-core partition"),
            Workload::ExchangeWide => standard_shape(8192).expect("8,192-node partition"),
        }
    }

    /// One input instance, made from `seed` alone.
    fn generate(self, shape: &Shape, seed: u64) -> Inputs {
        match self {
            Workload::ExchangeDense => Inputs::Exchange(SparseSendMap::from_rank_pairs(
                &sparse_pairs(shape.num_nodes(), 4, 256 << 10, seed),
            )),
            Workload::IoWrite => {
                // Fig. 10 Pattern 1: uniform [0, 8 MiB] per rank.
                let map = RankMap::default_map(*shape, CORES_PER_NODE);
                let ranks = shape.num_nodes() * CORES_PER_NODE;
                let sizes = uniform_sizes(ranks, bgq_workloads::DEFAULT_MAX_BYTES, seed);
                let data = coalesce_to_nodes(&map, &sizes);
                let total = data.iter().map(|&(_, b)| b).sum();
                Inputs::Io {
                    chunk: sim_chunk_bytes(total, shape.num_nodes()),
                    data,
                }
            }
            Workload::ExchangeWide => {
                // Antipodal pairs at stride 4, each jittered into [16, 32]
                // MiB: always above the 4-proxy threshold.
                let mut pairs = disjoint_heavy_pairs(shape.num_nodes(), 4, 16 << 20);
                let jitter = uniform_sizes(pairs.len() as u32, 16 << 20, seed);
                for (p, j) in pairs.iter_mut().zip(jitter) {
                    p.2 += j;
                }
                Inputs::Exchange(SparseSendMap::from_rank_pairs(&pairs))
            }
        }
    }
}

/// Seed of instance `i` of a run: instance 0 uses the run's seed itself,
/// so `exchange_dense` at seed 2014 is the published cell.
fn instance_seed(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One algorithm a workload plans, lowers and simulates per instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Case {
    Exchange(ExchangeAlgorithm),
    /// Alg. 2 topology-aware aggregation (`SparseMover::plan_sparse_write`).
    IoOurs,
    /// ROMIO two-phase collective write (`bgq_iosys::plan_collective_write`).
    IoRomio,
}

impl Case {
    fn name(self) -> &'static str {
        match self {
            Case::Exchange(alg) => alg.name(),
            Case::IoOurs => "ours",
            Case::IoRomio => "romio",
        }
    }

    /// The crate whose planner lowers this case.
    fn layer(self) -> &'static str {
        match self {
            Case::IoRomio => "iosys",
            _ => "core",
        }
    }
}

/// One generated input instance.
enum Inputs {
    Exchange(SparseSendMap),
    Io {
        data: Vec<(NodeId, u64)>,
        chunk: u64,
    },
}

/// Everything set-up builds; the planner is rebuilt from `table` for
/// free (the table is behind an `Arc`).
struct Built {
    machine: Machine,
    table: Option<Arc<AggregatorTable>>,
    inputs: Vec<Inputs>,
}

/// Host seconds of one set-up, split by layer.
#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    total: f64,
    gen: f64,
    machine: f64,
    table: f64,
}

/// Simulation chunk size of the Fig. 10 runs, as the figure harness
/// picks it: half the mean per-node volume, clamped to [16, 256] MiB,
/// used for both our aggregation chunks and ROMIO's collective buffer.
fn sim_chunk_bytes(total: u64, nodes: u32) -> u64 {
    let per_node = total / nodes.max(1) as u64;
    (per_node / 2).clamp(16 << 20, 256 << 20)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Build the workload's inputs, machine and planner, timing each layer.
fn set_up(w: Workload, seed: u64, tracer: Option<&Tracer>, parent: &str) -> (Built, SetupTimes) {
    let t0 = Instant::now();
    let shape = w.shape();
    let inputs: Vec<Inputs> = (0..w.instances())
        .map(|i| black_box(w.generate(&shape, instance_seed(seed, i))))
        .collect();
    let g1 = Instant::now();
    let machine = black_box(Machine::new(shape, SimConfig::default()));
    let m1 = Instant::now();
    let table = machine
        .io()
        .map(|io| Arc::new(black_box(AggregatorTable::precompute(io))));
    let a1 = Instant::now();
    black_box(SparseMover::with_aggregator_table(&machine, table.clone()));
    let t1 = Instant::now();

    if let Some(tr) = tracer {
        tr.span("workloads", "generate inputs", parent, t0, g1, &[]);
        tr.span("comm", "Machine::new", parent, g1, m1, &[]);
        tr.span("core", "AggregatorTable::precompute", parent, m1, a1, &[]);
        tr.span("bench", parent, "run", t0, t1, &[]);
    }
    let times = SetupTimes {
        total: secs(t1 - t0),
        gen: secs(g1 - t0),
        machine: secs(m1 - g1),
        table: secs(a1 - m1),
    };
    (
        Built {
            machine,
            table,
            inputs,
        },
        times,
    )
}

/// Wall-clock spans of the calls into each layer, in memory until exit.
struct Tracer {
    origin: Instant,
    rec: Recorder,
}

impl Tracer {
    /// One span on the layer's track; `parent` names the iteration (or
    /// set-up, or probe) that made the call.
    fn span(
        &self,
        layer: &str,
        name: &str,
        parent: &str,
        start: Instant,
        end: Instant,
        counters: &[(String, f64)],
    ) {
        let mut args: Vec<(&str, String)> = vec![("parent", parent.to_string())];
        args.extend(counters.iter().map(|(k, v)| (k.as_str(), format!("{v}"))));
        self.rec.span(
            layer,
            name,
            secs(start - self.origin),
            secs(end - self.origin),
            &args,
        );
    }
}

/// A lowered case: what reads its throughput off a report.
enum Lowered {
    Exchange(ExchangePlan),
    Handle(TransferHandle),
}

impl Lowered {
    fn throughput(&self, report: &SimReport) -> f64 {
        match self {
            Lowered::Exchange(plan) => plan.aggregate_throughput(report),
            Lowered::Handle(h) => h.throughput(report),
        }
    }
}

/// One case of one instance of one iteration.
#[derive(Debug)]
struct CaseRun {
    instance: usize,
    case: Case,
    plan_s: f64,
    sim_s: f64,
    throughput: f64,
    delivered: bool,
    delivery: Vec<f64>,
    /// Exact work counts (traced iterations only), sorted by name.
    counts: Vec<(String, f64)>,
}

/// Bit-equality of two delivery-time vectors.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

struct Bench<'m> {
    workload: Workload,
    machine: &'m Machine,
    mover: SparseMover<'m>,
    inputs: &'m [Inputs],
}

impl<'m> Bench<'m> {
    fn new(workload: Workload, built: &'m Built) -> Bench<'m> {
        Bench {
            workload,
            machine: &built.machine,
            mover: SparseMover::with_aggregator_table(&built.machine, built.table.clone()),
            inputs: &built.inputs,
        }
    }

    /// Plan and lower one case of one instance into a fresh program.
    fn lower(
        &self,
        instance: usize,
        case: Case,
        metrics: Option<&Arc<MetricsRegistry>>,
    ) -> (Program<'m>, Lowered) {
        let mut prog = Program::new(self.machine);
        let lowered = match (case, &self.inputs[instance]) {
            (Case::Exchange(alg), Inputs::Exchange(map)) => {
                let ex = match metrics {
                    Some(m) => NeighborhoodExchange::with_mover(
                        self.mover.clone().with_metrics(Arc::clone(m)),
                    )
                    .with_metrics(Arc::clone(m)),
                    None => NeighborhoodExchange::with_mover(self.mover.clone()),
                };
                Lowered::Exchange(ex.plan(&mut prog, map, alg))
            }
            (Case::IoOurs, Inputs::Io { data, chunk }) => {
                let opts = IoMoveOptions {
                    max_chunk: *chunk,
                    ..Default::default()
                };
                Lowered::Handle(self.mover.plan_sparse_write(&mut prog, data, &opts).handle)
            }
            (Case::IoRomio, Inputs::Io { data, chunk }) => {
                let cfg = bgq_iosys::CollectiveIoConfig {
                    cb_buffer: *chunk,
                    ..Default::default()
                };
                Lowered::Handle(bgq_iosys::plan_collective_write(&mut prog, data, &cfg))
            }
            _ => unreachable!("case {case:?} does not belong to {:?}", self.workload),
        };
        (prog, lowered)
    }

    /// Pairs the proxy planner is asked about, over all instances: those
    /// at or above the cost model's minimum-useful-proxies threshold.
    fn pairs_above_threshold(&self) -> u64 {
        let cutoff = self
            .mover
            .model()
            .threshold_bytes(ProxySearchConfig::default().min_proxies as u32)
            .unwrap_or(u64::MAX);
        self.inputs
            .iter()
            .map(|inputs| match inputs {
                Inputs::Exchange(map) => map.pairs().iter().filter(|p| p.2 >= cutoff).count(),
                Inputs::Io { .. } => 0,
            })
            .sum::<usize>() as u64
    }

    /// One iteration: plan, lower and simulate every case of every
    /// instance inline on this thread. A traced iteration also counts
    /// work (planner registry, engine observer) and records a span per
    /// call.
    fn iteration(&self, tracer: Option<&Tracer>, parent: &str) -> Vec<CaseRun> {
        let start = Instant::now();
        let mut runs = Vec::new();
        for instance in 0..self.inputs.len() {
            for case in self.workload.cases() {
                runs.push(self.run_case(instance, case, tracer, parent));
            }
        }
        if let Some(tr) = tracer {
            tr.span("bench", parent, "run", start, Instant::now(), &[]);
        }
        runs
    }

    fn run_case(
        &self,
        instance: usize,
        case: Case,
        tracer: Option<&Tracer>,
        parent: &str,
    ) -> CaseRun {
        let reg = tracer.map(|_| Arc::new(MetricsRegistry::new()));
        let p0 = Instant::now();
        let (prog, lowered) = self.lower(instance, case, reg.as_ref());
        let p1 = Instant::now();
        let mut obs = SimObserver::new();
        let report = match tracer {
            Some(_) => prog.simulate(SimOptions::new().observer(&mut obs)),
            None => prog.simulate(SimOptions::new()),
        };
        let s1 = Instant::now();
        let mut counts = Vec::new();
        if let (Some(tr), Some(reg)) = (tracer, reg) {
            let graph = prog.graph();
            let deps: usize = graph.specs().iter().map(|s| s.deps.len()).sum();
            let mut plan_counts: Vec<(String, f64)> = reg
                .snapshot()
                .counters
                .into_iter()
                .map(|(k, v)| (k, v as f64))
                .collect();
            plan_counts.push(("comm.transfers".into(), graph.len() as f64));
            plan_counts.push(("comm.deps".into(), deps as f64));
            let sim_counts = obs.scalars("netsim.");
            let label = format!("{} #{instance}", case.name());
            tr.span(
                case.layer(),
                &format!("plan {label}"),
                parent,
                p0,
                p1,
                &plan_counts,
            );
            tr.span(
                "netsim",
                &format!("simulate {label}"),
                parent,
                p1,
                s1,
                &sim_counts,
            );
            counts = plan_counts.into_iter().chain(sim_counts).collect();
            counts.sort_by(|a, b| a.0.cmp(&b.0));
        }
        CaseRun {
            instance,
            case,
            plan_s: secs(p1 - p0),
            sim_s: secs(s1 - p1),
            throughput: lowered.throughput(&report),
            delivered: report.all_delivered(),
            delivery: report.delivery_time,
            counts,
        }
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The three 512-node `sparse f4 256K` throughputs of the committed
/// exchange sweep, in [`ExchangeAlgorithm::ALL`] order.
fn published_dense_throughputs(path: &str) -> Result<Vec<f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = bgq_obs::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let point = doc
        .get("points")
        .and_then(|p| p.as_arr())
        .and_then(|pts| {
            pts.iter().find(|p| {
                p.get("nodes").and_then(|n| n.as_u64()) == Some(512)
                    && p.get("pattern").and_then(|s| s.as_str()) == Some("sparse f4 256K")
            })
        })
        .ok_or_else(|| format!("{path}: no 512-node \"sparse f4 256K\" point"))?;
    ExchangeAlgorithm::ALL
        .into_iter()
        .map(|alg| {
            point
                .get(alg.name())
                .and_then(|r| r.get("throughput"))
                .and_then(|t| t.as_f64())
                .ok_or_else(|| format!("{path}: no {} throughput", alg.name()))
        })
        .collect()
}

/// Label a simulator resource as the profile artifacts do.
fn resource_label(machine: &Machine, r: ResourceId) -> String {
    match machine.torus_link(r) {
        Some(link) => link.to_string(),
        None => format!("io{}", r.0),
    }
}

/// A profiled report as a labeled [`RunProfile`], the shape the profile
/// artifact serializes.
fn run_profile(name: &str, machine: &Machine, prog: &Program, report: &SimReport) -> RunProfile {
    let sp = report.profile.as_ref().expect("profiled report");
    let transfers = prog
        .graph()
        .specs()
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let tp = &sp.transfers[i];
            let delivered = report.delivery_time[i].is_finite();
            let mut link_blame: Vec<(String, f64)> = tp
                .bottlenecked_on
                .iter()
                .map(|&(r, s)| (resource_label(machine, r), s))
                .collect();
            link_blame.sort_by(|a, b| a.0.cmp(&b.0));
            TransferProfile {
                id: i as u32,
                label: format!("n{}->n{}", spec.src, spec.dst),
                bytes: spec.bytes,
                ready: tp.ready_time,
                start: report.flow_start_time[i],
                end: if delivered {
                    report.delivery_time[i]
                } else {
                    report.end_time
                },
                delivered,
                queued: tp.queued_before_start,
                cap_limited: tp.cap_limited,
                stalled: tp.stalled_by_fault,
                latency: tp.delivery_latency,
                link_blame,
                bindings: tp
                    .binding_timeline
                    .iter()
                    .map(|(t, b)| {
                        let label = match b {
                            Binding::Link(r) => resource_label(machine, *r),
                            Binding::FlowCap => "cap".to_string(),
                        };
                        (*t, label)
                    })
                    .collect(),
                deps: spec.deps.iter().map(|d| d.0).collect(),
            }
        })
        .collect();
    RunProfile {
        name: name.to_string(),
        end_time: report.end_time,
        transfers,
    }
}

/// Host seconds of the decision and overhead probes, summed over the
/// cases of every instance.
#[derive(Debug, Default)]
struct Probes {
    full_s: f64,
    threads2_s: f64,
    profiled_s: f64,
    artifact_s: f64,
    artifact_bytes: usize,
    /// Probe reports that differed from the reference delivery times,
    /// plus an artifact that failed its round trip.
    mismatches: usize,
}

/// Re-simulate each case under the full solver, the 2-thread sharded
/// executor and the profiler, check each report against the reference,
/// and time the profile artifact of instance 0 through its round trip
/// (run profiles, `to_json`, `from_json`, `validate`).
fn probe(bench: &Bench, reference: &[CaseRun], tracer: &Tracer) -> Probes {
    let mut p = Probes::default();
    let mut artifact = ProfileArtifact::default();
    let mut build_s = 0.0;
    for r in reference {
        let (prog, _) = bench.lower(r.instance, r.case, None);
        let label = format!("{} #{}", r.case.name(), r.instance);
        let timed = |what: &str, opts: SimOptions| {
            let t0 = Instant::now();
            let rep = prog.simulate(opts);
            let t1 = Instant::now();
            tracer.span("netsim", &format!("{what} {label}"), "probe", t0, t1, &[]);
            (rep, secs(t1 - t0))
        };
        let (full, full_s) = timed("simulate_full", SimOptions::new().solver(SolverMode::Full));
        let (sharded, threads2_s) = timed(
            "simulate_threads2",
            SimOptions::new().sharded(PROBE_THREADS),
        );
        let (profiled, profiled_s) = timed("simulate_profiled", SimOptions::new().profiled());
        p.full_s += full_s;
        p.threads2_s += threads2_s;
        p.profiled_s += profiled_s;
        p.mismatches += [&full, &sharded, &profiled]
            .iter()
            .filter(|rep| !same_bits(&rep.delivery_time, &r.delivery))
            .count();
        if r.instance == 0 {
            let t0 = Instant::now();
            artifact
                .runs
                .push(run_profile(r.case.name(), bench.machine, &prog, &profiled));
            build_s += secs(t0.elapsed());
        }
    }
    let t0 = Instant::now();
    let json = artifact.to_json();
    let valid = ProfileArtifact::from_json(&json)
        .is_ok_and(|back| back.validate().is_ok() && back == artifact);
    let t1 = Instant::now();
    tracer.span("obs", "profile artifact round trip", "probe", t0, t1, &[]);
    if !valid {
        p.mismatches += 1;
    }
    p.artifact_s = build_s + secs(t1 - t0);
    p.artifact_bytes = json.len();
    p
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference: Option<String>,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = PUBLISHED_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut reference = None;
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--reference" => reference = Some(value()?),
            "--trace-out" => trace_out = Some(value()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        reference,
        trace_out,
    })
}

/// Correctness bookkeeping: one attempt per simulation.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Check an iteration against the set-up reference: every transfer
    /// delivered, delivery times bit-equal.
    fn check(&mut self, runs: &[CaseRun], reference: &[CaseRun]) {
        for (r, want) in runs.iter().zip(reference) {
            self.record(r.delivered && same_bits(&r.delivery, &want.delivery));
        }
    }
}

/// Check the warm-up outputs: every transfer delivered and, for
/// `exchange_dense` at the published seed, the three throughputs of
/// `results/BENCH_exchange.json` reproduced bit-exactly. Returns `false`
/// when the published file cannot be read.
fn check_reference(args: &Args, reference: &[CaseRun], tally: &mut Tally) -> bool {
    let published =
        (args.workload == Workload::ExchangeDense && args.seed == PUBLISHED_SEED).then(|| {
            args.reference
                .as_deref()
                .ok_or_else(|| "no --reference file given".to_string())
                .and_then(published_dense_throughputs)
        });
    let want = match published {
        Some(Ok(want)) => Some(want),
        Some(Err(e)) => {
            println!("cannot check the published reference: {e}");
            for r in reference {
                tally.record(r.delivered);
            }
            return false;
        }
        None => None,
    };
    for (i, r) in reference.iter().enumerate() {
        let mut ok = r.delivered;
        if let Some(w) = &want {
            if w[i].to_bits() != r.throughput.to_bits() {
                println!(
                    "MISMATCH {}: throughput {:?} != published {:?}",
                    r.case.name(),
                    r.throughput,
                    w[i]
                );
                ok = false;
            }
        }
        tally.record(ok);
    }
    true
}

/// Run iterations until `budget` seconds have passed and at least
/// [`MIN_ITERS`] have run, checking each against `reference`.
fn timed_phase(
    bench: &Bench,
    budget: f64,
    tracer: Option<&Tracer>,
    first_id: usize,
    reference: &[CaseRun],
    tally: &mut Tally,
) -> Vec<Vec<CaseRun>> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < MIN_ITERS || secs(start.elapsed()) < budget {
        let mut runs = bench.iteration(tracer, &format!("iter {}", first_id + out.len()));
        tally.check(&runs, reference);
        // Keep only timings and counts, so memory does not grow with the
        // number of iterations a run fits in.
        for r in &mut runs {
            r.delivery = Vec::new();
        }
        out.push(runs);
    }
    out
}

fn iteration_s(runs: &[CaseRun]) -> f64 {
    runs.iter().map(|r| r.plan_s + r.sim_s).sum()
}

fn sim_s(runs: &[CaseRun]) -> f64 {
    runs.iter().map(|r| r.sim_s).sum()
}

/// Median over iterations of a per-iteration figure.
fn median_of(phase: &[Vec<CaseRun>], f: impl Fn(&[CaseRun]) -> f64) -> f64 {
    median(&phase.iter().map(|runs| f(runs)).collect::<Vec<_>>())
}

/// Mean over instances of the headline algorithm's simulated throughput
/// (bytes/s) and of its ratio to the baseline's.
fn simulated(w: Workload, reference: &[CaseRun]) -> (f64, f64) {
    let (head, base) = w.headline();
    let tput = |i: usize, c: Case| {
        reference
            .iter()
            .find(|r| r.instance == i && r.case == c)
            .expect("every case of every instance ran")
            .throughput
    };
    let n = w.instances();
    let gbs = (0..n).map(|i| tput(i, head)).sum::<f64>() / n as f64;
    let speedup = (0..n).map(|i| tput(i, head) / tput(i, base)).sum::<f64>() / n as f64;
    (gbs, speedup)
}

type Metric = (&'static str, f64, &'static str);

/// The per-layer metrics of a traced run (see README.md).
fn layer_metrics(
    bench: &Bench,
    setups: &[SetupTimes],
    plain: &[Vec<CaseRun>],
    traced: &[Vec<CaseRun>],
    probes: &Probes,
    (sim_gbs, sim_speedup): (f64, f64),
) -> Vec<Metric> {
    let count = |name: &str| -> f64 {
        traced[0]
            .iter()
            .flat_map(|r| &r.counts)
            .filter(|(k, _)| k == name)
            .fold(0.0, |acc, (_, v)| acc + v)
    };
    let plan_s = |layer: &str| {
        median_of(traced, |runs| {
            runs.iter()
                .filter(|r| r.case.layer() == layer)
                .fold(0.0, |acc, r| acc + r.plan_s)
        })
    };
    let setup = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let run_s = median_of(plain, iteration_s);
    let traced_run_s = median_of(traced, iteration_s);
    let simulate_s = median_of(traced, sim_s);
    let plain_sim_s = median_of(plain, sim_s);
    let events = count("netsim.events_processed");
    let full = count("netsim.waterfill_full_runs");
    let incremental = count("netsim.waterfill_incremental_runs");
    vec![
        ("workloads.gen_s", setup(|t| t.gen), "s"),
        ("comm.machine_s", setup(|t| t.machine), "s"),
        ("core.aggregator_table_s", setup(|t| t.table), "s"),
        ("core.plan_s", plan_s("core"), "s"),
        (
            "core.proxy_candidates_tried",
            count("planner.proxy.candidates_tried"),
            "count",
        ),
        (
            "core.proxy_accepted",
            count("planner.proxy.accepted"),
            "count",
        ),
        (
            "core.multipath_yield",
            ratio(
                count("exchange.pairs_multipath"),
                bench.pairs_above_threshold() as f64,
            ),
            "ratio",
        ),
        (
            "core.links_claimed",
            count("exchange.links_claimed"),
            "count",
        ),
        (
            "core.pairs_combined",
            count("exchange.pairs_combined"),
            "count",
        ),
        ("iosys.plan_s", plan_s("iosys"), "s"),
        ("comm.transfers", count("comm.transfers"), "count"),
        ("comm.deps", count("comm.deps"), "count"),
        ("netsim.simulate_s", simulate_s, "s"),
        (
            "netsim.simulate_share",
            ratio(simulate_s, traced_run_s),
            "ratio",
        ),
        ("netsim.events", events, "count"),
        ("netsim.relevels_full", full, "count"),
        ("netsim.relevels_incremental", incremental, "count"),
        (
            "netsim.full_fallback_ratio",
            ratio(full, full + incremental),
            "ratio",
        ),
        ("netsim.host_s_per_event", ratio(simulate_s, events), "s"),
        ("netsim.shards", count("netsim.shards"), "count"),
        ("netsim.sim_gbs", sim_gbs, "GB/s"),
        ("netsim.sim_speedup", sim_speedup, "x"),
        ("netsim.simulate_plain_s", plain_sim_s, "s"),
        ("netsim.simulate_full_s", probes.full_s, "s"),
        ("netsim.simulate_threads2_s", probes.threads2_s, "s"),
        (
            "obs.observer_overhead",
            ratio(simulate_s, plain_sim_s),
            "ratio",
        ),
        (
            "obs.profile_overhead",
            ratio(probes.profiled_s, plain_sim_s),
            "ratio",
        ),
        ("obs.artifact_s", probes.artifact_s, "s"),
        ("obs.artifact_bytes", probes.artifact_bytes as f64, "bytes"),
        ("bench.trace_overhead", ratio(traced_run_s, run_s), "ratio"),
    ]
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib * 1024.0 / 1e6)
}

fn result_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted, tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let v = if value.is_finite() {
            format!("{value:?}")
        } else {
            "null".into()
        };
        let _ = write!(out, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let origin = Instant::now();
    let tracer = args.trace.then(|| Tracer {
        origin,
        rec: Recorder::new(),
    });
    let w = args.workload;

    // Set up several times; the last set-up is kept.
    let mut setups: Vec<SetupTimes> = Vec::new();
    let built = loop {
        let parent = format!("setup {}", setups.len());
        let (built, t) = set_up(w, args.seed, tracer.as_ref(), &parent);
        setups.push(t);
        let enough = setups.len() >= SETUP_MIN_REPS && origin.elapsed() >= SETUP_MIN_TIME;
        if enough || setups.len() >= SETUP_MAX_REPS {
            break built;
        }
    };
    let bench = Bench::new(w, &built);

    // The untimed warm-up iteration gives the reference outputs.
    let reference = bench.iteration(None, "warm-up");
    let mut tally = Tally::default();
    let mut correct = check_reference(&args, &reference, &mut tally);
    let (sim_bytes_per_s, sim_speedup) = simulated(w, &reference);
    let sim_gbs = sim_bytes_per_s / 1e9;

    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = timed_phase(&bench, budget, None, 0, &reference, &mut tally);
    let samples: Vec<String> = plain
        .iter()
        .map(|r| format!("{:.4}", iteration_s(r)))
        .collect();
    println!(
        "untraced iterations ({} instance(s) each), host s: {}",
        w.instances(),
        samples.join(" ")
    );

    let metrics = if let Some(tr) = &tracer {
        let traced = timed_phase(
            &bench,
            budget,
            Some(tr),
            plain.len(),
            &reference,
            &mut tally,
        );
        // Exact counts must repeat across traced iterations.
        let counts: Vec<Vec<&(String, f64)>> = traced
            .iter()
            .map(|runs| runs.iter().flat_map(|r| &r.counts).collect())
            .collect();
        if counts.iter().any(|c| *c != counts[0]) {
            println!("work counts differ between traced iterations");
            correct = false;
        }
        let probes = probe(&bench, &reference, tr);
        tally.record(probes.mismatches == 0);
        if probes.mismatches > 0 {
            println!("{} probe check(s) failed", probes.mismatches);
        }
        let simulated = (sim_gbs, sim_speedup);
        let metrics = layer_metrics(&bench, &setups, &plain, &traced, &probes, simulated);
        let json = tr.rec.to_chrome_json();
        if let Err(e) = bgq_obs::json::validate(&json) {
            println!("the layer trace is not valid JSON: {e}");
            correct = false;
        }
        match &args.trace_out {
            Some(path) => match std::fs::write(path, &json) {
                Ok(()) => println!("layer trace: {path} ({} spans)", tr.rec.len()),
                Err(e) => {
                    println!("cannot write {path}: {e}");
                    correct = false;
                }
            },
            None => println!("layer trace not written (no --trace-out)"),
        }
        println!("traced iterations: {}", traced.len());
        metrics
    } else {
        let rss = peak_rss_mb().unwrap_or_else(|e| {
            println!("cannot read the peak resident set: {e}");
            correct = false;
            0.0
        });
        vec![
            (
                "setup_s",
                median(&setups.iter().map(|t| t.total).collect::<Vec<_>>()),
                "s",
            ),
            ("run_s", median_of(&plain, iteration_s), "s"),
            ("peak_rss_mb", rss, "MB"),
        ]
    };
    println!("set-ups: {} (setup_s is their median)", setups.len());
    println!("simulated headline throughput: {sim_gbs} GB/s, {sim_speedup}x its baseline");
    println!(
        "failed_frac: {} ({} of {} simulations)",
        tally.failed as f64 / tally.attempted as f64,
        tally.failed,
        tally.attempted
    );
    for (name, value, unit) in &metrics {
        println!("{name:<30} {value:>16.6e} {unit}");
    }
    println!(
        "{}",
        result_line(correct && tally.failed == 0, &tally, &metrics)
    );
}
