//! Scaling sweep for the waterfill solver: the same sparse transfer
//! pattern simulated with [`SolverMode::Full`] (re-level a component's
//! whole active set at every rate epoch), with the default
//! [`SolverMode::Incremental`] (re-level only the dirty flow/link
//! closure), and with the incremental solver re-run on the sharded
//! executor (`SimOptions::sharded`), across partition sizes up to
//! 8,192 nodes.
//!
//! The pattern is the regime the paper's sparse workloads live in: many
//! link-disjoint neighbor exchanges plus one dependent fan-out per
//! D×E torus column. The fan-out chains share their source node (so
//! injection serialization ties them into one contention component) but
//! only partially overlap on links, which is exactly the shape where
//! the dirty-closure machinery beats full re-levels *within* a
//! component. Columns never share a link with each other — routes
//! between nodes of one aligned D×E block stay inside the block — so
//! the pattern decomposes into hundreds of independent components and
//! the sharded executor can spread them over a worker pool.
//!
//! All three runs must produce bit-identical reports — the sweep
//! asserts it — so the only thing the solver mode or thread count
//! changes is how much each rate epoch costs in wall-clock terms.
//!
//! Results go to `results/BENCH_scale.json` via the `scale` binary.

use bgq_comm::{Machine, Program};
use bgq_netsim::{SimConfig, SimObserver, SimOptions, SimReport, SolverMode};
use bgq_torus::{standard_shape, Dim, NodeId, Shape};
use std::fmt::Write as _;
use std::time::Instant;

/// One run's measurements at one partition size.
#[derive(Debug, Clone)]
pub struct SolverSide {
    /// Wall-clock seconds for the simulation call.
    pub wall_secs: f64,
    /// Events popped from the engine queues.
    pub events: u64,
    /// Events per wall-clock second.
    pub events_per_sec: f64,
    /// Re-levels over a component's entire active set.
    pub full_runs: u64,
    /// Re-levels confined to the dirty closure.
    pub incremental_runs: u64,
    /// Simulated end time (must match the other sides bit-for-bit).
    pub makespan: f64,
}

/// Full vs. incremental vs. sharded comparison at one partition size.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    pub nodes: u32,
    pub transfers: usize,
    /// Worker threads the sharded side ran with (0 = in-line).
    pub threads: usize,
    /// Contention components the engine discovered (identical across
    /// all three sides — the partition is input-determined).
    pub shards: u32,
    pub full: SolverSide,
    pub incremental: SolverSide,
    /// The incremental solver re-run under `SimOptions::sharded`.
    pub sharded: SolverSide,
}

impl ScalePoint {
    /// Wall-clock improvement of incremental over full re-leveling.
    pub fn speedup(&self) -> f64 {
        self.full.wall_secs / self.incremental.wall_secs
    }

    /// How many full re-levels the dirty-set machinery avoided:
    /// `full_runs(full mode) / full_runs(incremental mode)`.
    pub fn full_run_reduction(&self) -> f64 {
        self.full.full_runs as f64 / (self.incremental.full_runs.max(1)) as f64
    }

    /// Wall-clock improvement of the worker pool over the in-line
    /// incremental run. Bounded by the machine's core count; on a
    /// single-core host this measures sharding overhead (≈ 1.0).
    pub fn parallel_speedup(&self) -> f64 {
        self.incremental.wall_secs / self.sharded.wall_secs
    }
}

/// Build the sweep's sparse pattern on an `nodes`-node partition.
///
/// Two ingredients, both confined to aligned D×E torus columns so the
/// pattern shards (node ids are row-major `ABCDE`, `E` fastest — a
/// block of `extent(D) * extent(E)` consecutive ids is a column whose
/// internal routes never leave it):
///
/// * one neighbor put per 4 nodes — a single `+E` hop, link-disjoint,
///   staggered sizes so completions land in distinct rate epochs;
/// * one dependent fan-out per column: a hub node (`d=0, e=1`) streams
///   3-deep put chains to 4–5 destinations in its column. The chains
///   share the hub (one component via injection serialization) but
///   only the `+D` pair shares links, so a completion's dirty closure
///   stays well under half the component.
fn build_pattern(prog: &mut Program<'_>, shape: &Shape, nodes: u32) -> usize {
    let mut transfers = 0;
    for i in (0..nodes).step_by(4) {
        // Unique size per transfer so disjoint completions land in
        // distinct rate epochs instead of batching into a few waves.
        let bytes = (256u64 << 10) + (i as u64) * 4096;
        prog.put(NodeId(i), NodeId((i + 1) % nodes), bytes);
        transfers += 1;
    }

    let de = shape.extent(Dim::D) as u32;
    let ee = shape.extent(Dim::E) as u32;
    debug_assert_eq!(ee, 2, "standard shapes end in an E extent of 2");
    let block = de * ee;
    const ROUNDS: u64 = 3;
    for (bi, base) in (0..nodes).step_by(block as usize).enumerate() {
        let node = |d: u32, e: u32| NodeId(base + d * ee + e);
        let hub = node(0, 1);
        // +D one hop; +D two hops (shares the first link with the
        // previous chain — real contention, small dirty closure); -D
        // one hop; the E-flip back to the column base. Larger D
        // extents afford a second -D chain.
        let mut dsts = vec![node(1, 1), node(2, 1), node(de - 1, 1), node(0, 0)];
        if de >= 6 {
            dsts.push(node(de - 2, 1));
        }
        for (ci, dst) in dsts.into_iter().enumerate() {
            let mut dep = Vec::new();
            for round in 0..ROUNDS {
                let bytes = (1u64 << 20) + (bi as u64 * 17 + ci as u64 * 5 + round) * 4096;
                let t = prog.put_after(hub, dst, bytes, dep, 0.0);
                dep = vec![t];
                transfers += 1;
            }
        }
    }
    transfers
}

fn timed_run(
    prog: &Program<'_>,
    solver: SolverMode,
    threads: usize,
) -> (SolverSide, u32, SimReport) {
    let mut obs = SimObserver::new();
    let start = Instant::now();
    let report = prog.simulate(
        SimOptions::new()
            .solver(solver)
            .sharded(threads)
            .observer(&mut obs),
    );
    let wall_secs = start.elapsed().as_secs_f64();
    let side = SolverSide {
        wall_secs,
        events: obs.events_processed,
        events_per_sec: obs.events_processed as f64 / wall_secs.max(1e-9),
        full_runs: obs.waterfill_full_runs,
        incremental_runs: obs.waterfill_incremental_runs,
        makespan: report.end_time,
    };
    (side, obs.shards as u32, report)
}

/// Evaluate one partition size under `sim` with `threads` shard workers
/// (the run-ledger replays the sweep cell on a degraded machine). Panics
/// if any pair of runs disagrees on any delivery time — bit-identity is
/// the engine's contract.
pub fn scale_point_with(nodes: u32, sim: &SimConfig, threads: usize) -> ScalePoint {
    let shape = standard_shape(nodes)
        .unwrap_or_else(|| panic!("no standard {nodes}-node partition"));
    let machine = Machine::new(shape, sim.clone());
    let mut prog = Program::new(&machine);
    let transfers = build_pattern(&mut prog, machine.shape(), nodes);

    let (full, _, report_full) = timed_run(&prog, SolverMode::Full, 0);
    let (incremental, shards, report_inc) = timed_run(&prog, SolverMode::default(), 0);
    let (sharded, shards_par, report_par) = timed_run(&prog, SolverMode::default(), threads);

    assert_eq!(
        report_full.delivery_time, report_inc.delivery_time,
        "solver modes diverged at {nodes} nodes"
    );
    assert_eq!(
        report_inc, report_par,
        "sharded execution diverged from in-line at {nodes} nodes ({threads} threads)"
    );
    assert_eq!(shards, shards_par, "partition must not depend on threads");
    ScalePoint {
        nodes,
        transfers,
        threads,
        shards,
        full,
        incremental,
        sharded,
    }
}

/// The partition sizes of the sweep, capped at `max_nodes`.
pub fn scale_sizes(max_nodes: u32) -> Vec<u32> {
    [512u32, 1024, 2048, 4096, 8192]
        .into_iter()
        .filter(|&n| n <= max_nodes)
        .collect()
}

fn json_side(out: &mut String, label: &str, s: &SolverSide) {
    let _ = write!(
        out,
        "\"{label}\":{{\"wall_secs\":{:.6},\"events\":{},\"events_per_sec\":{:.1},\
         \"full_runs\":{},\"incremental_runs\":{},\"makespan\":{:?}}}",
        s.wall_secs, s.events, s.events_per_sec, s.full_runs, s.incremental_runs, s.makespan
    );
}

/// Serialize a sweep as the `BENCH_scale.json` artifact.
pub fn scale_json(points: &[ScalePoint]) -> String {
    let mut out = String::from("{\"experiment\":\"scale\",\"points\":[");
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"nodes\":{},\"transfers\":{},\"threads\":{},\"shards\":{},",
            p.nodes, p.transfers, p.threads, p.shards
        );
        json_side(&mut out, "full", &p.full);
        out.push(',');
        json_side(&mut out, "incremental", &p.incremental);
        out.push(',');
        json_side(&mut out, "sharded", &p.sharded);
        let _ = write!(
            out,
            ",\"wall_speedup\":{:.3},\"full_run_reduction\":{:.1},\"parallel_speedup\":{:.3}}}",
            p.speedup(),
            p.full_run_reduction(),
            p.parallel_speedup()
        );
    }
    out.push_str("]}");
    out
}

/// Serialize only the simulated (wall-clock-free) quantities of a
/// sweep: makespans, event and solve counts, shard counts. Two runs of
/// the same sweep must produce byte-identical output at any thread
/// count — `just verify`'s sharded-determinism smoke diffs this.
pub fn scale_report_json(points: &[ScalePoint]) -> String {
    let mut out = String::from("{\"experiment\":\"scale_report\",\"points\":[");
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"nodes\":{},\"transfers\":{},\"shards\":{},\"makespan\":{:?},\
             \"events\":{},\"full_mode_full_runs\":{},\"incremental_mode_full_runs\":{},\
             \"incremental_mode_incremental_runs\":{}}}",
            p.nodes,
            p.transfers,
            p.shards,
            p.incremental.makespan,
            p.incremental.events,
            p.full.full_runs,
            p.incremental.full_runs,
            p.incremental.incremental_runs
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_point_decomposes_shards_and_stays_bit_identical() {
        // scale_point_with itself asserts the three runs agree
        // bit-for-bit; the smoke checks the pattern's shape.
        let p = scale_point_with(512, &SimConfig::default(), 8);
        assert!(p.transfers > 0);
        assert!(
            p.shards > 64,
            "the column pattern must decompose ({} shards)",
            p.shards
        );
        // Full mode never takes the incremental path…
        assert_eq!(p.full.incremental_runs, 0);
        assert!(p.full.full_runs > 0);
        // …and the incremental mode resolves most epochs without a
        // full re-level: fan-out completions dirty only their own
        // chain (plus the one +D link-sharer), well under the
        // half-the-component fallback threshold.
        assert!(
            p.incremental.incremental_runs > p.incremental.full_runs,
            "incremental {} vs full {}",
            p.incremental.incremental_runs,
            p.incremental.full_runs
        );
        assert_eq!(p.full.makespan.to_bits(), p.incremental.makespan.to_bits());
        assert_eq!(p.incremental.makespan.to_bits(), p.sharded.makespan.to_bits());
        assert!(p.full.events > 0 && p.full.events == p.incremental.events);
        assert_eq!(p.incremental.events, p.sharded.events);
        assert_eq!(
            p.incremental.full_runs + p.incremental.incremental_runs,
            p.sharded.full_runs + p.sharded.incremental_runs,
            "thread count must not change solver work"
        );
    }

    #[test]
    fn report_json_is_identical_at_every_thread_count() {
        let cfg = SimConfig::default();
        let seq = scale_report_json(&[scale_point_with(512, &cfg, 1)]);
        let two = scale_report_json(&[scale_point_with(512, &cfg, 2)]);
        let eight = scale_report_json(&[scale_point_with(512, &cfg, 8)]);
        assert_eq!(seq, two);
        assert_eq!(two, eight);
    }

    #[test]
    fn json_artifact_is_valid() {
        let p = scale_point_with(512, &SimConfig::default(), 2);
        let json = scale_json(std::slice::from_ref(&p));
        bgq_obs::json::validate(&json).expect("BENCH_scale.json must be valid JSON");
        assert!(json.contains("\"full_run_reduction\""));
        assert!(json.contains("\"parallel_speedup\""));
        assert!(json.contains("\"sharded\""));
        let report = scale_report_json(&[p]);
        bgq_obs::json::validate(&report).expect("scale report must be valid JSON");
        assert!(!report.contains("wall"), "report must be wall-clock-free");
    }
}
