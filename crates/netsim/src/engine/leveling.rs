//! Rate leveling: incremental max-min re-levels over the dirty closure.
//!
//! The max-min fair allocation decomposes over connected components of
//! the bipartite flow↔resource contention graph: a flow's rate depends
//! only on the flows it (transitively) shares a resource with. Sparse
//! transfer patterns keep those components small, so most events — one
//! flow arriving, one finishing, one link changing capacity — perturb a
//! tiny neighborhood while the classical engine re-leveled *every*
//! active flow.
//!
//! The [`Leveler`] maintains per-resource membership lists (which active
//! flows cross each resource) and a dirty set seeded by the events since
//! the last re-level: joined flows, the routes of joined/departed flows,
//! and fault-touched resources. At the epoch boundary it closes the
//! seeds transitively (any flow on a dirty resource is dirty; any
//! resource on a dirty flow's route is dirty) and re-solves the
//! waterfill over just the dirty flows. Because the closure is exactly a
//! union of contention components — and [`crate::Waterfill`] is a pure
//! function of its demand set, including share-tie resolution — the
//! sub-solve returns rates bit-identical to the same flows' rates in a
//! full solve. Untouched flows keep their previous (equally identical)
//! rates.
//!
//! When the dirty closure exceeds [`FULL_FRACTION`] of the active set
//! the leveler falls back to a full solve: the sub-demand bookkeeping
//! would cost more than it saves, and the fallback keeps the worst case
//! at the classical engine's cost. [`SolverMode::Full`] forces that
//! fallback at every re-level; both decisions feed the same solve over
//! a list of active-set indices (all of them, or the dirty ones). The
//! closure is bounded: the leveler keeps an exact count of dirty
//! *active* flows (a flow that leaves is unmarked), the count only grows
//! during the BFS, so the BFS stops the moment it passes the threshold —
//! the same fallback decision the complete closure would reach, at a
//! fraction of its cost in dense regimes where almost every re-level
//! closes over the whole active set. Results are identical whichever
//! way a re-level goes, which `tests/incremental.rs` pins against a
//! `Full` run.

use crate::config::SimConfig;
use crate::graph::TransferSpec;
use crate::waterfill::{FlowDemand, Waterfill};

use super::flow_state::ActiveFlow;
use super::SolverMode;

/// Dirty-closure size, as a fraction of the active set, above which an
/// incremental re-level falls back to a full solve.
const FULL_FRACTION: f64 = 0.5;

#[derive(Debug)]
pub(crate) struct Leveler {
    wf: Waterfill,
    /// Force the full-solve fallback at every re-level
    /// ([`SolverMode::Full`]).
    full_only: bool,
    /// Per-resource membership: the active transfer ids crossing each
    /// resource (with multiplicity, mirroring route multiplicity).
    res_flows: Vec<Vec<u32>>,
    res_dirty: Vec<bool>,
    dirty_res: Vec<u32>,
    /// Per-transfer dirty marks (indexed by transfer id). Only active
    /// flows carry a mark: a leaving flow drops its own.
    flow_dirty: Vec<bool>,
    /// Every flow marked since the last re-level (a flow that left and
    /// rejoined may appear twice); the list `clear_dirty` walks.
    dirty_flows: Vec<u32>,
    /// Number of flows whose `flow_dirty` mark is set.
    dirty_count: usize,
    /// Active-list indices of the flows the next solve covers: the dirty
    /// ones, or every active flow on a full solve. Rebuilt each re-level.
    sub_idx: Vec<u32>,
    /// Per-transfer binding resource (the waterfill resource whose
    /// residual fixed the flow's rate; `CAP_BINDING` = its own cap) from
    /// the most recent solve that included the flow. Untouched flows
    /// keep their previous binding for the same reason they keep their
    /// previous rate: their contention component did not change.
    binding: Vec<u32>,
    /// Full re-levels performed (entire active set).
    pub full_runs: u64,
    /// Incremental re-levels performed (dirty closure only).
    pub incremental_runs: u64,
}

impl Leveler {
    pub fn new(num_resources: usize, num_transfers: usize, mode: SolverMode) -> Leveler {
        Leveler {
            wf: Waterfill::new(num_resources),
            full_only: mode == SolverMode::Full,
            res_flows: (0..num_resources).map(|_| Vec::new()).collect(),
            res_dirty: vec![false; num_resources],
            dirty_res: Vec::new(),
            flow_dirty: vec![false; num_transfers],
            dirty_flows: Vec::new(),
            dirty_count: 0,
            sub_idx: Vec::new(),
            binding: vec![crate::waterfill::CAP_BINDING; num_transfers],
            full_runs: 0,
            incremental_runs: 0,
        }
    }

    fn mark_res(&mut self, ri: usize) {
        if !self.res_dirty[ri] {
            self.res_dirty[ri] = true;
            self.dirty_res.push(ri as u32);
        }
    }

    fn mark_flow(&mut self, tid: u32) {
        if !self.flow_dirty[tid as usize] {
            self.flow_dirty[tid as usize] = true;
            self.dirty_flows.push(tid);
            self.dirty_count += 1;
        }
    }

    /// A flow entered the active set: index its route and seed the dirty
    /// set with the flow and every resource it crosses.
    pub fn note_join(&mut self, tid: u32, route: &[crate::graph::ResourceId]) {
        self.mark_flow(tid);
        for r in route {
            let ri = r.0 as usize;
            self.res_flows[ri].push(tid);
            self.mark_res(ri);
        }
    }

    /// A flow left the active set (completed or stalled): unindex it,
    /// drop its own dirty mark (it is no longer in the demand set) and
    /// mark its route — the bandwidth it held is up for redistribution.
    pub fn note_leave(&mut self, tid: u32, route: &[crate::graph::ResourceId]) {
        if self.flow_dirty[tid as usize] {
            self.flow_dirty[tid as usize] = false;
            self.dirty_count -= 1;
        }
        for r in route {
            let ri = r.0 as usize;
            if let Some(p) = self.res_flows[ri].iter().position(|&t| t == tid) {
                self.res_flows[ri].swap_remove(p);
            }
            self.mark_res(ri);
        }
    }

    /// A fault changed a resource's effective capacity.
    pub fn note_caps_changed(&mut self, ri: usize) {
        self.mark_res(ri);
    }

    /// The binding resource of transfer `tid` as of the last re-level
    /// that included it (`CAP_BINDING` = bound by its own rate cap).
    pub fn binding_of(&self, tid: u32) -> u32 {
        self.binding[tid as usize]
    }

    /// Re-level `active` at an epoch boundary: close the dirty set, pick
    /// incremental vs full, solve, and write the new rates into the
    /// flows. `rates` is the caller's reusable scratch vector.
    pub fn level(
        &mut self,
        active: &mut [ActiveFlow],
        specs: &[TransferSpec],
        caps: &[f64],
        config: &SimConfig,
        rates: &mut Vec<f64>,
    ) {
        // Transitive closure: dirty resource -> its flows dirty -> their
        // routes dirty. `dirty_res` doubles as the BFS worklist (the
        // scan index only moves forward over appended entries). Only
        // active flows sit in `res_flows`, so `dirty_count` is the
        // number of dirty active flows; it never shrinks here, so once
        // it passes the threshold the full closure would too.
        let threshold = FULL_FRACTION * active.len() as f64;
        let mut fallback = self.full_only || self.dirty_count as f64 > threshold;
        let mut qi = 0;
        'closure: while !fallback && qi < self.dirty_res.len() {
            let ri = self.dirty_res[qi] as usize;
            qi += 1;
            for k in 0..self.res_flows[ri].len() {
                let tid = self.res_flows[ri][k];
                if !self.flow_dirty[tid as usize] {
                    self.mark_flow(tid);
                    if self.dirty_count as f64 > threshold {
                        fallback = true;
                        break 'closure;
                    }
                    for r in &specs[tid as usize].route {
                        self.mark_res(r.0 as usize);
                    }
                }
            }
        }

        // The flows to solve, in active-list order: the demand order a
        // full solve presents them in, so a sub-solve reproduces its bits.
        self.sub_idx.clear();
        if fallback {
            self.full_runs += 1;
            self.sub_idx.extend(0..active.len() as u32);
        } else {
            self.incremental_runs += 1;
            for (i, f) in active.iter().enumerate() {
                if self.flow_dirty[f.tid as usize] {
                    self.sub_idx.push(i as u32);
                }
            }
            debug_assert_eq!(self.sub_idx.len(), self.dirty_count);
        }
        self.clear_dirty();
        self.solve(active, specs, caps, config, rates);
    }

    /// Solve the waterfill over the flows `sub_idx` names and write their
    /// rates and bindings back; every other flow keeps its own.
    fn solve(
        &mut self,
        active: &mut [ActiveFlow],
        specs: &[TransferSpec],
        caps: &[f64],
        config: &SimConfig,
        rates: &mut Vec<f64>,
    ) {
        if self.sub_idx.is_empty() {
            return;
        }
        let demands: Vec<FlowDemand> = self
            .sub_idx
            .iter()
            .map(|&i| {
                let spec = &specs[active[i as usize].tid as usize];
                FlowDemand {
                    route: &spec.route,
                    cap: spec.rate_cap.unwrap_or(config.per_flow_cap),
                }
            })
            .collect();
        self.wf.compute_with_penalty(
            &demands,
            caps,
            config.contention_penalty,
            config.contention_floor,
            rates,
        );
        let Leveler {
            wf,
            binding,
            sub_idx,
            ..
        } = self;
        let bindings = wf.bindings();
        for (k, &i) in sub_idx.iter().enumerate() {
            let f = &mut active[i as usize];
            f.rate = rates[k];
            binding[f.tid as usize] = bindings[k];
        }
    }

    fn clear_dirty(&mut self) {
        for &ri in &self.dirty_res {
            self.res_dirty[ri as usize] = false;
        }
        self.dirty_res.clear();
        for &tid in &self.dirty_flows {
            self.flow_dirty[tid as usize] = false;
        }
        self.dirty_flows.clear();
        self.dirty_count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ResourceId;

    fn cfg() -> SimConfig {
        SimConfig {
            link_bandwidth: 100.0,
            io_link_bandwidth: 100.0,
            per_flow_cap: 100.0,
            hop_latency: 0.0,
            send_overhead: 1.0,
            recv_overhead: 0.0,
            rma_phase_overhead: 0.0,
            forward_overhead: 0.0,
            contention_penalty: 0.0,
            contention_floor: 1.0,
            collect_link_stats: false,
        }
    }

    fn spec(route: &[u32]) -> TransferSpec {
        TransferSpec::new(0, 1, 100, route.iter().map(|&r| ResourceId(r)).collect())
    }

    fn flow(tid: u32) -> ActiveFlow {
        ActiveFlow {
            tid,
            remaining: 100.0,
            rate: 0.0,
        }
    }

    /// An incremental leveler with every flow in `specs` joined, active
    /// in tid order, and leveled once (a full solve: every flow is dirty).
    fn leveled(specs: &[TransferSpec], num_resources: usize) -> (Leveler, Vec<ActiveFlow>) {
        let caps = vec![100.0; num_resources];
        let mut lev = Leveler::new(num_resources, specs.len(), SolverMode::Incremental);
        let mut active: Vec<ActiveFlow> = (0..specs.len() as u32).map(flow).collect();
        for (tid, s) in specs.iter().enumerate() {
            lev.note_join(tid as u32, &s.route);
        }
        lev.level(&mut active, specs, &caps, &cfg(), &mut Vec::new());
        assert_eq!((lev.full_runs, lev.incremental_runs), (1, 0));
        (lev, active)
    }

    #[test]
    fn incremental_leaves_untouched_component_alone() {
        // Flows 0,1 share link 0; flows 2,3 share link 1. Flow 3's
        // departure dirties flow 2 only (1 of 3 active: incremental),
        // which must not touch flows 0 and 1.
        let specs = vec![spec(&[0]), spec(&[0]), spec(&[1]), spec(&[1])];
        let caps = [100.0, 100.0];
        let (mut lev, mut active) = leveled(&specs, 2);
        assert_eq!(active[0].rate, 50.0);
        assert_eq!(active[2].rate, 50.0);
        assert_eq!((lev.binding_of(0), lev.binding_of(1)), (0, 0));

        // Poison the disjoint component's rates to prove the sub-solve
        // never visits them.
        lev.note_leave(3, &specs[3].route);
        active.pop();
        active[0].rate = -1.0;
        active[1].rate = -1.0;
        lev.level(&mut active, &specs, &caps, &cfg(), &mut Vec::new());
        assert_eq!(active[0].rate, -1.0);
        assert_eq!(active[1].rate, -1.0);
        assert_eq!(
            (lev.binding_of(0), lev.binding_of(1)),
            (0, 0),
            "untouched bindings persist"
        );
        // Flow 2 now rides link 1 alone at the shared-equals-cap tie,
        // where the real link wins (lower resource index).
        assert_eq!(active[2].rate, 100.0);
        assert_eq!(lev.binding_of(2), 1);
        assert_eq!((lev.full_runs, lev.incremental_runs), (1, 1));
    }

    #[test]
    fn closure_pulls_in_transitive_sharers() {
        // Chain: flow 0 on {0}, flow 1 on {0,1}, flow 2 on {1}; flows
        // 3..=5 sit on link 2. A join on link 0 must re-level flow 2 too
        // (via flow 1): a closure of 3 of 6 active flows, incremental.
        let specs = vec![
            spec(&[0]),
            spec(&[0, 1]),
            spec(&[1]),
            spec(&[2]),
            spec(&[2]),
            spec(&[2]),
        ];
        let caps = [100.0; 3];
        let mut lev = Leveler::new(3, specs.len(), SolverMode::Incremental);
        let mut active: Vec<ActiveFlow> = (1..6).map(flow).collect();
        for f in &active {
            lev.note_join(f.tid, &specs[f.tid as usize].route);
        }
        lev.level(&mut active, &specs, &caps, &cfg(), &mut Vec::new());
        assert_eq!(active[0].rate, 50.0);
        assert_eq!(active[1].rate, 50.0);

        lev.note_join(0, &specs[0].route);
        active.insert(0, flow(0));
        active[2].rate = -1.0; // flow 2: must be re-leveled via closure
        lev.level(&mut active, &specs, &caps, &cfg(), &mut Vec::new());
        // Max-min: link 0 splits 50/50 between flows 0 and 1; flow 2
        // then gets link 1's slack.
        assert_eq!(active[0].rate, 50.0);
        assert_eq!(active[1].rate, 50.0);
        assert_eq!(active[2].rate, 50.0);
        assert_eq!((lev.full_runs, lev.incremental_runs), (1, 1));
    }

    #[test]
    fn closure_of_half_the_active_set_stays_incremental() {
        // Flows 0..5 share link 0; flows 5..10 ride links 1..=5 alone. A
        // capacity change on link 0 closes over 5 of 10 active flows —
        // exactly the threshold — and stays incremental; one on links 0
        // and 1 closes over 6 and falls back to a full solve.
        let specs: Vec<TransferSpec> = (0..10).map(|t| spec(&[t.max(4) - 4])).collect();
        let caps = [100.0; 6];
        let (mut lev, mut active) = leveled(&specs, 6);
        lev.note_caps_changed(0);
        lev.level(&mut active, &specs, &caps, &cfg(), &mut Vec::new());
        assert_eq!((lev.full_runs, lev.incremental_runs), (1, 1));
        lev.note_caps_changed(0);
        lev.note_caps_changed(1);
        lev.level(&mut active, &specs, &caps, &cfg(), &mut Vec::new());
        assert_eq!((lev.full_runs, lev.incremental_runs), (2, 1));
    }

    #[test]
    fn empty_dirty_set_is_a_free_re_level() {
        let specs = vec![spec(&[0])];
        let caps = [100.0];
        let (mut lev, mut active) = leveled(&specs, 1);
        // Nothing changed since: the re-level touches no flow.
        active[0].rate = -1.0;
        lev.level(&mut active, &specs, &caps, &cfg(), &mut Vec::new());
        assert_eq!(active[0].rate, -1.0);
        assert_eq!(lev.incremental_runs, 1);
        assert_eq!(lev.full_runs, 1);
    }

    /// Drive an Incremental and a Full leveler over the same `active`
    /// flows through the same script and assert their rates and bindings
    /// agree to the bit after every re-level. Each step is
    /// `(joins, leaves)`: the joins are noted first, then the leaves, as
    /// the engine does when a fault stalls a flow in the instant it
    /// started.
    fn assert_matches_full(
        specs: &[TransferSpec],
        num_resources: usize,
        active: &[u32],
        steps: &[(&[u32], &[u32])],
    ) -> Leveler {
        let caps = vec![100.0; num_resources];
        let mut inc = Leveler::new(num_resources, specs.len(), SolverMode::Incremental);
        let mut full = Leveler::new(num_resources, specs.len(), SolverMode::Full);
        let flows = || active.iter().map(|&t| flow(t)).collect::<Vec<_>>();
        let (mut inc_active, mut full_active) = (flows(), flows());
        let mut rates = Vec::new();
        for (joins, leaves) in steps {
            for lev in [&mut inc, &mut full] {
                for &t in *joins {
                    lev.note_join(t, &specs[t as usize].route);
                }
                for &t in *leaves {
                    lev.note_leave(t, &specs[t as usize].route);
                }
            }
            inc.level(&mut inc_active, specs, &caps, &cfg(), &mut rates);
            full.level(&mut full_active, specs, &caps, &cfg(), &mut rates);
            for (a, b) in inc_active.iter().zip(&full_active) {
                assert_eq!(a.rate.to_bits(), b.rate.to_bits(), "rate of flow {}", a.tid);
                assert_eq!(inc.binding_of(a.tid), full.binding_of(b.tid));
            }
        }
        inc
    }

    #[test]
    fn bounded_closure_stops_past_the_threshold() {
        // A chain 0-1-2-3-4 over links 0..=3, plus flow 5 on link 0,
        // which joins and is stalled by a fault in the same instant. Its
        // leave drops its dirty mark, so the second re-level's closure
        // starts at zero dirty flows from link 0 and passes the
        // threshold (0.5 × 5) at its third flow, part-way along the
        // chain: a full solve, exactly like SolverMode::Full's.
        let specs = vec![
            spec(&[0]),
            spec(&[0, 1]),
            spec(&[1, 2]),
            spec(&[2, 3]),
            spec(&[3]),
            spec(&[0]),
        ];
        let all: &[u32] = &[0, 1, 2, 3, 4];
        let lev = assert_matches_full(&specs, 4, all, &[(all, &[]), (&[5], &[5])]);
        assert_eq!((lev.full_runs, lev.incremental_runs), (2, 0));
    }

    #[test]
    fn join_then_stall_leaves_no_dirty_mark() {
        // Flows 0,1 share link 0; flows 2,3 sit on links 1 and 2. Flow 4
        // (link 0) joins and stalls in one instant: the closure is flows
        // 0 and 1, exactly the threshold 0.5 × 4 = 2, so the re-level
        // stays incremental. Counting flow 4's mark as well would have
        // forced a full solve.
        let specs = vec![
            spec(&[0]),
            spec(&[0]),
            spec(&[1]),
            spec(&[1, 2]),
            spec(&[0]),
        ];
        let all: &[u32] = &[0, 1, 2, 3];
        let lev = assert_matches_full(&specs, 3, all, &[(all, &[]), (&[4], &[4])]);
        assert_eq!((lev.full_runs, lev.incremental_runs), (1, 1));
    }
}
