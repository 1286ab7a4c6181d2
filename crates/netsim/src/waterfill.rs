//! Max-min fair bandwidth allocation (progressive filling / water-filling).
//!
//! Given a set of flows, each with a route over capacitated resources and a
//! per-flow rate cap, compute the max-min fair rate vector: rates are raised
//! uniformly until a resource saturates, flows through saturated resources
//! are frozen, and the process repeats. Per-flow caps are handled uniformly
//! by giving each flow a private virtual resource whose capacity is the cap.
//!
//! This is the classical fluid model of network sharing; it is how the
//! BG/Q torus behaves at the message level when several messages contend
//! for a link (the Messaging Unit arbitrates packet slots fairly).
//!
//! # The kernel
//!
//! Each filling step picks the live resource with the least key
//! `(share, version, resource)`, where `share = max(remaining, 0) / count`
//! over its unfixed flows and `version` counts the updates it has seen
//! this call. Real resources are ordered by a min-heap with **lazy keys**:
//! each resource has at most one live heap entry, and that entry's key is
//! a lower bound on the resource's current key. The bound holds because
//! freezing flows at the current minimum share `s` can only raise another
//! resource's share — `(rem − s)/(c − 1) ≥ rem/c` whenever `s ≤ rem/c` —
//! and an update always bumps the version. So a freeze pushes nothing,
//! except in the rare case where float rounding makes the new share fall
//! below the recorded heap key (`heap_share`); then the new key is pushed
//! and the old entry is left to die. An entry that pops with an outdated
//! version is pushed back under the resource's current key. An entry
//! that pops with the current version is therefore the least key of all
//! live resources — exactly the pop an eager heap (one fresh entry per
//! update) would make, ties included, with the same float operations in
//! the same order.
//!
//! A private cap resource is never updated while live (its only flow
//! freezing kills it), so its key stays `(cap, 0, num_resources + flow)`.
//! The caps live outside the heap in one list sorted by that key; each
//! step merges the list's head with the heap's top under the same order.
//! When the head cap wins, every unfixed flow whose cap equals it freezes
//! in that one step — a *cap run* — just as a bottleneck pop freezes all
//! of its flows at once.
//!
//! # Order-free
//!
//! Every flow a step freezes subtracts the same rate from each resource
//! it crosses, so a step has the same effect in any member order, and a
//! resource's version is the number of its flows frozen so far. The keys
//! therefore depend only on which flows are frozen, and the step
//! sequence, the rates and the bindings are functions of the demand
//! *set*: permuting the demands permutes the output, bit for bit. Equal
//! caps frozen one at a time would break this, because rounding can drop
//! a resource's share below the shared cap between two of them, and
//! which of the two froze first would decide the next pop.
//!
//! # Record and warm start
//!
//! [`Waterfill::compute_recorded`] records a compute's steps: each
//! step's key and the flows it froze, in freeze order. Given a
//! [`WarmStart`], it resumes from such a record when the new demand set
//! is the recorded one minus some departed flows D, under the same
//! capacities and penalty. Before the first step that froze a flow of
//! D, no resource on D's routes (a *guard*) has popped, and removing D
//! changes only the guards' keys — in exact arithmetic it raises them.
//! So those steps are replayed without the heap: subtract each frozen
//! flow's rate along its route and bump versions, in the recorded
//! order. Every step's key is first checked against the least live
//! guard key, which is recomputed only when a replayed freeze touches a
//! guard; a guard below a step's key (float rounding) resets the call
//! to a cold solve. The live resources are then heapified under their
//! current keys and the lazy loop finishes the solve, so a warm start
//! returns the cold bits.
//!
//! Resource membership is a CSR table (flat offsets plus a member array)
//! built in demand order, and every buffer is scratch kept across calls.

use crate::graph::ResourceId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[cfg(test)]
mod reference;

/// Per-flow binding code reported by [`Waterfill::bindings`] when the
/// flow's own rate cap (its private virtual resource) fixed its rate.
pub const CAP_BINDING: u32 = u32::MAX;

/// [`WarmStart::index`] entry of a recorded flow that departed.
pub(crate) const GONE: u32 = u32::MAX;

/// One flow's demand: its route and rate cap.
#[derive(Debug, Clone, Copy)]
pub struct FlowDemand<'a> {
    pub route: &'a [ResourceId],
    pub cap: f64,
}

/// Per-resource filling state.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    remaining: f64,
    /// Share of the resource's live heap entry (a lower bound on its
    /// current share key).
    heap_share: f64,
    /// Unfixed flows crossing the resource, with route multiplicity.
    count: u32,
    /// Updates seen this call; breaks share ties like the eager heap.
    version: u32,
    /// Version of the live heap entry.
    heap_version: u32,
    /// The resource's member range in `Waterfill::members`.
    start: u32,
    end: u32,
    /// A departed flow crossed the resource (warm-start replay only).
    guard: bool,
}

impl Slot {
    /// Reset to the start of a call: every member unfixed, and the
    /// capacity derated by the arbitration penalty for that many sharers
    /// (private per-flow caps are not links and are never derated).
    fn restart(&mut self, capacity: f64, penalty: f64, floor: f64) {
        self.count = self.end - self.start;
        self.version = 0;
        self.remaining = capacity;
        if penalty > 0.0 && floor < 1.0 && self.count > 1 {
            let eff = (1.0 / (1.0 + penalty * (self.count - 1) as f64)).max(floor);
            self.remaining *= eff;
        }
    }

    fn share(&self) -> f64 {
        self.remaining.max(0.0) / self.count as f64
    }

    /// The current key of live resource `ri`.
    fn key(&self, ri: u32) -> HeapEntry {
        HeapEntry {
            share: Share(self.share()),
            version: self.version,
            resource: ri,
        }
    }
}

/// One filling step of a recorded compute.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// The step's key: `(share, version, resource)` of a bottleneck pop,
    /// or `(cap, 0, CAP_BINDING)` for a cap run. Its share is the rate
    /// the step's flows froze at and its resource their binding.
    key: HeapEntry,
    /// End of the step's flows in [`FillRecord::frozen`].
    end: u32,
}

/// The step sequence of one compute (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct FillRecord {
    steps: Vec<Step>,
    /// Demand indices in freeze order: step `k` froze
    /// `frozen[steps[k - 1].end..steps[k].end]`. Every flow freezes
    /// once, so its position here names its freeze step.
    frozen: Vec<u32>,
}

impl FillRecord {
    fn clear(&mut self) {
        self.steps.clear();
        self.frozen.clear();
    }
}

/// What [`Waterfill::compute_recorded`] resumes from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WarmStart<'a> {
    /// A compute over the new demands plus the departed ones, under the
    /// same capacities and contention penalty.
    pub record: &'a FillRecord,
    /// For each recorded flow (by its recorded demand index), its index
    /// in the new demand slice, or [`GONE`] if it departed.
    pub index: &'a [u32],
    /// The resources the departed flows cross.
    pub guards: &'a [ResourceId],
}

/// Reusable scratch state for water-filling computations.
///
/// Allocate once per simulation (sized by the number of real resources) and
/// call [`Waterfill::compute`] at every rate recomputation. Every buffer is
/// kept across calls and only grows, so once it has seen its largest
/// demand set a computation does not allocate.
#[derive(Debug)]
pub struct Waterfill {
    num_resources: usize,
    slots: Vec<Slot>,
    /// CSR membership: the flows crossing resource `r` (in demand order,
    /// with route multiplicity) are `members[slots[r].start..slots[r].end]`.
    members: Vec<u32>,
    touched: Vec<u32>,
    heap: BinaryHeap<Reverse<HeapEntry>>,
    /// Private cap resources as `(cap, flow)`, sorted ascending.
    caps: Vec<(Share, u32)>,
    fixed: Vec<bool>,
    binding: Vec<u32>,
    /// Steps of the most recent compute, when it was recorded.
    record: FillRecord,
    recording: bool,
    /// Live guard resources of a warm-start replay.
    guards: Vec<u32>,
}

impl Waterfill {
    /// Create scratch state for a network with `num_resources` real
    /// resources.
    pub fn new(num_resources: usize) -> Waterfill {
        Waterfill {
            num_resources,
            slots: vec![Slot::default(); num_resources],
            members: Vec::new(),
            touched: Vec::new(),
            heap: BinaryHeap::new(),
            caps: Vec::new(),
            fixed: Vec::new(),
            binding: Vec::new(),
            record: FillRecord::default(),
            recording: false,
            guards: Vec::new(),
        }
    }

    /// Per-flow binding resource of the most recent compute: for each
    /// flow (same indexing as the demand slice), the real resource whose
    /// residual fixed its rate, or [`CAP_BINDING`] when its own rate cap
    /// bound first. The popped bottleneck in progressive filling *is*
    /// the max-min binding resource, so this falls out of the solve for
    /// free.
    pub fn bindings(&self) -> &[u32] {
        &self.binding
    }

    /// The step record of the most recent
    /// [`compute_recorded`](Self::compute_recorded) (empty after any other
    /// compute). Swap it out to keep it past the next call.
    pub(crate) fn record_mut(&mut self) -> &mut FillRecord {
        &mut self.record
    }

    /// Compute max-min fair rates with ideal sharing (no contention
    /// penalty).
    pub fn compute(
        &mut self,
        flows: &[FlowDemand<'_>],
        capacities: &[f64],
        rates: &mut Vec<f64>,
    ) {
        self.compute_with_penalty(flows, capacities, 0.0, 1.0, rates)
    }

    /// Compute max-min fair rates.
    ///
    /// `capacities[r]` is the capacity of real resource `r`; every resource
    /// on a route must have positive capacity. `rates` is cleared and filled
    /// with one rate per flow, in order.
    ///
    /// `contention_penalty` (γ) derates a resource shared by `n` flows to
    /// `capacity · max(floor, 1 / (1 + γ·(n-1)))`, modelling per-flow
    /// arbitration loss that saturates at `contention_floor`; γ = 0 (or
    /// floor = 1) is ideal fluid sharing.
    ///
    /// # Panics
    /// Panics if a route references a resource with non-positive capacity
    /// or out of range of `capacities`, if γ is negative, or if the floor
    /// is outside `(0, 1]`.
    pub fn compute_with_penalty(
        &mut self,
        flows: &[FlowDemand<'_>],
        capacities: &[f64],
        contention_penalty: f64,
        contention_floor: f64,
        rates: &mut Vec<f64>,
    ) {
        self.recording = false;
        self.fill(
            flows,
            capacities,
            contention_penalty,
            contention_floor,
            rates,
            None,
        );
    }

    /// [`compute_with_penalty`](Self::compute_with_penalty) that records
    /// its steps, resumed from `warm`'s record where it is valid (see the
    /// module docs). The output is the cold solve's, bit for bit,
    /// provided the capacities and penalty are those of the recorded
    /// compute on every resource but the guards. Returns whether any
    /// recorded step was replayed: false without `warm`, when the record
    /// does not fit the demands, when the first step already froze a
    /// departed flow, or when a guard aborted the replay.
    pub(crate) fn compute_recorded(
        &mut self,
        flows: &[FlowDemand<'_>],
        capacities: &[f64],
        contention_penalty: f64,
        contention_floor: f64,
        rates: &mut Vec<f64>,
        warm: Option<WarmStart<'_>>,
    ) -> bool {
        self.recording = true;
        self.fill(
            flows,
            capacities,
            contention_penalty,
            contention_floor,
            rates,
            warm,
        )
    }

    fn fill(
        &mut self,
        flows: &[FlowDemand<'_>],
        capacities: &[f64],
        contention_penalty: f64,
        contention_floor: f64,
        rates: &mut Vec<f64>,
        warm: Option<WarmStart<'_>>,
    ) -> bool {
        assert!(
            capacities.len() >= self.num_resources,
            "capacity table smaller than resource space"
        );
        assert!(
            contention_penalty >= 0.0,
            "contention penalty must be non-negative"
        );
        assert!(
            contention_floor > 0.0 && contention_floor <= 1.0,
            "contention floor must be in (0, 1]"
        );
        rates.clear();
        rates.resize(flows.len(), 0.0);
        self.binding.clear();
        self.binding.resize(flows.len(), CAP_BINDING);
        self.record.clear();
        if flows.is_empty() {
            return false;
        }

        let nr = self.num_resources;
        debug_assert!(self.touched.is_empty());

        // Count the flows on each resource in use, and collect the
        // private cap of every flow.
        self.caps.clear();
        for (fi, f) in flows.iter().enumerate() {
            assert!(f.cap > 0.0, "flow {fi} has non-positive cap");
            for r in f.route {
                let ri = r.0 as usize;
                assert!(ri < nr, "route references unknown resource {ri}");
                let slot = &mut self.slots[ri];
                if slot.count == 0 {
                    assert!(
                        capacities[ri] > 0.0,
                        "resource {ri} has non-positive capacity"
                    );
                    self.touched.push(ri as u32);
                }
                slot.count += 1;
            }
            self.caps.push((Share(f.cap), fi as u32));
        }
        // `(cap, flow)` orders exactly like the eager heap's private-cap
        // key `(cap, 0, nr + flow)`. Caps usually tie in demand order,
        // which the sort detects as already sorted.
        self.caps.sort_unstable();

        // CSR membership in demand order.
        let mut offset = 0u32;
        for &ri in &self.touched {
            let slot = &mut self.slots[ri as usize];
            slot.start = offset;
            slot.end = offset;
            offset += slot.count;
        }
        self.members.clear();
        self.members.resize(offset as usize, 0);
        for (fi, f) in flows.iter().enumerate() {
            for r in f.route {
                let slot = &mut self.slots[r.0 as usize];
                self.members[slot.end as usize] = fi as u32;
                slot.end += 1;
            }
        }
        for &ri in &self.touched {
            let ri = ri as usize;
            self.slots[ri].restart(capacities[ri], contention_penalty, contention_floor);
        }

        self.fixed.clear();
        self.fixed.resize(flows.len(), false);
        let mut unfixed = flows.len();
        let mut resumed = false;
        if let Some(warm) = warm {
            match self.replay(flows, warm, rates) {
                Some(n) => {
                    unfixed -= n;
                    resumed = n > 0;
                }
                None => {
                    // Back to the call's start (rates and bindings are
                    // all rewritten by the cold solve).
                    for &ri in &self.touched {
                        let ri = ri as usize;
                        self.slots[ri].restart(
                            capacities[ri],
                            contention_penalty,
                            contention_floor,
                        );
                    }
                    self.fixed.fill(false);
                    self.record.clear();
                }
            }
        }

        // One lazily keyed heap entry per live real resource, heapified
        // in one pass into the recycled buffer.
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.clear();
        for &ri in &self.touched {
            let slot = &mut self.slots[ri as usize];
            if slot.count > 0 {
                let key = slot.key(ri);
                slot.heap_share = key.share.0;
                slot.heap_version = key.version;
                entries.push(Reverse(key));
            }
        }
        self.heap = BinaryHeap::from(entries);

        let mut next_cap = 0;
        while unfixed > 0 {
            // Every unfixed flow's cap is at or after `next_cap`.
            while self.fixed[self.caps[next_cap].1 as usize] {
                next_cap += 1;
            }
            let (cap, cap_flow) = self.caps[next_cap];
            let cap_key = HeapEntry {
                share: cap,
                version: 0,
                resource: (nr + cap_flow as usize) as u32,
            };
            let real_first = self
                .heap
                .peek()
                .is_some_and(|Reverse(top)| *top < cap_key);
            if !real_first {
                // The cap key is below every real resource's heap key,
                // hence below every real resource's current key: freeze
                // the whole run of unfixed flows capped at `cap`.
                while let Some(&(c, fi)) = self.caps.get(next_cap) {
                    if c != cap {
                        break;
                    }
                    next_cap += 1;
                    if !self.fixed[fi as usize] {
                        self.freeze(flows, fi as usize, cap.0, CAP_BINDING, rates);
                        unfixed -= 1;
                    }
                }
                self.end_step(HeapEntry {
                    share: cap,
                    version: 0,
                    resource: CAP_BINDING,
                });
                continue;
            }

            let Reverse(entry) = self.heap.pop().expect("peeked entry");
            let ri = entry.resource as usize;
            let slot = &mut self.slots[ri];
            if slot.count == 0 {
                continue; // drained
            }
            if entry.version != slot.version {
                // Outdated: if this is the resource's live entry, push it
                // back under the current key; otherwise a lower key was
                // pushed since and this entry is dead.
                if entry.version == slot.heap_version {
                    let key = slot.key(entry.resource);
                    slot.heap_share = key.share.0;
                    slot.heap_version = key.version;
                    self.heap.push(Reverse(key));
                }
                continue;
            }
            let s = slot.share();

            // Freeze every unfixed flow crossing this bottleneck at s.
            let (start, end) = (slot.start as usize, slot.end as usize);
            debug_assert!(start < end);
            for k in start..end {
                let fi = self.members[k] as usize;
                if !self.fixed[fi] {
                    self.freeze(flows, fi, s, ri as u32, rates);
                    unfixed -= 1;
                }
            }
            debug_assert_eq!(self.slots[ri].count, 0, "bottleneck must drain completely");
            self.end_step(entry);
        }

        // Reset scratch for the next call (every count is already back to
        // zero). Versions are zeroed too, so the allocation (including
        // share-tie resolution, which compares versions) is a pure
        // function of the demand set — a sub-solve over one contention
        // component returns bit-identical rates to the same component
        // inside a full solve, no matter what calls came before.
        for &ri in &self.touched {
            let slot = &mut self.slots[ri as usize];
            debug_assert_eq!(slot.count, 0);
            slot.version = 0;
        }
        self.touched.clear();
        self.heap.clear();
        resumed
    }

    /// Replay `warm`'s steps up to the first that froze a departed flow,
    /// without the heap. Returns the number of flows frozen, or `None`
    /// when the record does not fit the demands or a guard's key fell
    /// below a step's key; the caller then restarts the call cold.
    fn replay(
        &mut self,
        flows: &[FlowDemand<'_>],
        warm: WarmStart<'_>,
        rates: &mut [f64],
    ) -> Option<usize> {
        let WarmStart {
            record,
            index,
            guards,
        } = warm;
        if index.len() != record.frozen.len()
            || index.iter().filter(|&&i| i != GONE).count() != flows.len()
        {
            return None;
        }
        for r in guards {
            if let Some(slot) = self.slots.get_mut(r.0 as usize) {
                if slot.count > 0 && !slot.guard {
                    slot.guard = true;
                    self.guards.push(r.0);
                }
            }
        }
        let mut guard_min = self.guard_min();
        let mut frozen = Some(0);
        let mut begin = 0;
        'steps: for step in &record.steps {
            let members = &record.frozen[begin..step.end as usize];
            if members.iter().any(|&j| index[j as usize] == GONE) {
                break; // resume here, with the heap
            }
            if guard_min.is_some_and(|g| g < step.key) {
                frozen = None;
                break;
            }
            let mut touched_guard = false;
            for &j in members {
                let fi = index[j as usize] as usize;
                if self.fixed.get(fi) != Some(&false) {
                    frozen = None;
                    break 'steps;
                }
                touched_guard |= self.settle(flows, fi, step.key.share.0, step.key.resource, rates);
            }
            self.end_step(step.key);
            frozen = frozen.map(|n| n + members.len());
            begin = step.end as usize;
            if touched_guard {
                guard_min = self.guard_min();
            }
        }
        for &g in &self.guards {
            self.slots[g as usize].guard = false;
        }
        self.guards.clear();
        frozen
    }

    /// The least current key over the live guards.
    fn guard_min(&self) -> Option<HeapEntry> {
        self.guards
            .iter()
            .map(|&g| (g, &self.slots[g as usize]))
            .filter(|(_, slot)| slot.count > 0)
            .map(|(g, slot)| slot.key(g))
            .min()
    }

    /// Close the current step under `key` in the record.
    fn end_step(&mut self, key: HeapEntry) {
        if self.recording {
            let end = self.record.frozen.len() as u32;
            self.record.steps.push(Step { key, end });
        }
    }

    /// Fix flow `fi` at rate `s`, bound by `binding`.
    fn fix(&mut self, fi: usize, s: f64, binding: u32, rates: &mut [f64]) {
        self.fixed[fi] = true;
        rates[fi] = s;
        self.binding[fi] = binding;
        if self.recording {
            self.record.frozen.push(fi as u32);
        }
    }

    /// Fix flow `fi` at rate `s` and take it off every resource on its
    /// route, pushing a resource's new key only when rounding dropped it
    /// below the key already in the heap.
    fn freeze(
        &mut self,
        flows: &[FlowDemand<'_>],
        fi: usize,
        s: f64,
        binding: u32,
        rates: &mut [f64],
    ) {
        self.fix(fi, s, binding, rates);
        for r in flows[fi].route {
            let slot = &mut self.slots[r.0 as usize];
            slot.remaining -= s;
            slot.count -= 1;
            slot.version = slot.version.wrapping_add(1);
            if slot.count > 0 {
                let key = slot.key(r.0);
                if key.share < Share(slot.heap_share) {
                    slot.heap_share = key.share.0;
                    slot.heap_version = key.version;
                    self.heap.push(Reverse(key));
                }
            }
        }
    }

    /// [`freeze`](Self::freeze) for a replayed step: no heap exists yet.
    /// Returns whether the route crosses a guard.
    fn settle(
        &mut self,
        flows: &[FlowDemand<'_>],
        fi: usize,
        s: f64,
        binding: u32,
        rates: &mut [f64],
    ) -> bool {
        self.fix(fi, s, binding, rates);
        let mut guard = false;
        for r in flows[fi].route {
            let slot = &mut self.slots[r.0 as usize];
            slot.remaining -= s;
            slot.count -= 1;
            slot.version = slot.version.wrapping_add(1);
            guard |= slot.guard;
        }
        guard
    }
}

/// Total-ordered share value for the filling heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Share(f64);

impl Eq for Share {}

impl PartialOrd for Share {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Share {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HeapEntry {
    share: Share,
    version: u32,
    resource: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rid(v: &[u32]) -> Vec<ResourceId> {
        v.iter().map(|&x| ResourceId(x)).collect()
    }

    fn run(num_res: usize, caps: &[f64], flows: &[(Vec<ResourceId>, f64)]) -> Vec<f64> {
        let mut wf = Waterfill::new(num_res);
        let mut rates = Vec::new();
        wf.compute(&demands(flows), caps, &mut rates);
        rates
    }

    #[test]
    fn single_flow_gets_its_cap() {
        let rates = run(2, &[10.0, 10.0], &[(rid(&[0, 1]), 3.0)]);
        assert_eq!(rates, vec![3.0]);
    }

    #[test]
    fn single_flow_limited_by_link() {
        let rates = run(2, &[2.0, 10.0], &[(rid(&[0, 1]), 5.0)]);
        assert_eq!(rates, vec![2.0]);
    }

    #[test]
    fn equal_flows_share_equally() {
        let flows = vec![(rid(&[0]), 10.0), (rid(&[0]), 10.0), (rid(&[0]), 10.0)];
        let rates = run(1, &[6.0], &flows);
        for r in rates {
            assert!((r - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn capped_flow_releases_bandwidth_to_others() {
        // Two flows on a 10-unit link; one capped at 2 -> other gets 8.
        let flows = vec![(rid(&[0]), 2.0), (rid(&[0]), 100.0)];
        let rates = run(1, &[10.0], &flows);
        assert!((rates[0] - 2.0).abs() < 1e-9);
        assert!((rates[1] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn classic_three_link_max_min() {
        // Textbook example: long flow over links 0,1; short flows on each.
        // caps: link0 = 10, link1 = 4.
        // Fair: bottleneck link1 share 2 (long, short1), then short0 gets 8.
        let flows = vec![
            (rid(&[0, 1]), 100.0), // long
            (rid(&[0]), 100.0),    // short on link 0
            (rid(&[1]), 100.0),    // short on link 1
        ];
        let rates = run(2, &[10.0, 4.0], &flows);
        assert!((rates[0] - 2.0).abs() < 1e-9, "long flow {}", rates[0]);
        assert!((rates[1] - 8.0).abs() < 1e-9, "short0 {}", rates[1]);
        assert!((rates[2] - 2.0).abs() < 1e-9, "short1 {}", rates[2]);
    }

    #[test]
    fn empty_route_flow_gets_cap() {
        let rates = run(1, &[10.0], &[(rid(&[]), 7.0)]);
        assert_eq!(rates, vec![7.0]);
    }

    #[test]
    fn no_flows_is_fine() {
        let rates = run(1, &[10.0], &[]);
        assert!(rates.is_empty());
    }

    #[test]
    fn capacity_never_exceeded() {
        // Randomish asymmetric scenario, checked exhaustively.
        let flows = vec![
            (rid(&[0, 1, 2]), 5.0),
            (rid(&[1]), 9.0),
            (rid(&[2, 0]), 1.5),
            (rid(&[0]), 9.0),
            (rid(&[2]), 0.25),
        ];
        let caps = [4.0, 3.0, 2.0];
        let rates = run(3, &caps, &flows);
        let mut used = [0.0f64; 3];
        for ((route, cap), rate) in flows.iter().zip(&rates) {
            assert!(*rate <= cap * (1.0 + 1e-9), "rate exceeds cap");
            assert!(*rate > 0.0, "every flow must make progress");
            for r in route {
                used[r.0 as usize] += rate;
            }
        }
        for (u, c) in used.iter().zip(&caps) {
            assert!(u <= &(c * (1.0 + 1e-6)), "capacity exceeded: {u} > {c}");
        }
    }

    #[test]
    fn bindings_name_the_fixing_resource() {
        let mut wf = Waterfill::new(2);
        // Textbook max-min (see classic_three_link_max_min): the long
        // flow and short1 are fixed by link 1, short0 by link 0.
        let long = rid(&[0, 1]);
        let short0 = rid(&[0]);
        let short1 = rid(&[1]);
        let demands = [
            FlowDemand { route: &long, cap: 100.0 },
            FlowDemand { route: &short0, cap: 100.0 },
            FlowDemand { route: &short1, cap: 100.0 },
        ];
        let mut rates = Vec::new();
        wf.compute(&demands, &[10.0, 4.0], &mut rates);
        assert_eq!(wf.bindings(), &[1, 0, 1]);
    }

    #[test]
    fn bindings_report_cap_limited_flows() {
        let mut wf = Waterfill::new(1);
        let route = rid(&[0]);
        let demands = [
            FlowDemand { route: &route, cap: 2.0 },
            FlowDemand { route: &route, cap: 100.0 },
        ];
        let mut rates = Vec::new();
        wf.compute(&demands, &[10.0], &mut rates);
        // Flow 0's private cap (share 2) pops before the link (share 5):
        // flow 0 is cap-bound, flow 1 link-bound.
        assert_eq!(wf.bindings(), &[CAP_BINDING, 0]);
        // Empty routes have only the private cap resource.
        let empty = rid(&[]);
        let demands = [FlowDemand { route: &empty, cap: 7.0 }];
        wf.compute(&demands, &[10.0], &mut rates);
        assert_eq!(wf.bindings(), &[CAP_BINDING]);
    }

    #[test]
    fn scratch_state_resets_between_calls() {
        let mut wf = Waterfill::new(1);
        let route = rid(&[0]);
        let demands = [FlowDemand { route: &route, cap: 100.0 }];
        let mut rates = Vec::new();
        wf.compute(&demands, &[10.0], &mut rates);
        assert!((rates[0] - 10.0).abs() < 1e-9);
        // Second call must see a clean slate.
        wf.compute(&demands, &[10.0], &mut rates);
        assert!((rates[0] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn contention_penalty_derates_shared_links() {
        let mut wf = Waterfill::new(1);
        let route = rid(&[0]);
        let demands = [
            FlowDemand { route: &route, cap: 100.0 },
            FlowDemand { route: &route, cap: 100.0 },
        ];
        let mut rates = Vec::new();
        // Ideal sharing: 5 + 5.
        wf.compute_with_penalty(&demands, &[10.0], 0.0, 1.0, &mut rates);
        assert!((rates[0] - 5.0).abs() < 1e-9);
        // γ = 0.5, floor 0.5: effective capacity 10 / 1.5 -> 3.333 each.
        wf.compute_with_penalty(&demands, &[10.0], 0.5, 0.5, &mut rates);
        assert!((rates[0] - 10.0 / 1.5 / 2.0).abs() < 1e-9, "{}", rates[0]);
        assert!((rates[1] - rates[0]).abs() < 1e-12);
        // Same γ but floor 0.8: the floor binds -> 4.0 each.
        wf.compute_with_penalty(&demands, &[10.0], 0.5, 0.8, &mut rates);
        assert!((rates[0] - 4.0).abs() < 1e-9, "{}", rates[0]);
    }

    #[test]
    fn contention_penalty_leaves_lone_flows_alone() {
        let mut wf = Waterfill::new(2);
        let r0 = rid(&[0]);
        let r1 = rid(&[1]);
        let demands = [
            FlowDemand { route: &r0, cap: 100.0 },
            FlowDemand { route: &r1, cap: 100.0 },
        ];
        let mut rates = Vec::new();
        wf.compute_with_penalty(&demands, &[10.0, 10.0], 0.9, 0.5, &mut rates);
        assert_eq!(rates, vec![10.0, 10.0], "disjoint flows see no penalty");
    }

    #[test]
    #[should_panic(expected = "penalty must be non-negative")]
    fn negative_penalty_panics() {
        let mut wf = Waterfill::new(1);
        let route = rid(&[0]);
        let demands = [FlowDemand { route: &route, cap: 1.0 }];
        let mut rates = Vec::new();
        wf.compute_with_penalty(&demands, &[10.0], -0.1, 1.0, &mut rates);
    }

    #[test]
    #[should_panic(expected = "unknown resource")]
    fn unknown_resource_panics() {
        run(1, &[10.0], &[(rid(&[3]), 1.0)]);
    }

    #[test]
    #[should_panic(expected = "non-positive capacity")]
    fn zero_capacity_panics() {
        run(1, &[0.0], &[(rid(&[0]), 1.0)]);
    }

    /// Deterministic splitmix64 stream for the oracle comparisons.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Solve one demand set with both kernels (reusing their scratch),
    /// assert `to_bits`-equal rates and equal bindings, and return the
    /// rates.
    fn assert_matches_reference(
        wf: &mut Waterfill,
        eager: &mut reference::EagerWaterfill,
        caps: &[f64],
        flows: &[(Vec<ResourceId>, f64)],
        penalty: (f64, f64),
    ) -> Vec<f64> {
        let demands = demands(flows);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        wf.compute_with_penalty(&demands, caps, penalty.0, penalty.1, &mut got);
        eager.compute_with_penalty(&demands, caps, penalty.0, penalty.1, &mut want);
        assert_eq!(bits(&got), bits(&want), "rates differ on {flows:?} / {caps:?}");
        assert_eq!(wf.bindings(), eager.bindings(), "bindings differ on {flows:?}");
        got
    }

    /// Resource-space size of the random cases.
    const NR: usize = 8;

    /// One random case for the kernel comparisons: capacities, demands
    /// (some routes repeat a resource) and a contention penalty.
    #[allow(clippy::type_complexity)]
    fn random_case(
        rng: &mut Rng,
        case: usize,
    ) -> (Vec<f64>, Vec<(Vec<ResourceId>, f64)>, (f64, f64)) {
        // A small palette makes link shares and caps tie often.
        const PALETTE: [f64; 6] = [1.0, 2.0, 3.0, 10.0, 0.7, 6.0];
        const PENALTIES: [(f64, f64); 4] = [(0.0, 1.0), (0.5, 0.5), (0.25, 0.8), (1.0, 0.1)];
        let nr = 1 + rng.below(NR);
        let caps: Vec<f64> = (0..NR)
            .map(|_| match rng.below(2) {
                0 => PALETTE[rng.below(PALETTE.len())],
                _ => 0.05 + 20.0 * rng.unit(),
            })
            .collect();
        let cap_mode = rng.below(3);
        let equal_cap = PALETTE[rng.below(PALETTE.len())];
        let flows: Vec<(Vec<ResourceId>, f64)> = (0..1 + rng.below(40))
            .map(|_| {
                let mut route: Vec<ResourceId> = (0..rng.below(5))
                    .map(|_| ResourceId(rng.below(nr) as u32))
                    .collect();
                if !route.is_empty() && rng.below(4) == 0 {
                    route.push(route[0]);
                }
                let cap = match cap_mode {
                    0 => equal_cap,
                    1 => PALETTE[rng.below(PALETTE.len())] / 4.0,
                    _ => 0.01 + 10.0 * rng.unit(),
                };
                (route, cap)
            })
            .collect();
        (caps, flows, PENALTIES[case % PENALTIES.len()])
    }

    fn demands(flows: &[(Vec<ResourceId>, f64)]) -> Vec<FlowDemand<'_>> {
        flows
            .iter()
            .map(|(r, c)| FlowDemand { route: r, cap: *c })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A random permutation of `0..n`.
    fn shuffled(rng: &mut Rng, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, rng.below(i + 1));
        }
        p
    }

    #[test]
    fn lazy_kernel_matches_eager_reference_bit_for_bit() {
        let mut rng = Rng(2014);
        let mut wf = Waterfill::new(NR);
        let mut eager = reference::EagerWaterfill::new(NR);
        let (mut repeated, mut mixed_bindings) = (0, 0);
        for case in 0..4000 {
            let (caps, flows, penalty) = random_case(&mut rng, case);
            if flows
                .iter()
                .any(|(r, _)| (1..r.len()).any(|i| r[i..].contains(&r[i - 1])))
            {
                repeated += 1;
            }
            assert_matches_reference(&mut wf, &mut eager, &caps, &flows, penalty);
            let b = wf.bindings();
            if b.contains(&CAP_BINDING) && b.iter().any(|&x| x != CAP_BINDING) {
                mixed_bindings += 1;
            }
        }
        assert!(repeated > 100, "too few routes repeat a resource: {repeated}");
        assert!(mixed_bindings > 100, "too few cap/link mixes: {mixed_bindings}");
    }

    #[test]
    fn demands_in_any_order_get_the_same_bits() {
        // The property the warm start rests on: rates and bindings are a
        // function of the demand set, whatever order it comes in.
        let mut rng = Rng(7);
        let mut wf = Waterfill::new(NR);
        let (mut rates, mut permuted) = (Vec::new(), Vec::new());
        for case in 0..3000 {
            let (caps, flows, (gamma, floor)) = random_case(&mut rng, case);
            let ds = demands(&flows);
            wf.compute_with_penalty(&ds, &caps, gamma, floor, &mut rates);
            let bindings = wf.bindings().to_vec();
            for _ in 0..3 {
                let perm = shuffled(&mut rng, ds.len());
                let pds: Vec<FlowDemand> = perm.iter().map(|&i| ds[i]).collect();
                wf.compute_with_penalty(&pds, &caps, gamma, floor, &mut permuted);
                for (k, &i) in perm.iter().enumerate() {
                    assert_eq!(
                        permuted[k].to_bits(),
                        rates[i].to_bits(),
                        "rate of flow {i} in {flows:?}"
                    );
                    assert_eq!(
                        wf.bindings()[k],
                        bindings[i],
                        "binding of flow {i} in {flows:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn equal_caps_freeze_as_one_step() {
        // Freezing one of c flows at their share q can drop the share
        // one rounding below q (see the test below). Find a capacity
        // whose residual does that after a tiny cap flow Z froze first.
        const Z: f64 = 1.0 / 1024.0;
        let (cap, c) = (1..=1000)
            .flat_map(|k| (3..=64u32).map(move |c| (1.0 + k as f64 / 997.0, c)))
            .find(|&(cap, c)| {
                let rem = cap - Z;
                let q = rem / c as f64;
                (rem - q) / ((c - 1) as f64) < q
            })
            .expect("some residual rounds the share down");
        let q = (cap - Z) / c as f64;

        // Resource 0 carries Z and c more flows; A and B are capped at
        // exactly q. Z freezes first, so the link's key is (q, 1, 0) and
        // the caps (q, 0, ·) win the tie. Freezing A alone would drop
        // the link below q and let it pop before B; as one cap run, A
        // and B both freeze at q.
        let z = (rid(&[0]), Z);
        let a = (rid(&[0]), q);
        let b = (rid(&[0]), q);
        let mut flows = vec![z, a, b];
        flows.extend((2..c).map(|_| (rid(&[0]), 1e9)));
        let mut wf = Waterfill::new(1);
        let mut eager = reference::EagerWaterfill::new(1);
        let rates = assert_matches_reference(&mut wf, &mut eager, &[cap], &flows, (0.0, 1.0));
        assert_eq!(bits(&rates[1..3]), bits(&[q, q]));
        assert_eq!(
            wf.bindings()[..4],
            [CAP_BINDING, CAP_BINDING, CAP_BINDING, 0]
        );
    }

    /// Drop the flows `gone` marks from `flows`, shuffle the rest, and
    /// solve them warm from `record` (the full set's) and cold: the bits
    /// must agree. Returns whether the warm solve replayed any step.
    fn assert_warm_matches_cold(
        rng: &mut Rng,
        record: &FillRecord,
        caps: &[f64],
        flows: &[(Vec<ResourceId>, f64)],
        gone: &[bool],
        (gamma, floor): (f64, f64),
    ) -> bool {
        let kept: Vec<usize> = (0..flows.len()).filter(|&i| !gone[i]).collect();
        let order = shuffled(rng, kept.len());
        let mut index = vec![GONE; flows.len()];
        for (k, &o) in order.iter().enumerate() {
            index[kept[o]] = k as u32;
        }
        let left: Vec<(Vec<ResourceId>, f64)> =
            order.iter().map(|&o| flows[kept[o]].clone()).collect();
        let guards: Vec<ResourceId> = (0..flows.len())
            .filter(|&i| gone[i])
            .flat_map(|i| flows[i].0.iter().copied())
            .collect();
        let (mut cold, mut warm) = (Waterfill::new(caps.len()), Waterfill::new(caps.len()));
        let (mut want, mut got) = (Vec::new(), Vec::new());
        let ds = demands(&left);
        cold.compute_recorded(&ds, caps, gamma, floor, &mut want, None);
        let start = WarmStart {
            record,
            index: &index,
            guards: &guards,
        };
        let resumed = warm.compute_recorded(&ds, caps, gamma, floor, &mut got, Some(start));
        assert_eq!(
            bits(&got),
            bits(&want),
            "warm rates differ on {flows:?} minus {gone:?}"
        );
        assert_eq!(
            warm.bindings(),
            cold.bindings(),
            "warm bindings differ on {flows:?}"
        );
        let keys = |wf: &Waterfill| wf.record.steps.iter().map(|s| s.key).collect::<Vec<_>>();
        assert_eq!(keys(&warm), keys(&cold), "warm step sequence differs");
        resumed
    }

    /// Solve `flows` cold and take its record.
    fn record_of(
        caps: &[f64],
        flows: &[(Vec<ResourceId>, f64)],
        (gamma, floor): (f64, f64),
    ) -> FillRecord {
        let mut wf = Waterfill::new(caps.len());
        let ds = demands(flows);
        wf.compute_recorded(&ds, caps, gamma, floor, &mut Vec::new(), None);
        std::mem::take(wf.record_mut())
    }

    #[test]
    fn warm_start_replays_to_the_cold_bits() {
        let mut rng = Rng(5);
        let (mut resumed, mut cases) = (0, 0);
        for case in 0..3000 {
            let (caps, flows, penalty) = random_case(&mut rng, case);
            if flows.len() < 2 {
                continue;
            }
            let record = record_of(&caps, &flows, penalty);
            // Drop one to three random flows.
            let mut gone = vec![false; flows.len()];
            for _ in 0..1 + rng.below(3) {
                gone[rng.below(flows.len())] = true;
            }
            cases += 1;
            if assert_warm_matches_cold(&mut rng, &record, &caps, &flows, &gone, penalty) {
                resumed += 1;
            }
        }
        assert!(
            resumed * 3 > cases,
            "too few warm starts replayed a step: {resumed} of {cases}"
        );
    }

    #[test]
    fn warm_start_falls_back_cold_on_a_bad_record_or_a_guard() {
        // Y (cap 1) crosses links 0 and 1; X and Z ride link 0 alone.
        // Link 0 (10 / 3) is above Y's cap, so the record is: Y's cap
        // run at 1, then link 0 at 4.5 freezing X and Z.
        let flows = vec![(rid(&[0]), 1e9), (rid(&[0, 1]), 1.0), (rid(&[0]), 1e9)];
        let record = record_of(&[10.0, 100.0], &flows, (0.0, 1.0));
        assert_eq!(record.steps.len(), 2);
        let left = vec![flows[1].clone(), flows[2].clone()];
        let ds = demands(&left);
        let x_route = rid(&[0]);
        let solve = |caps: &[f64], index: &[u32]| {
            let (mut cold, mut warm) = (Waterfill::new(2), Waterfill::new(2));
            let (mut want, mut got) = (Vec::new(), Vec::new());
            cold.compute(&ds, caps, &mut want);
            let start = WarmStart {
                record: &record,
                index,
                guards: &x_route,
            };
            let resumed = warm.compute_recorded(&ds, caps, 0.0, 1.0, &mut got, Some(start));
            assert_eq!(bits(&got), bits(&want));
            assert_eq!(warm.bindings(), cold.bindings());
            (resumed, got)
        };

        // X departs: Y's step replays, and link 0 then gives Z 9.
        assert_eq!(solve(&[10.0, 100.0], &[GONE, 0, 1]), (true, vec![1.0, 9.0]));
        // Records that do not fit the demands solve cold: one of another
        // flow count, or one that maps more flows than there are demands.
        assert!(!solve(&[10.0, 100.0], &[GONE, 0]).0);
        assert!(!solve(&[10.0, 100.0], &[0, 0, 1]).0);
        // Link 0 cut to 0.5: the guard's key (0.25, 0, 0) falls below
        // Y's cap run, which must not replay. Cold, Y and Z share 0.5.
        assert_eq!(
            solve(&[0.5, 100.0], &[GONE, 0, 1]),
            (false, vec![0.25, 0.25])
        );
    }

    #[test]
    fn rounding_drop_below_the_heap_key_is_pushed() {
        // Freezing one of c flows at q = fl(rem/c) can leave the
        // resource a share fl(fl(rem - q)/(c - 1)) one rounding *below*
        // q, although exactly it can only rise. Find such a (rem, c).
        let (rem, c) = (1..=1000)
            .flat_map(|k| (3..=64u32).map(move |c| (1.0 + k as f64 / 997.0, c)))
            .find(|&(rem, c)| {
                let q = rem / c as f64;
                (rem - q) / ((c - 1) as f64) < q
            })
            .expect("some (rem, c) rounds the share down");
        let q = rem / c as f64;
        let dropped = (rem - q) / (c - 1) as f64;

        // Resources 0 and 1 hold one flow each at capacity q; resource 2
        // holds c flows at capacity rem. All three keys start at
        // (q, 0, r), so resource 0 pops first and freezes flow X at q,
        // dropping resource 2's share below resource 1's. Resource 2
        // must pop next and fix flow Y at the dropped share: a kernel
        // that pushed no key on the drop would pop resource 1 first.
        let x = (rid(&[0, 2]), 1e9);
        let y = (rid(&[1, 2]), 1e9);
        let mut flows = vec![x, y];
        flows.extend((2..c).map(|_| (rid(&[2]), 1e9)));
        let caps = [q, q, rem];
        let mut wf = Waterfill::new(3);
        let mut eager = reference::EagerWaterfill::new(3);
        let rates = assert_matches_reference(&mut wf, &mut eager, &caps, &flows, (0.0, 1.0));
        assert_eq!(rates[1].to_bits(), dropped.to_bits());
        assert_eq!(wf.bindings()[..2], [0, 2]);
    }
}
