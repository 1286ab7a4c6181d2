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
        if flows.is_empty() {
            return;
        }

        let nr = self.num_resources;
        debug_assert!(self.touched.is_empty());

        // Populate per-resource state for the resources in use, and the
        // private cap of every flow.
        self.caps.clear();
        for (fi, f) in flows.iter().enumerate() {
            assert!(f.cap > 0.0, "flow {fi} has non-positive cap");
            for r in f.route {
                let ri = r.0 as usize;
                assert!(ri < nr, "route references unknown resource {ri}");
                let slot = &mut self.slots[ri];
                if slot.count == 0 {
                    let c = capacities[ri];
                    assert!(c > 0.0, "resource {ri} has non-positive capacity");
                    slot.remaining = c;
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

        // Derate shared real resources by the arbitration penalty (private
        // per-flow caps are not links and are never derated).
        if contention_penalty > 0.0 && contention_floor < 1.0 {
            for &ri in &self.touched {
                let slot = &mut self.slots[ri as usize];
                if slot.count > 1 {
                    let eff = (1.0
                        / (1.0 + contention_penalty * (slot.count - 1) as f64))
                        .max(contention_floor);
                    slot.remaining *= eff;
                }
            }
        }

        // One lazily keyed heap entry per real resource, heapified in
        // one pass into the recycled buffer.
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.clear();
        for &ri in &self.touched {
            let slot = &mut self.slots[ri as usize];
            let share = slot.remaining.max(0.0) / slot.count as f64;
            slot.heap_share = share;
            slot.heap_version = slot.version;
            entries.push(Reverse(HeapEntry {
                share: Share(share),
                version: slot.version,
                resource: ri,
            }));
        }
        self.heap = BinaryHeap::from(entries);

        self.fixed.clear();
        self.fixed.resize(flows.len(), false);
        let mut unfixed = flows.len();
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
                // hence below every real resource's current key.
                next_cap += 1;
                self.freeze(flows, cap_flow as usize, cap.0, CAP_BINDING, rates);
                unfixed -= 1;
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
                    let share = slot.remaining.max(0.0) / slot.count as f64;
                    slot.heap_share = share;
                    slot.heap_version = slot.version;
                    self.heap.push(Reverse(HeapEntry {
                        share: Share(share),
                        version: slot.version,
                        resource: entry.resource,
                    }));
                }
                continue;
            }
            let s = slot.remaining.max(0.0) / slot.count as f64;

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
        self.fixed[fi] = true;
        rates[fi] = s;
        self.binding[fi] = binding;
        for r in flows[fi].route {
            let slot = &mut self.slots[r.0 as usize];
            slot.remaining -= s;
            slot.count -= 1;
            slot.version = slot.version.wrapping_add(1);
            if slot.count > 0 {
                let share = slot.remaining.max(0.0) / slot.count as f64;
                if Share(share) < Share(slot.heap_share) {
                    slot.heap_share = share;
                    slot.heap_version = slot.version;
                    self.heap.push(Reverse(HeapEntry {
                        share: Share(share),
                        version: slot.version,
                        resource: r.0,
                    }));
                }
            }
        }
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
        let demands: Vec<FlowDemand> = flows
            .iter()
            .map(|(r, c)| FlowDemand { route: r, cap: *c })
            .collect();
        let mut rates = Vec::new();
        wf.compute(&demands, caps, &mut rates);
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
        let demands: Vec<FlowDemand> = flows
            .iter()
            .map(|(r, c)| FlowDemand { route: r, cap: *c })
            .collect();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        wf.compute_with_penalty(&demands, caps, penalty.0, penalty.1, &mut got);
        eager.compute_with_penalty(&demands, caps, penalty.0, penalty.1, &mut want);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "rates differ on {flows:?} / {caps:?}");
        assert_eq!(wf.bindings(), eager.bindings(), "bindings differ on {flows:?}");
        got
    }

    #[test]
    fn lazy_kernel_matches_eager_reference_bit_for_bit() {
        const NR: usize = 8;
        // A small palette makes link shares and caps tie often.
        const PALETTE: [f64; 6] = [1.0, 2.0, 3.0, 10.0, 0.7, 6.0];
        const PENALTIES: [(f64, f64); 4] = [(0.0, 1.0), (0.5, 0.5), (0.25, 0.8), (1.0, 0.1)];
        let mut rng = Rng(2014);
        let mut wf = Waterfill::new(NR);
        let mut eager = reference::EagerWaterfill::new(NR);
        let (mut repeated, mut mixed_bindings) = (0, 0);
        for case in 0..4000 {
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
            if flows.iter().any(|(r, _)| (1..r.len()).any(|i| r[i..].contains(&r[i - 1]))) {
                repeated += 1;
            }
            let penalty = PENALTIES[case % PENALTIES.len()];
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
