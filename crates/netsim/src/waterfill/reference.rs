//! The eager-heap progressive-filling kernel, kept as a test oracle.
//!
//! This is the kernel [`super::Waterfill`] replaced, preserved verbatim
//! apart from its name and the cap-run rule: one heap entry per private
//! cap resource, and a fresh heap entry for every resource on every
//! frozen flow's route. A private cap that pops freezes every unfixed
//! flow with an equal cap in the same step, as the lazy kernel does.
//! The unit tests assert that the lazily keyed kernel's rates and
//! bindings are `to_bits`-equal to this one's.

use super::{FlowDemand, HeapEntry, Share, CAP_BINDING};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Debug)]
pub(super) struct EagerWaterfill {
    num_resources: usize,
    remaining: Vec<f64>,
    count: Vec<u32>,
    version: Vec<u32>,
    flows_on: Vec<Vec<u32>>,
    touched: Vec<u32>,
    heap: BinaryHeap<Reverse<HeapEntry>>,
    binding: Vec<u32>,
}

impl EagerWaterfill {
    pub fn new(num_resources: usize) -> EagerWaterfill {
        EagerWaterfill {
            num_resources,
            remaining: vec![0.0; num_resources],
            count: vec![0; num_resources],
            version: vec![0; num_resources],
            flows_on: (0..num_resources).map(|_| Vec::new()).collect(),
            touched: Vec::new(),
            heap: BinaryHeap::new(),
            binding: Vec::new(),
        }
    }

    pub fn bindings(&self) -> &[u32] {
        &self.binding
    }

    fn ensure_capacity(&mut self, total: usize) {
        if self.remaining.len() < total {
            self.remaining.resize(total, 0.0);
            self.count.resize(total, 0);
            self.version.resize(total, 0);
            self.flows_on.resize_with(total, Vec::new);
        }
    }

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
        self.ensure_capacity(nr + flows.len());
        debug_assert!(self.touched.is_empty());

        // Populate per-resource state for the resources in use.
        for (fi, f) in flows.iter().enumerate() {
            assert!(f.cap > 0.0, "flow {fi} has non-positive cap");
            for r in f.route {
                let ri = r.0 as usize;
                assert!(ri < nr, "route references unknown resource {ri}");
                if self.count[ri] == 0 {
                    let c = capacities[ri];
                    assert!(c > 0.0, "resource {ri} has non-positive capacity");
                    self.remaining[ri] = c;
                    self.touched.push(ri as u32);
                }
                self.count[ri] += 1;
                self.flows_on[ri].push(fi as u32);
            }
            // Private cap resource for the flow.
            let pi = nr + fi;
            self.remaining[pi] = f.cap;
            self.count[pi] = 1;
            self.flows_on[pi].push(fi as u32);
            self.touched.push(pi as u32);
        }

        // Derate shared real resources by the arbitration penalty (private
        // per-flow caps are not links and are never derated).
        if contention_penalty > 0.0 && contention_floor < 1.0 {
            for &ri in &self.touched {
                let ri = ri as usize;
                if ri < nr && self.count[ri] > 1 {
                    let eff = (1.0
                        / (1.0 + contention_penalty * (self.count[ri] - 1) as f64))
                        .max(contention_floor);
                    self.remaining[ri] *= eff;
                }
            }
        }

        let mut fixed = vec![false; flows.len()];
        let mut unfixed = flows.len();

        // Progressive filling driven by a lazy min-heap of per-resource
        // fair shares: pop the most constrained resource, freeze its
        // unfixed flows at its share, push updated entries for every
        // resource those flows touched. Entries are invalidated by a
        // per-resource version counter instead of being removed, so each
        // filling pass costs O(Σ route length · log) rather than
        // O(iterations · touched resources).
        self.heap.clear();
        for &ri in &self.touched {
            let ri_us = ri as usize;
            self.heap.push(Reverse(HeapEntry {
                share: Share(self.remaining[ri_us].max(0.0) / self.count[ri_us] as f64),
                version: self.version[ri_us],
                resource: ri,
            }));
        }

        while unfixed > 0 {
            let Reverse(entry) = self
                .heap
                .pop()
                .unwrap_or_else(|| panic!("{unfixed} flows unfixed but no constrained resource"));
            let ri = entry.resource as usize;
            if self.count[ri] == 0 || entry.version != self.version[ri] {
                continue; // stale
            }
            let s = self.remaining[ri].max(0.0) / self.count[ri] as f64;

            // Freeze every unfixed flow crossing this bottleneck at s; a
            // private cap stands for every unfixed flow with an equal cap.
            debug_assert!(!self.flows_on[ri].is_empty());
            let members: Vec<u32> = if ri < nr {
                self.flows_on[ri].clone()
            } else {
                (0..flows.len() as u32)
                    .filter(|&f| flows[f as usize].cap == s)
                    .collect()
            };
            for fi in members {
                let fi = fi as usize;
                if fixed[fi] {
                    continue;
                }
                fixed[fi] = true;
                unfixed -= 1;
                rates[fi] = s;
                self.binding[fi] = if ri < nr { ri as u32 } else { CAP_BINDING };
                let private = nr + fi;
                let resources = flows[fi]
                    .route
                    .iter()
                    .map(|r| r.0 as usize)
                    .chain(std::iter::once(private));
                for rr in resources {
                    self.remaining[rr] -= s;
                    self.count[rr] -= 1;
                    self.version[rr] = self.version[rr].wrapping_add(1);
                    if self.count[rr] > 0 {
                        self.heap.push(Reverse(HeapEntry {
                            share: Share(self.remaining[rr].max(0.0) / self.count[rr] as f64),
                            version: self.version[rr],
                            resource: rr as u32,
                        }));
                    }
                }
            }
            debug_assert_eq!(self.count[ri], 0, "bottleneck must drain completely");
        }

        // Reset scratch for the next call. Versions are zeroed too, so the
        // allocation (including share-tie resolution, which compares
        // versions) is a pure function of the demand set — a sub-solve
        // over one contention component returns bit-identical rates to
        // the same component inside a full solve, no matter what calls
        // came before.
        for &ri in &self.touched {
            let ri = ri as usize;
            self.remaining[ri] = 0.0;
            self.count[ri] = 0;
            self.version[ri] = 0;
            self.flows_on[ri].clear();
        }
        self.touched.clear();
        self.heap.clear();
    }
}
