//! Bottleneck attribution: where every simulated nanosecond went.
//!
//! The max-min waterfill does not just produce a rate per flow — the
//! progressive-filling loop *names* the resource whose residual fixed
//! each flow's rate (the flow's **binding resource**: either a link it
//! crosses or its own rate cap). The engine keeps that name per flow per
//! epoch, accrues elapsed time against it, and folds the result into a
//! per-transfer [`TransferTimeProfile`]:
//!
//! * `queued_before_start` — ready (dependencies met) until the flow's
//!   first byte moved: injection-CPU queueing, `send_overhead`, and time
//!   parked behind a down source node;
//! * `bottlenecked_on[link] → seconds` — time spent rate-limited by each
//!   link on the route (the flow was active and that link's residual
//!   fixed its rate);
//! * `cap_limited` — time the flow's own rate cap (the per-flow protocol
//!   limit) was the binding resource;
//! * `stalled_by_fault` — frozen by a dead link / down endpoint;
//! * `delivery_latency` — last byte drained until delivery (pipeline hop
//!   latency + `recv_overhead`).
//!
//! Invariants (pinned by `tests/profile.rs`):
//!
//! * per-flow, the categories sum to `delivery − ready` (run end for
//!   undelivered flows) within float-accumulation noise;
//! * `network_limited` **is** the sum of the per-link blame — exact by
//!   construction;
//! * profiles are bit-identical between [`crate::SolverMode::Full`] and
//!   [`crate::SolverMode::Incremental`], and a profiled run's
//!   [`crate::SimReport`] is bit-identical to an unprofiled one.

use crate::graph::ResourceId;
use crate::waterfill::CAP_BINDING;

/// The resource that fixed a flow's rate in a max-min allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Binding {
    /// A shared link on the flow's route saturated first.
    Link(ResourceId),
    /// The flow's own rate cap bound before any link did.
    FlowCap,
}

impl Binding {
    pub(crate) fn from_code(code: u32) -> Binding {
        if code == CAP_BINDING {
            Binding::FlowCap
        } else {
            Binding::Link(ResourceId(code))
        }
    }
}

impl std::fmt::Display for Binding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Binding::Link(r) => write!(f, "link{}", r.0),
            Binding::FlowCap => write!(f, "cap"),
        }
    }
}

/// Time decomposition of one transfer (see module docs for the
/// category definitions).
#[derive(Debug, Clone, PartialEq)]
pub struct TransferTimeProfile {
    /// When the transfer's dependencies were met (`start_at` /
    /// `extra_delay` included); `INFINITY` if it never became ready.
    pub ready_time: f64,
    /// Ready → first byte moved (or run end if it never started).
    pub queued_before_start: f64,
    /// Seconds the flow's own rate cap was the binding resource.
    pub cap_limited: f64,
    /// Seconds frozen by faults (mirrors `SimReport::stall_time`).
    pub stalled_by_fault: f64,
    /// Last byte drained → delivered (hop latency + recv overhead).
    pub delivery_latency: f64,
    /// Seconds rate-limited by each link, sorted by resource id. Only
    /// links that were ever this flow's binding resource appear.
    pub bottlenecked_on: Vec<(ResourceId, f64)>,
    /// Binding-resource change points `(time, binding)`: one entry per
    /// waterfill epoch at which this flow's binding differed from the
    /// previous epoch (the first entry is the flow's first epoch).
    pub binding_timeline: Vec<(f64, Binding)>,
}

impl TransferTimeProfile {
    /// Total seconds rate-limited by links (the sum of
    /// [`bottlenecked_on`](Self::bottlenecked_on) — exact by
    /// construction). Folded from `+0.0`: an empty `Sum` would yield
    /// `-0.0`.
    pub fn network_limited(&self) -> f64 {
        self.bottlenecked_on.iter().fold(0.0, |a, &(_, s)| a + s)
    }

    /// Sum of every category; equals the transfer's elapsed time
    /// (delivery − ready, or run end − ready) within float noise.
    pub fn accounted(&self) -> f64 {
        self.queued_before_start
            + self.cap_limited
            + self.stalled_by_fault
            + self.delivery_latency
            + self.network_limited()
    }
}

/// Per-run bottleneck attribution: one [`TransferTimeProfile`] per
/// transfer (graph indexing), plus the run clock for closing the books
/// on undelivered flows.
#[derive(Debug, Clone, PartialEq)]
pub struct SimProfile {
    pub transfers: Vec<TransferTimeProfile>,
    /// Simulation clock when the event queue drained (mirrors
    /// `SimReport::end_time`).
    pub end_time: f64,
}

/// Engine-side accumulator, allocated only when profiling is requested.
/// Bindings are carried as raw `u32` codes ([`CAP_BINDING`] = flow cap)
/// until [`finish`](ProfileState::finish) decodes them.
#[derive(Debug)]
pub(crate) struct ProfileState {
    ready: Vec<f64>,
    drained: Vec<f64>,
    /// Per-transfer `(binding code, seconds)` in first-binding order.
    blame: Vec<Vec<(u32, f64)>>,
    timeline: Vec<Vec<(f64, u32)>>,
}

impl ProfileState {
    pub fn new(n: usize) -> ProfileState {
        ProfileState {
            ready: vec![f64::INFINITY; n],
            drained: vec![f64::INFINITY; n],
            blame: vec![Vec::new(); n],
            timeline: vec![Vec::new(); n],
        }
    }

    /// First time the transfer became ready (re-readies after a node
    /// recovery keep the original instant).
    pub fn note_ready(&mut self, tid: u32, now: f64) {
        let slot = &mut self.ready[tid as usize];
        if slot.is_infinite() {
            *slot = now;
        }
    }

    /// The flow's payload finished draining (delivery is latency later).
    pub fn note_drained(&mut self, tid: u32, now: f64) {
        self.drained[tid as usize] = now;
    }

    /// Attribute `dt` seconds of active flow time to `binding`.
    pub fn accrue(&mut self, tid: u32, binding: u32, dt: f64) {
        let row = &mut self.blame[tid as usize];
        match row.iter_mut().find(|(b, _)| *b == binding) {
            Some((_, s)) => *s += dt,
            None => row.push((binding, dt)),
        }
    }

    /// Record the flow's binding after a re-level; appends a timeline
    /// entry only when it changed.
    pub fn note_binding(&mut self, tid: u32, now: f64, binding: u32) {
        let tl = &mut self.timeline[tid as usize];
        if tl.last().map(|&(_, b)| b) != Some(binding) {
            tl.push((now, binding));
        }
    }

    /// Fold one shard's accumulators into this (global) one, scattering
    /// its local transfer slots through `tids` and remapping binding
    /// codes through `resources` ([`CAP_BINDING`] passes through). Both
    /// maps are sorted ascending, so per-transfer blame and timeline
    /// orderings survive the remap unchanged.
    pub fn absorb(&mut self, mut other: ProfileState, tids: &[u32], resources: &[u32]) {
        let code = |c: u32| {
            if c == CAP_BINDING {
                CAP_BINDING
            } else {
                resources[c as usize]
            }
        };
        for (li, &t) in tids.iter().enumerate() {
            let gi = t as usize;
            self.ready[gi] = other.ready[li];
            self.drained[gi] = other.drained[li];
            // Moved, not copied: the remap reuses each row's allocation.
            self.blame[gi] = std::mem::take(&mut other.blame[li])
                .into_iter()
                .map(|(c, s)| (code(c), s))
                .collect();
            self.timeline[gi] = std::mem::take(&mut other.timeline[li])
                .into_iter()
                .map(|(time, c)| (time, code(c)))
                .collect();
        }
    }

    /// Fold the accumulators into a [`SimProfile`].
    pub fn finish(
        self,
        delivery_time: &[f64],
        flow_start_time: &[f64],
        stall_time: &[f64],
        end_time: f64,
    ) -> SimProfile {
        let n = self.ready.len();
        let mut transfers = Vec::with_capacity(n);
        for i in 0..n {
            let ready = self.ready[i];
            let started = flow_start_time[i];
            let queued = if started.is_finite() {
                started - ready
            } else if ready.is_finite() {
                end_time - ready
            } else {
                0.0
            };
            let drained = self.drained[i];
            let latency = if delivery_time[i].is_finite() && drained.is_finite() {
                delivery_time[i] - drained
            } else {
                0.0
            };
            let mut cap_limited = 0.0;
            let mut links: Vec<(ResourceId, f64)> = Vec::new();
            for &(code, secs) in &self.blame[i] {
                if code == CAP_BINDING {
                    cap_limited += secs;
                } else {
                    links.push((ResourceId(code), secs));
                }
            }
            links.sort_by_key(|&(r, _)| r);
            transfers.push(TransferTimeProfile {
                ready_time: ready,
                queued_before_start: queued,
                cap_limited,
                stalled_by_fault: stall_time[i],
                delivery_latency: latency,
                bottlenecked_on: links,
                binding_timeline: self.timeline[i]
                    .iter()
                    .map(|&(t, b)| (t, Binding::from_code(b)))
                    .collect(),
            });
        }
        SimProfile {
            transfers,
            end_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tp(links: &[(u32, f64)], cap: f64) -> TransferTimeProfile {
        TransferTimeProfile {
            ready_time: 0.0,
            queued_before_start: 1.0,
            cap_limited: cap,
            stalled_by_fault: 0.0,
            delivery_latency: 0.5,
            bottlenecked_on: links.iter().map(|&(r, s)| (ResourceId(r), s)).collect(),
            binding_timeline: Vec::new(),
        }
    }

    #[test]
    fn accounted_sums_all_categories() {
        let t = tp(&[(0, 2.0), (3, 4.0)], 0.25);
        assert!((t.network_limited() - 6.0).abs() < 1e-12);
        assert!((t.accounted() - (1.0 + 0.25 + 0.5 + 6.0)).abs() < 1e-12);
    }

    #[test]
    fn binding_display_and_decode() {
        assert_eq!(Binding::from_code(7), Binding::Link(ResourceId(7)));
        assert_eq!(Binding::from_code(CAP_BINDING), Binding::FlowCap);
        assert_eq!(format!("{}", Binding::Link(ResourceId(7))), "link7");
        assert_eq!(format!("{}", Binding::FlowCap), "cap");
    }

    #[test]
    fn profile_state_accrues_and_dedups_timeline() {
        let mut ps = ProfileState::new(1);
        ps.note_ready(0, 1.0);
        ps.note_ready(0, 5.0); // re-ready keeps the first instant
        ps.accrue(0, 2, 1.5);
        ps.accrue(0, CAP_BINDING, 0.5);
        ps.accrue(0, 2, 0.5);
        ps.note_binding(0, 2.0, 2);
        ps.note_binding(0, 3.0, 2); // unchanged: no entry
        ps.note_binding(0, 4.0, CAP_BINDING);
        ps.note_drained(0, 6.0);
        let prof = ps.finish(&[6.5], &[2.0], &[0.0], 6.5);
        let t = &prof.transfers[0];
        assert_eq!(t.ready_time, 1.0);
        assert_eq!(t.queued_before_start, 1.0);
        assert_eq!(t.cap_limited, 0.5);
        assert_eq!(t.delivery_latency, 0.5);
        assert_eq!(t.bottlenecked_on, vec![(ResourceId(2), 2.0)]);
        assert_eq!(
            t.binding_timeline,
            vec![(2.0, Binding::Link(ResourceId(2))), (4.0, Binding::FlowCap)]
        );
    }
}
