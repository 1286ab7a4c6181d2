//! Component sharding: partition a transfer graph into independent
//! contention components and execute them as isolated sub-simulations.
//!
//! Two transfers interact mechanically only through three channels:
//!
//! * **shared route resources** — they contend in the same waterfill
//!   component;
//! * **a shared source node** — the injection CPU serializes their
//!   sends;
//! * **dependency edges** — delivery of one readies the other.
//!
//! Union-find over those three relations yields connected components
//! whose event sequences are provably independent: no event in one
//! component can change a float in another. Each component becomes a
//! *shard* ([`ShardPlan`]) — a self-contained sub-problem with
//! transfers, resources and nodes remapped to dense local ids — and the
//! engine runs one event loop per shard, inline or on a worker pool
//! ([`execute`]). A graph that is one component is one shard with
//! identity id maps that borrows the caller's specs and capacity table.
//!
//! Determinism: shards are ordered by their minimum global transfer id
//! (the *canonical shard order*), local ids are assigned in ascending
//! global order (so every comparison the waterfill or the event queue
//! performs on ids orders local exactly like global), and merge always
//! walks shards in canonical order. The result is bit-identical at
//! every thread count, including the inline `threads <= 1` path.
//!
//! Fault events route to shards by what they touch: a `LinkFactor`
//! goes to the unique shard owning that resource; `NodeDown`/`NodeUp`
//! replicate to every shard where the node is an endpoint. Faults that
//! touch no shard are dropped — they could not have moved any flow.

use std::borrow::Cow;

use crate::fault::{FaultEvent, FaultKind};
use crate::graph::{ResourceId, TransferId, TransferSpec};

const NONE: u32 = u32::MAX;

/// Union-find with path halving.
struct Dsu {
    parent: Vec<u32>,
}

impl Dsu {
    fn new(n: usize) -> Dsu {
        Dsu {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Smaller root wins: keeps the representative the minimum
            // transfer id, which the canonical shard order reads off.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi as usize] = lo;
        }
    }
}

/// One contention component: the whole input of its event loop, in the
/// shard's own dense id universe.
pub(crate) struct ShardPlan<'g> {
    /// Global transfer ids, ascending — local tid `i` is `tids[i]`.
    pub tids: Vec<u32>,
    /// Global resource ids, ascending — local resource `r` is
    /// `resources[r]`.
    pub resources: Vec<u32>,
    /// Nodes in the shard's universe.
    pub num_nodes: u32,
    /// The shard's transfer specs in local ids.
    pub specs: Cow<'g, [TransferSpec]>,
    /// Local capacity table.
    pub caps: Cow<'g, [f64]>,
    /// Fault events routed to this shard, in plan order, local ids.
    pub faults: Vec<FaultEvent>,
}

/// Group transfers into contention components (union by shared route
/// resource, shared source node, and dependency edges), in canonical
/// order. `specs` must already be validated against the capacity table
/// and node count.
fn components(specs: &[TransferSpec], num_resources: usize, num_nodes: u32) -> Vec<Vec<u32>> {
    let n = specs.len();
    let mut dsu = Dsu::new(n);
    let mut res_owner = vec![NONE; num_resources];
    let mut src_owner = vec![NONE; num_nodes as usize];
    for (i, s) in specs.iter().enumerate() {
        let i = i as u32;
        for r in &s.route {
            let slot = &mut res_owner[r.0 as usize];
            if *slot == NONE {
                *slot = i;
            } else {
                dsu.union(i, *slot);
            }
        }
        let slot = &mut src_owner[s.src as usize];
        if *slot == NONE {
            *slot = i;
        } else {
            dsu.union(i, *slot);
        }
        for d in &s.deps {
            dsu.union(i, d.0);
        }
    }
    // First-seen roots in ascending tid order = ascending minimum tid.
    let mut comp_of_root = vec![NONE; n];
    let mut comps: Vec<Vec<u32>> = Vec::new();
    for i in 0..n as u32 {
        let root = dsu.find(i) as usize;
        if comp_of_root[root] == NONE {
            comp_of_root[root] = comps.len() as u32;
            comps.push(Vec::new());
        }
        comps[comp_of_root[root] as usize].push(i);
    }
    comps
}

/// Partition `specs` into shard plans in canonical order. Fault events
/// are filtered to what each shard can observe; events touching no
/// shard are dropped. One component (or none) yields one identity plan
/// that borrows `specs` and `caps` instead of copying them.
pub(crate) fn partition<'g>(
    specs: &'g [TransferSpec],
    fault_events: &[FaultEvent],
    caps: &'g [f64],
    num_nodes: u32,
) -> Vec<ShardPlan<'g>> {
    let num_resources = caps.len();
    let comps = components(specs, num_resources, num_nodes);

    if comps.len() <= 1 {
        // Filter faults against global membership; ids stay global.
        let mut res_used = vec![false; num_resources];
        let mut node_used = vec![false; num_nodes as usize];
        for s in specs {
            for r in &s.route {
                res_used[r.0 as usize] = true;
            }
            node_used[s.src as usize] = true;
            node_used[s.dst as usize] = true;
        }
        let faults = fault_events
            .iter()
            .filter(|ev| match ev.kind {
                FaultKind::LinkFactor { resource, .. } => res_used[resource.0 as usize],
                FaultKind::NodeDown { node } | FaultKind::NodeUp { node } => {
                    node_used[node as usize]
                }
            })
            .copied()
            .collect();
        return vec![ShardPlan {
            tids: (0..specs.len() as u32).collect(),
            resources: (0..num_resources as u32).collect(),
            num_nodes,
            specs: Cow::Borrowed(specs),
            caps: Cow::Borrowed(caps),
            faults,
        }];
    }

    // Local-id assignment. Resources belong to exactly one shard (a
    // shared resource would have unioned the sharers); nodes can appear
    // in several shards (as a destination), so they carry a per-shard
    // membership list instead of a single owner. Dependencies never
    // cross shards, so each shard's local specs can be built as soon as
    // its own transfers are numbered. Remaps are monotonic (sorted
    // ascending), so every id comparison downstream orders local ids
    // exactly like the global ids they stand for.
    let mut res_local = vec![NONE; num_resources];
    let mut res_shard = vec![NONE; num_resources];
    let mut tid_local = vec![NONE; specs.len()];
    let mut node_shards: Vec<Vec<(u32, u32)>> = vec![Vec::new(); num_nodes as usize];
    let mut plans: Vec<ShardPlan<'g>> = Vec::with_capacity(comps.len());

    for (k, tids) in comps.into_iter().enumerate() {
        let mut resources: Vec<u32> = Vec::new();
        let mut nodes: Vec<u32> = Vec::new();
        for (li, &t) in tids.iter().enumerate() {
            let s = &specs[t as usize];
            for r in &s.route {
                resources.push(r.0);
            }
            nodes.push(s.src);
            nodes.push(s.dst);
            tid_local[t as usize] = li as u32;
        }
        resources.sort_unstable();
        resources.dedup();
        nodes.sort_unstable();
        nodes.dedup();
        for (li, &r) in resources.iter().enumerate() {
            res_local[r as usize] = li as u32;
            res_shard[r as usize] = k as u32;
        }
        for (li, &nd) in nodes.iter().enumerate() {
            node_shards[nd as usize].push((k as u32, li as u32));
        }
        let local_node = |nd: u32| nodes.binary_search(&nd).expect("node in shard") as u32;
        let local_specs = tids
            .iter()
            .map(|&t| {
                let s = &specs[t as usize];
                let mut spec = s.clone();
                spec.src = local_node(s.src);
                spec.dst = local_node(s.dst);
                spec.route = s
                    .route
                    .iter()
                    .map(|r| ResourceId(res_local[r.0 as usize]))
                    .collect();
                spec.deps = s
                    .deps
                    .iter()
                    .map(|d| TransferId(tid_local[d.index()]))
                    .collect();
                spec
            })
            .collect();
        let local_caps = resources.iter().map(|&r| caps[r as usize]).collect();
        plans.push(ShardPlan {
            tids,
            resources,
            num_nodes: nodes.len() as u32,
            specs: Cow::Owned(local_specs),
            caps: Cow::Owned(local_caps),
            faults: Vec::new(),
        });
    }

    // Route fault events: link faults to the owning shard (a shared
    // resource would have unioned its users, so ownership is unique),
    // node faults to every shard the node appears in; plan order is
    // preserved per shard.
    for ev in fault_events {
        match ev.kind {
            FaultKind::LinkFactor { resource, factor } => {
                let ri = resource.0 as usize;
                if res_shard[ri] != NONE {
                    plans[res_shard[ri] as usize].faults.push(FaultEvent {
                        time: ev.time,
                        kind: FaultKind::LinkFactor {
                            resource: ResourceId(res_local[ri]),
                            factor,
                        },
                    });
                }
            }
            FaultKind::NodeDown { node } => {
                for &(k, local) in &node_shards[node as usize] {
                    plans[k as usize].faults.push(FaultEvent {
                        time: ev.time,
                        kind: FaultKind::NodeDown { node: local },
                    });
                }
            }
            FaultKind::NodeUp { node } => {
                for &(k, local) in &node_shards[node as usize] {
                    plans[k as usize].faults.push(FaultEvent {
                        time: ev.time,
                        kind: FaultKind::NodeUp { node: local },
                    });
                }
            }
        }
    }

    plans
}

/// Run `f(i)` for every index `i < count`, inline when `threads <= 1`,
/// otherwise on a scoped pool of `threads` workers with atomic work
/// stealing. Results come back in index order, so scheduling never
/// influences output. The engine runs its shards on this pool (and
/// merges them in canonical order); it is exported as
/// `bgq_netsim::execute_indexed` for callers with their own independent
/// work items.
pub fn execute<R, F>(count: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if threads <= 1 || count <= 1 {
        return (0..count).map(f).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<Option<R>>> =
        (0..count).map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(count) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let r = f(i);
                *slots[i].lock().unwrap() = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("worker completed the shard"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    fn spec(src: u32, dst: u32, route: &[u32]) -> TransferSpec {
        TransferSpec::new(
            src,
            dst,
            100,
            route.iter().map(|&r| ResourceId(r)).collect(),
        )
    }

    #[test]
    fn disjoint_transfers_form_singleton_components() {
        let specs = vec![spec(0, 1, &[0]), spec(2, 3, &[1]), spec(4, 5, &[2])];
        let comps = components(&specs, 3, 6);
        assert_eq!(comps, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn shared_resource_source_and_deps_union() {
        // 0,1 share link 0; 2 shares source node with 1; 3 depends on 2.
        let mut s3 = spec(6, 7, &[3]);
        s3.deps = vec![TransferId(2)];
        let specs = vec![spec(0, 1, &[0]), spec(2, 3, &[0]), spec(2, 5, &[2]), s3];
        let comps = components(&specs, 4, 8);
        assert_eq!(comps, vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn shared_destination_does_not_union() {
        // Same destination node, disjoint links and sources: no channel
        // couples them (destinations have no CPU in this model).
        let specs = vec![spec(0, 2, &[0]), spec(1, 2, &[1])];
        let comps = components(&specs, 2, 3);
        assert_eq!(comps.len(), 2);
    }

    #[test]
    fn partition_remaps_to_dense_local_ids() {
        let specs = vec![spec(0, 1, &[4]), spec(2, 3, &[9])];
        let plan = FaultPlan::new()
            .degrade_link(1.0, ResourceId(9), 0.5)
            .fail_node(2.0, 3)
            .fail_link(3.0, ResourceId(7)); // unused: dropped
        let plans = partition(&specs, plan.events(), &[1.0; 10], 4);
        assert_eq!(plans.len(), 2);
        assert_eq!(plans[0].resources, vec![4]);
        assert_eq!(plans[1].resources, vec![9]);
        assert_eq!(plans[1].num_nodes, 2);
        assert!(matches!(plans[1].specs, Cow::Owned(_)));
        // Local spec of shard 1 references local ids.
        let s = &plans[1].specs[0];
        assert_eq!((s.src, s.dst), (0, 1));
        assert_eq!(s.route, vec![ResourceId(0)]);
        // The degrade routed to shard 1 with a local resource id; the
        // node fault followed node 3 into shard 1; the unused-link
        // fault was dropped.
        assert_eq!(plans[0].faults.len(), 0);
        assert_eq!(plans[1].faults.len(), 2);
        match plans[1].faults[0].kind {
            FaultKind::LinkFactor { resource, .. } => assert_eq!(resource, ResourceId(0)),
            _ => panic!("expected link fault first"),
        }
        match plans[1].faults[1].kind {
            FaultKind::NodeDown { node } => assert_eq!(node, 1),
            _ => panic!("expected node fault second"),
        }
    }

    #[test]
    fn single_component_borrows_and_keeps_global_ids() {
        let specs = vec![spec(0, 1, &[5]), spec(0, 2, &[6])];
        let caps = [1.0; 8];
        let plan = FaultPlan::new()
            .fail_link(1.0, ResourceId(5))
            .fail_link(2.0, ResourceId(3)); // unused: dropped
        let plans = partition(&specs, plan.events(), &caps, 4);
        assert_eq!(plans.len(), 1, "shared source: one component");
        let p = &plans[0];
        assert!(matches!(p.specs, Cow::Borrowed(_)), "specs are not copied");
        assert!(
            matches!(p.caps, Cow::Borrowed(_)),
            "capacities are not copied"
        );
        assert_eq!(p.tids, vec![0, 1]);
        assert_eq!(p.resources, (0..8).collect::<Vec<u32>>());
        assert_eq!(p.num_nodes, 4);
        assert_eq!(p.faults.len(), 1);
        match p.faults[0].kind {
            FaultKind::LinkFactor { resource, .. } => {
                assert_eq!(resource, ResourceId(5), "ids stay global");
            }
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn executor_is_order_stable_at_any_thread_count() {
        let inputs: Vec<usize> = (0..37).collect();
        let run = |threads| execute(inputs.len(), threads, |i| i * i);
        let expected: Vec<usize> = inputs.iter().map(|i| i * i).collect();
        assert_eq!(run(1), expected);
        assert_eq!(run(2), expected);
        assert_eq!(run(8), expected);
        assert_eq!(run(64), expected);
    }
}
