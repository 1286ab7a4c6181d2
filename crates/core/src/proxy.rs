//! Algorithm 1: selecting the number and location of proxies.
//!
//! A *proxy* is a compute node through which one chunk of a logical message
//! is relayed (source → proxy → destination, store-and-forward), adding one
//! extra link-disjoint path on top of the deterministic default route.
//! Because BG/Q zone-2/3 routes are known a priori, candidate proxies can
//! be checked for link-disjointness before any data moves.
//!
//! Following the paper (§IV.C), candidates are searched in the `2L`
//! axis directions around the source, dimensions visited in routing order
//! (longest first), a small offset range per direction playing the role of
//! the `ε, δ, θ, σ` placement offsets of Figure 4. A candidate is accepted
//! if its two-segment path shares no directed link with any previously
//! accepted path (nor with itself). If fewer than `min_proxies` (3, from
//! the cost model) are found, the search reports failure and the caller
//! falls back to a direct transfer.

use bgq_comm::HealthMask;
use bgq_torus::{route, Dim, Direction, NodeId, Route, Shape, Sign, Zone};
use std::collections::HashSet;

/// Tunables for the proxy search.
#[derive(Debug, Clone)]
pub struct ProxySearchConfig {
    /// Minimum useful number of proxies (Eq. 5: at least 3).
    pub min_proxies: usize,
    /// Upper bound on proxies per transfer (at most `2L` = 10 directions).
    pub max_proxies: usize,
    /// Offsets tried along each direction (the paper's region offsets).
    pub max_offset: u16,
}

impl Default for ProxySearchConfig {
    fn default() -> Self {
        ProxySearchConfig {
            min_proxies: 3,
            max_proxies: 10,
            max_offset: 3,
        }
    }
}

/// A selected proxy and its two route segments.
#[derive(Debug, Clone)]
pub struct ProxyPath {
    pub proxy: NodeId,
    pub to_proxy: Route,
    pub from_proxy: Route,
}

impl ProxyPath {
    /// Total hops over both segments.
    pub fn hops(&self) -> usize {
        self.to_proxy.hops() + self.from_proxy.hops()
    }

    /// Every directed link the path crosses, both segments in order.
    pub fn links(&self) -> impl Iterator<Item = bgq_torus::LinkId> + '_ {
        path_links(self)
    }
}

/// Result of a per-pair proxy search.
#[derive(Debug, Clone)]
pub struct ProxySelection {
    pub paths: Vec<ProxyPath>,
}

impl ProxySelection {
    /// Number of proxies found.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// The proxy nodes.
    pub fn proxies(&self) -> Vec<NodeId> {
        self.paths.iter().map(|p| p.proxy).collect()
    }
}

fn path_links(p: &ProxyPath) -> impl Iterator<Item = bgq_torus::LinkId> + '_ {
    p.to_proxy
        .links
        .iter()
        .chain(p.from_proxy.links.iter())
        .copied()
}

/// Why one candidate proxy was rejected by Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The candidate is the source or destination itself.
    Endpoint,
    /// The candidate's two segments share a link with each other.
    SegmentsOverlap,
    /// A segment crosses a link the health mask reports dead.
    DeadLink,
    /// A segment crosses a link claimed by an already-accepted path.
    LinkInUse,
}

/// Decision counters from one proxy search — the planner's raw material
/// for `planner.proxy.*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Candidates whose two-segment path was actually routed and checked.
    pub candidates_tried: u64,
    /// Candidates accepted into the selection.
    pub accepted: u64,
    /// Rejections: segment self-overlap or overlap with accepted paths.
    pub rejected_overlap: u64,
    /// Candidates rejected because a segment crossed a dead link.
    pub dead_link_skips: u64,
    /// Candidates skipped because the proxy node itself was down.
    pub down_node_skips: u64,
    /// Candidates skipped because the node was forbidden (group member).
    pub forbidden_skips: u64,
}

/// Try one candidate proxy; `used` holds links claimed by accepted paths.
pub(crate) fn try_candidate(
    shape: &Shape,
    zone: Zone,
    src: NodeId,
    dst: NodeId,
    proxy: NodeId,
    used: &HashSet<bgq_torus::LinkId>,
) -> Option<ProxyPath> {
    let none = HashSet::new();
    try_candidate_explained(shape, zone, src, dst, proxy, used, &none).ok()
}

/// [`try_candidate`] with the rejection reason made explicit. `dead`
/// holds health-mask dead links, checked before `used` so a skip caused
/// by a failure is distinguishable from ordinary disjointness pressure.
pub(crate) fn try_candidate_explained(
    shape: &Shape,
    zone: Zone,
    src: NodeId,
    dst: NodeId,
    proxy: NodeId,
    used: &HashSet<bgq_torus::LinkId>,
    dead: &HashSet<bgq_torus::LinkId>,
) -> Result<ProxyPath, RejectReason> {
    if proxy == src || proxy == dst {
        return Err(RejectReason::Endpoint);
    }
    let to_proxy = route(shape, src, proxy, zone);
    let from_proxy = route(shape, proxy, dst, zone);
    // The two segments of one path must not overlap each other…
    if to_proxy.shares_link_with(&from_proxy) {
        return Err(RejectReason::SegmentsOverlap);
    }
    let candidate = ProxyPath {
        proxy,
        to_proxy,
        from_proxy,
    };
    // …nor cross a dead link…
    if path_links(&candidate).any(|l| dead.contains(&l)) {
        return Err(RejectReason::DeadLink);
    }
    // …nor any link already claimed by another path.
    if path_links(&candidate).any(|l| used.contains(&l)) {
        return Err(RejectReason::LinkInUse);
    }
    Ok(candidate)
}

/// Algorithm 1, parts I–II, for a single source/destination pair.
///
/// `forbidden` lists nodes that must not serve as proxies (e.g. the other
/// members of communicating groups). Returns an empty selection when fewer
/// than `cfg.min_proxies` link-disjoint paths exist — per the paper, the
/// transfer should then go direct.
///
/// ```
/// use bgq_torus::{standard_shape, NodeId, Zone};
/// use sdm_core::{find_proxies, ProxySearchConfig};
/// use std::collections::HashSet;
///
/// let shape = standard_shape(128).unwrap();
/// let sel = find_proxies(&shape, Zone::Z2, NodeId(0), NodeId(127),
///                        &HashSet::new(), &ProxySearchConfig::default());
/// assert!(sel.len() >= 4); // the paper's Fig. 5 partition supports 4+
/// ```
pub fn find_proxies(
    shape: &Shape,
    zone: Zone,
    src: NodeId,
    dst: NodeId,
    forbidden: &HashSet<NodeId>,
    cfg: &ProxySearchConfig,
) -> ProxySelection {
    find_proxies_constrained(
        shape,
        zone,
        src,
        dst,
        forbidden,
        &HashSet::new(),
        cfg,
        &HealthMask::healthy(),
    )
    .0
}

/// [`find_proxies`] under a network [`HealthMask`] and a set of
/// *claimed* links, returning the search's decision counters alongside
/// the selection.
///
/// * Health: candidates on a down node are skipped, and a path is
///   rejected if either of its segments crosses a dead link. The dead
///   links are seeded into the same `used` set that enforces
///   link-disjointness, so the search routes around failures with no
///   extra passes.
/// * Claims: links some other transfer of the same batch already owns
///   (a neighborhood exchange's link-claim ledger) also seed the
///   disjointness set, so every accepted path is link-disjoint not only
///   from its siblings but from everything the caller claimed —
///   candidates crossing them are rejected as ordinary overlap
///   ([`RejectReason::LinkInUse`]), not as dead links, because the
///   hardware is fine, it is merely spoken for.
/// * Stats: how many candidates were routed, accepted, rejected for
///   overlap, or skipped for dead links / down nodes / forbidden
///   membership — a pure by-product of the same traversal.
///
/// With a healthy mask and an empty `claimed` set this is exactly
/// [`find_proxies`].
#[allow(clippy::too_many_arguments)] // the plain search plus health and the ledger
pub fn find_proxies_constrained(
    shape: &Shape,
    zone: Zone,
    src: NodeId,
    dst: NodeId,
    forbidden: &HashSet<NodeId>,
    claimed: &HashSet<bgq_torus::LinkId>,
    cfg: &ProxySearchConfig,
    health: &HealthMask,
) -> (ProxySelection, SearchStats) {
    let src_c = shape.coord(src);
    let dst_c = shape.coord(dst);
    let hops = shape.hops_per_dim(src_c, dst_c);

    // Dimensions in routing order (longest first, canonical tie-break),
    // then the remaining dimensions: directions orthogonal to the route
    // are checked too, exactly because they yield disjoint paths.
    let mut dims: Vec<Dim> = Dim::ALL.to_vec();
    dims.sort_by_key(|d| std::cmp::Reverse(hops[d.index()]));

    let dead: HashSet<bgq_torus::LinkId> = health.dead_links.iter().copied().collect();
    let mut used: HashSet<bgq_torus::LinkId> = claimed.clone();
    let mut paths: Vec<ProxyPath> = Vec::new();
    let mut stats = SearchStats::default();

    'dirs: for dim in dims {
        for sign in [Sign::Plus, Sign::Minus] {
            if paths.len() >= cfg.max_proxies {
                break 'dirs;
            }
            let dir = Direction::new(dim, sign);
            // Candidates in this direction: offsets from the source (the
            // paper's regions around S) and offsets from the destination
            // (the regions around T) — the latter diversify the link the
            // path finally arrives on, which dimension-order routing would
            // otherwise funnel into one corridor.
            let max_theta = cfg.max_offset.min(shape.extent(dim).saturating_sub(1));
            let mut from_src = src_c;
            let mut from_dst = dst_c;
            'offsets: for _theta in 1..=max_theta {
                from_src = shape.neighbor(from_src, dir);
                from_dst = shape.neighbor(from_dst, dir);
                for c in [from_src, from_dst] {
                    let p = shape.node_id(c);
                    if forbidden.contains(&p) {
                        stats.forbidden_skips += 1;
                        continue;
                    }
                    if health.down_nodes.contains(&p) {
                        stats.down_node_skips += 1;
                        continue;
                    }
                    stats.candidates_tried += 1;
                    match try_candidate_explained(shape, zone, src, dst, p, &used, &dead) {
                        Ok(path) => {
                            used.extend(path_links(&path));
                            paths.push(path);
                            stats.accepted += 1;
                            break 'offsets; // one proxy per direction
                        }
                        Err(RejectReason::DeadLink) => stats.dead_link_skips += 1,
                        Err(_) => stats.rejected_overlap += 1,
                    }
                }
            }
        }
    }

    let selection = if paths.len() < cfg.min_proxies {
        ProxySelection { paths: Vec::new() }
    } else {
        ProxySelection { paths }
    };
    (selection, stats)
}

/// A group of proxies for a group-to-group transfer: one proxy per source,
/// all displaced the same way (the paper's "groups of proxies", §V.A).
#[derive(Debug, Clone)]
pub struct ProxyGroup {
    pub direction: Direction,
    pub offset: u16,
    /// `nodes[i]` relays the chunk of `sources[i]`.
    pub nodes: Vec<NodeId>,
}

/// Displace every node of `group` by `offset` hops along `direction`.
pub fn displace_group(
    shape: &Shape,
    group: &[NodeId],
    direction: Direction,
    offset: u16,
) -> Vec<NodeId> {
    group
        .iter()
        .map(|&n| {
            let mut c = shape.coord(n);
            for _ in 0..offset {
                c = shape.neighbor(c, direction);
            }
            shape.node_id(c)
        })
        .collect()
}

/// Build proxy groups along explicit directions *without* disjointness
/// checking. Used to reproduce Figure 7's over-provisioning experiment,
/// where a fifth group intentionally interferes with existing paths.
pub fn proxy_groups_along(
    shape: &Shape,
    sources: &[NodeId],
    placements: &[(Direction, u16)],
) -> Vec<ProxyGroup> {
    placements
        .iter()
        .map(|&(direction, offset)| ProxyGroup {
            direction,
            offset,
            nodes: displace_group(shape, sources, direction, offset),
        })
        .collect()
}

/// Algorithm 1 adapted to two communicating groups: find up to
/// `cfg.max_proxies` proxy groups such that, for every source `i`, the
/// path `sources[i] → proxy → dests[i]` is link-disjoint from that
/// source's paths through all previously accepted groups.
///
/// Proxies are not allowed to be members of either group. Returns an empty
/// list when fewer than `cfg.min_proxies` groups qualify.
pub fn find_proxy_groups(
    shape: &Shape,
    zone: Zone,
    sources: &[NodeId],
    dests: &[NodeId],
    cfg: &ProxySearchConfig,
) -> Vec<ProxyGroup> {
    assert_eq!(
        sources.len(),
        dests.len(),
        "group transfer pairs sources to destinations"
    );
    if sources.is_empty() {
        return Vec::new();
    }
    let members: HashSet<NodeId> = sources.iter().chain(dests.iter()).copied().collect();

    // Routing-order directions from the bounding pair (first source/dest).
    let hops = shape.hops_per_dim(shape.coord(sources[0]), shape.coord(dests[0]));
    let mut dims: Vec<Dim> = Dim::ALL.to_vec();
    dims.sort_by_key(|d| std::cmp::Reverse(hops[d.index()]));

    // Per-source sets of links already claimed.
    let mut used: Vec<HashSet<bgq_torus::LinkId>> = vec![HashSet::new(); sources.len()];
    let mut groups: Vec<ProxyGroup> = Vec::new();

    'dirs: for dim in dims {
        for sign in [Sign::Plus, Sign::Minus] {
            if groups.len() >= cfg.max_proxies {
                break 'dirs;
            }
            let dir = Direction::new(dim, sign);
            let max_theta = cfg.max_offset.min(shape.extent(dim).saturating_sub(1));
            'offsets: for theta in 1..=max_theta {
                // Source-side group (displaced copy of S) and dest-side
                // group (displaced copy of T): the latter diversifies the
                // arrival links, as in Figure 4(b)'s P2/P3 regions.
                let mut accepted = false;
                'variants: for base in [sources, dests] {
                    let nodes = displace_group(shape, base, dir, theta);
                    let mut candidate_paths = Vec::with_capacity(sources.len());
                    for (i, (&s, &d)) in sources.iter().zip(dests).enumerate() {
                        let p = nodes[i];
                        if members.contains(&p) {
                            continue 'variants;
                        }
                        match try_candidate(shape, zone, s, d, p, &used[i]) {
                            Some(path) => candidate_paths.push(path),
                            None => continue 'variants,
                        }
                    }
                    // Whole group qualifies: claim its links.
                    for (i, path) in candidate_paths.iter().enumerate() {
                        used[i].extend(path_links(path));
                    }
                    groups.push(ProxyGroup {
                        direction: dir,
                        offset: theta,
                        nodes,
                    });
                    accepted = true;
                    break;
                }
                if accepted {
                    break 'offsets; // one group per direction, try next sign
                }
            }
        }
    }

    if groups.len() < cfg.min_proxies {
        Vec::new()
    } else {
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgq_torus::standard_shape;

    fn cfg() -> ProxySearchConfig {
        ProxySearchConfig::default()
    }

    /// The Fig. 5 corner-to-corner search on 128 nodes under `forbidden`
    /// and `health`, with nothing claimed.
    fn corner_search(
        forbidden: &HashSet<NodeId>,
        health: &HealthMask,
    ) -> (ProxySelection, SearchStats) {
        let shape = standard_shape(128).unwrap();
        find_proxies_constrained(
            &shape,
            Zone::Z2,
            NodeId(0),
            NodeId(127),
            forbidden,
            &HashSet::new(),
            &cfg(),
            health,
        )
    }

    /// Paper Fig. 5 setting: first and last node of the 128-node partition.
    #[test]
    fn fig5_setting_finds_four_plus_proxies() {
        let shape = standard_shape(128).unwrap();
        let sel = find_proxies(
            &shape,
            Zone::Z2,
            NodeId(0),
            NodeId(127),
            &HashSet::new(),
            &cfg(),
        );
        assert!(
            sel.len() >= 4,
            "the 2x2x4x4x2 partition supports 4 proxies (paper uses +B,+C,+D,+E), got {}",
            sel.len()
        );
    }

    #[test]
    fn selected_paths_are_pairwise_link_disjoint() {
        let shape = standard_shape(512).unwrap();
        let sel = find_proxies(
            &shape,
            Zone::Z2,
            NodeId(0),
            NodeId(511),
            &HashSet::new(),
            &cfg(),
        );
        assert!(sel.len() >= 3);
        let all: Vec<Vec<bgq_torus::LinkId>> = sel
            .paths
            .iter()
            .map(|p| path_links(p).collect())
            .collect();
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                for l in &all[i] {
                    assert!(
                        !all[j].contains(l),
                        "paths {i} and {j} share link {l}"
                    );
                }
            }
        }
    }

    #[test]
    fn segments_within_a_path_are_disjoint() {
        let shape = standard_shape(512).unwrap();
        let sel = find_proxies(
            &shape,
            Zone::Z2,
            NodeId(3),
            NodeId(200),
            &HashSet::new(),
            &cfg(),
        );
        for p in &sel.paths {
            assert!(!p.to_proxy.shares_link_with(&p.from_proxy));
            assert_eq!(p.to_proxy.dst, p.proxy);
            assert_eq!(p.from_proxy.src, p.proxy);
        }
    }

    #[test]
    fn proxies_avoid_forbidden_nodes() {
        let shape = standard_shape(128).unwrap();
        let sel_free = find_proxies(
            &shape,
            Zone::Z2,
            NodeId(0),
            NodeId(127),
            &HashSet::new(),
            &cfg(),
        );
        let forbidden: HashSet<NodeId> = sel_free.proxies().into_iter().collect();
        let sel = find_proxies(&shape, Zone::Z2, NodeId(0), NodeId(127), &forbidden, &cfg());
        for p in sel.proxies() {
            assert!(!forbidden.contains(&p));
        }
    }

    #[test]
    fn too_small_partition_falls_back_to_direct() {
        // A 1D-ish degenerate shape cannot provide 3 disjoint detours
        // between adjacent nodes.
        let shape = Shape::new(2, 1, 1, 1, 1);
        let sel = find_proxies(
            &shape,
            Zone::Z2,
            NodeId(0),
            NodeId(1),
            &HashSet::new(),
            &cfg(),
        );
        assert!(sel.is_empty(), "must signal fallback to direct transfer");
    }

    #[test]
    fn group_search_finds_groups_in_2k_partition() {
        // Paper Fig. 6: two groups of 256 nodes at opposite corners of the
        // 4x4x4x16x2 partition; 3 proxy groups were found.
        let shape = standard_shape(2048).unwrap();
        let n = shape.num_nodes();
        let sources: Vec<NodeId> = (0..256).map(NodeId).collect();
        let dests: Vec<NodeId> = (n - 256..n).map(NodeId).collect();
        let groups = find_proxy_groups(&shape, Zone::Z2, &sources, &dests, &cfg());
        assert!(
            groups.len() >= 3,
            "expected >= 3 proxy groups as in the paper, got {}",
            groups.len()
        );
        for g in &groups {
            assert_eq!(g.nodes.len(), 256);
        }
    }

    #[test]
    fn group_paths_are_disjoint_per_source() {
        let shape = standard_shape(512).unwrap();
        let sources: Vec<NodeId> = (0..32).map(NodeId).collect();
        let dests: Vec<NodeId> = (480..512).map(NodeId).collect();
        let groups = find_proxy_groups(&shape, Zone::Z2, &sources, &dests, &cfg());
        assert!(groups.len() >= 3);
        for (i, (&s, &d)) in sources.iter().zip(&dests).enumerate() {
            let mut seen: HashSet<bgq_torus::LinkId> = HashSet::new();
            for g in &groups {
                let p = g.nodes[i];
                let seg1 = route(&shape, s, p, Zone::Z2);
                let seg2 = route(&shape, p, d, Zone::Z2);
                for l in seg1.links.iter().chain(&seg2.links) {
                    assert!(seen.insert(*l), "source {i}: link {l} reused across groups");
                }
            }
        }
    }

    #[test]
    fn displace_group_wraps() {
        let shape = standard_shape(128).unwrap();
        let g = displace_group(
            &shape,
            &[NodeId(0)],
            Direction::new(Dim::C, Sign::Minus),
            1,
        );
        let c = shape.coord(g[0]);
        assert_eq!(c.get(Dim::C), 3);
    }

    #[test]
    fn health_aware_search_routes_around_dead_links() {
        let shape = standard_shape(128).unwrap();
        let free = find_proxies(
            &shape,
            Zone::Z2,
            NodeId(0),
            NodeId(127),
            &HashSet::new(),
            &cfg(),
        );
        assert!(free.len() >= 4);
        // Kill every link of the first selected path.
        let mut health = HealthMask::healthy();
        health.dead_links.extend(path_links(&free.paths[0]));
        let sel = corner_search(&HashSet::new(), &health).0;
        assert!(sel.len() >= 3, "survivors must still form a selection");
        for p in &sel.paths {
            for l in path_links(p) {
                assert!(!health.dead_links.contains(&l), "path crosses dead link {l}");
            }
        }
    }

    #[test]
    fn health_aware_search_skips_down_nodes() {
        let shape = standard_shape(128).unwrap();
        let free = find_proxies(
            &shape,
            Zone::Z2,
            NodeId(0),
            NodeId(127),
            &HashSet::new(),
            &cfg(),
        );
        let mut health = HealthMask::healthy();
        health.down_nodes.extend(free.proxies());
        let sel = corner_search(&HashSet::new(), &health).0;
        for p in sel.proxies() {
            assert!(!health.down_nodes.contains(&p), "selected a down node {p}");
        }
    }

    #[test]
    fn stats_count_dead_link_skips() {
        let shape = standard_shape(128).unwrap();
        let mut health = HealthMask::healthy();
        let free = find_proxies(
            &shape,
            Zone::Z2,
            NodeId(0),
            NodeId(127),
            &HashSet::new(),
            &cfg(),
        );
        health.dead_links.extend(path_links(&free.paths[0]));
        let (sel, stats) = corner_search(&HashSet::new(), &health);
        assert_eq!(stats.accepted as usize, sel.len());
        assert!(stats.candidates_tried >= stats.accepted);
        assert!(
            stats.dead_link_skips >= 1,
            "killing a whole selected path must surface as dead-link skips: {stats:?}"
        );
    }

    #[test]
    fn constrained_search_respects_claimed_links() {
        let shape = standard_shape(128).unwrap();
        let free = find_proxies(
            &shape,
            Zone::Z2,
            NodeId(0),
            NodeId(127),
            &HashSet::new(),
            &cfg(),
        );
        assert!(free.len() >= 4);
        // Claim every link of the first two selected paths, as a batch
        // planner's ledger would.
        let claimed: HashSet<bgq_torus::LinkId> = free.paths[..2]
            .iter()
            .flat_map(|p| p.links())
            .collect();
        let (sel, stats) = find_proxies_constrained(
            &shape,
            Zone::Z2,
            NodeId(0),
            NodeId(127),
            &HashSet::new(),
            &claimed,
            &cfg(),
            &HealthMask::healthy(),
        );
        for p in &sel.paths {
            for l in p.links() {
                assert!(!claimed.contains(&l), "path crosses claimed link {l}");
            }
        }
        // Claimed links surface as overlap pressure, never as dead links.
        assert_eq!(stats.dead_link_skips, 0);
        assert!(stats.rejected_overlap >= 1, "{stats:?}");

        // An empty claim set reproduces the unconstrained search exactly.
        let (unclaimed, _) = find_proxies_constrained(
            &shape,
            Zone::Z2,
            NodeId(0),
            NodeId(127),
            &HashSet::new(),
            &HashSet::new(),
            &cfg(),
            &HealthMask::healthy(),
        );
        assert_eq!(unclaimed.proxies(), free.proxies());
    }

    #[test]
    fn stats_count_down_node_and_forbidden_skips() {
        let shape = standard_shape(128).unwrap();
        let free = find_proxies(
            &shape,
            Zone::Z2,
            NodeId(0),
            NodeId(127),
            &HashSet::new(),
            &cfg(),
        );
        let mut health = HealthMask::healthy();
        health.down_nodes.insert(free.proxies()[0]);
        let forbidden: HashSet<NodeId> = free.proxies()[1..2].iter().copied().collect();
        let (_, stats) = corner_search(&forbidden, &health);
        assert!(stats.down_node_skips >= 1, "{stats:?}");
        assert!(stats.forbidden_skips >= 1, "{stats:?}");
    }

    #[test]
    fn proxy_groups_along_builds_requested_count() {
        let shape = standard_shape(512).unwrap();
        let sources: Vec<NodeId> = (0..32).map(NodeId).collect();
        let placements = [
            (Direction::new(Dim::A, Sign::Plus), 1),
            (Direction::new(Dim::A, Sign::Minus), 1),
            (Direction::new(Dim::B, Sign::Plus), 1),
            (Direction::new(Dim::B, Sign::Minus), 1),
            (Direction::new(Dim::C, Sign::Plus), 1),
        ];
        let groups = proxy_groups_along(&shape, &sources, &placements);
        assert_eq!(groups.len(), 5);
    }

    use bgq_torus::Shape;
}
