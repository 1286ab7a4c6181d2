//! Transfer graphs: the unit of work the simulator executes.
//!
//! A [`TransferGraph`] is a DAG of point-to-point transfers. Each transfer
//! names a source and destination node, a byte count, the sequence of
//! network resources (directed links) it traverses, and the set of
//! transfers that must be *delivered* before it may start. Dependencies are
//! how higher layers express store-and-forward proxying, aggregation
//! pipelines, and synchronization epochs.

use std::fmt;

/// Dense identifier of a network resource (a directed torus link or an I/O
/// link). The mapping from topology links to resource indices is owned by
/// the communication layer; the simulator only needs capacities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceId(pub u32);

/// Identifier of a transfer within one [`TransferGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransferId(pub u32);

impl TransferId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TransferId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// One point-to-point transfer.
#[derive(Debug, Clone)]
pub struct TransferSpec {
    /// Source node (dense node index; used for sender CPU serialization).
    pub src: u32,
    /// Destination node.
    pub dst: u32,
    /// Payload size. Zero-byte transfers act as pure synchronization edges.
    pub bytes: u64,
    /// Resources traversed, in order. May be empty (e.g. on-node copies).
    pub route: Vec<ResourceId>,
    /// Transfers that must be delivered before this one starts.
    pub deps: Vec<TransferId>,
    /// Additional delay after the last dependency is delivered before this
    /// transfer enters the sender's injection queue (e.g. forwarding or
    /// synchronization overhead).
    pub extra_delay: f64,
    /// Earliest absolute start time (independent of dependencies).
    pub start_at: f64,
    /// Optional per-flow rate cap overriding the config default.
    pub rate_cap: Option<f64>,
    /// Opaque tag for the caller to correlate results.
    pub tag: u64,
}

impl TransferSpec {
    /// A plain transfer with no dependencies.
    pub fn new(src: u32, dst: u32, bytes: u64, route: Vec<ResourceId>) -> TransferSpec {
        TransferSpec {
            src,
            dst,
            bytes,
            route,
            deps: Vec::new(),
            extra_delay: 0.0,
            start_at: 0.0,
            rate_cap: None,
            tag: 0,
        }
    }

    /// Set dependencies (builder style).
    pub fn after(mut self, deps: Vec<TransferId>) -> TransferSpec {
        self.deps = deps;
        self
    }

    /// Set the extra post-dependency delay (builder style).
    pub fn with_delay(mut self, d: f64) -> TransferSpec {
        self.extra_delay = d;
        self
    }

    /// Set the earliest start time (builder style).
    pub fn not_before(mut self, t: f64) -> TransferSpec {
        self.start_at = t;
        self
    }

    /// Set the tag (builder style).
    pub fn with_tag(mut self, tag: u64) -> TransferSpec {
        self.tag = tag;
        self
    }

    /// Set a per-flow rate cap (builder style).
    pub fn with_rate_cap(mut self, cap: f64) -> TransferSpec {
        self.rate_cap = Some(cap);
        self
    }
}

/// A DAG of transfers.
#[derive(Debug, Clone, Default)]
pub struct TransferGraph {
    specs: Vec<TransferSpec>,
}

impl TransferGraph {
    pub fn new() -> TransferGraph {
        TransferGraph::default()
    }

    /// Add a transfer; returns its id. Dependencies must refer to transfers
    /// already added (ids are handed out in insertion order), which makes
    /// cycles unrepresentable.
    ///
    /// # Panics
    /// Panics if a dependency id is not yet in the graph, or if
    /// `extra_delay`/`start_at` are negative or non-finite.
    pub fn add(&mut self, spec: TransferSpec) -> TransferId {
        let id = TransferId(self.specs.len() as u32);
        for d in &spec.deps {
            assert!(
                d.0 < id.0,
                "dependency {d} of {id} must be added before it (forward references would allow cycles)"
            );
        }
        assert!(
            spec.extra_delay.is_finite() && spec.extra_delay >= 0.0,
            "extra_delay must be finite and non-negative"
        );
        assert!(
            spec.start_at.is_finite() && spec.start_at >= 0.0,
            "start_at must be finite and non-negative"
        );
        if let Some(cap) = spec.rate_cap {
            assert!(cap > 0.0, "rate cap must be positive");
        }
        self.specs.push(spec);
        id
    }

    /// Number of transfers in the graph.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The transfers, indexable by [`TransferId::index`].
    pub fn specs(&self) -> &[TransferSpec] {
        &self.specs
    }

    /// Total payload bytes over all transfers.
    pub fn total_bytes(&self) -> u64 {
        self.specs.iter().map(|s| s.bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(src: u32, dst: u32) -> TransferSpec {
        TransferSpec::new(src, dst, 1024, vec![ResourceId(0)])
    }

    #[test]
    fn ids_are_insertion_ordered() {
        let mut g = TransferGraph::new();
        assert_eq!(g.add(spec(0, 1)), TransferId(0));
        assert_eq!(g.add(spec(1, 2)), TransferId(1));
        assert_eq!(g.len(), 2);
        assert_eq!(g.total_bytes(), 2048);
    }

    #[test]
    fn dependencies_must_exist() {
        let mut g = TransferGraph::new();
        let a = g.add(spec(0, 1));
        let b = g.add(spec(1, 2).after(vec![a]));
        assert_eq!(g.specs()[b.index()].deps, vec![a]);
    }

    #[test]
    #[should_panic(expected = "must be added before")]
    fn forward_dependency_panics() {
        let mut g = TransferGraph::new();
        g.add(spec(0, 1).after(vec![TransferId(5)]));
    }

    #[test]
    #[should_panic(expected = "extra_delay")]
    fn negative_delay_panics() {
        let mut g = TransferGraph::new();
        g.add(spec(0, 1).with_delay(-1.0));
    }

    #[test]
    fn builder_setters() {
        let s = spec(0, 1)
            .with_delay(0.5)
            .not_before(1.0)
            .with_tag(42)
            .with_rate_cap(1e9);
        assert_eq!(s.extra_delay, 0.5);
        assert_eq!(s.start_at, 1.0);
        assert_eq!(s.tag, 42);
        assert_eq!(s.rate_cap, Some(1e9));
    }
}
