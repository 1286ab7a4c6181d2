//! # sdm-core
//!
//! The primary contribution of *"Improving Data Movement Performance for
//! Sparse Data Patterns on the Blue Gene/Q Supercomputer"* (Bui, Leigh,
//! Jung, Vishwanath, Papka — ICPP 2014), implemented over the simulated
//! BG/Q substrate (`bgq-torus` + `bgq-netsim` + `bgq-comm`):
//!
//! * [`model`] — the analytical cost model of §IV.B (Eqs. 1–5): direct vs.
//!   proxied transfer times, the k/2 asymptotic speedup, the ≥3-proxy rule
//!   and the message-size threshold;
//! * [`proxy`] — Algorithm 1: distributed selection of link-disjoint proxy
//!   locations in the `2L` torus directions, for node pairs and for
//!   coupled groups;
//! * [`multipath`] — Algorithm 1 part III: multipath transfer plans
//!   (store-and-forward, plus the §VII pipelined variant);
//! * [`aggregator`] — Algorithm 2: precomputed uniform aggregator
//!   placements per pset and dynamic `T / S / n_io` selection, with
//!   ION-load-balancing data assignment;
//! * [`io_move`] — the sparse collective-write plan (nodes → aggregators →
//!   bridge nodes → I/O nodes);
//! * [`planner`] — the [`SparseMover`] facade that makes the
//!   direct-vs-multipath decision automatically;
//! * [`exchange`] — the many-pair consumer: [`NeighborhoodExchange`]
//!   lowers a sparse send map under direct / consensus / proxy-multipath
//!   algorithms, with a link-claim ledger keeping concurrent pairs'
//!   proxy paths disjoint across the whole batch.
//!
//! ## Quick example
//!
//! ```
//! use bgq_comm::{Machine, Program};
//! use bgq_netsim::SimConfig;
//! use bgq_torus::{standard_shape, NodeId};
//! use sdm_core::{PlanRequest, SparseMover};
//!
//! let machine = Machine::new(standard_shape(128).unwrap(), SimConfig::default());
//! let mover = SparseMover::new(&machine);
//! let mut prog = Program::new(&machine);
//! let outcome = mover
//!     .plan(&mut prog, PlanRequest::new(NodeId(0), NodeId(127), 32 << 20))
//!     .unwrap();
//! let report = prog.run();
//! println!(
//!     "{:?}: {:.2} GB/s",
//!     outcome.decision,
//!     outcome.handle.throughput(&report) / 1e9
//! );
//! ```

pub mod aggregator;
pub mod analysis;
pub mod error;
pub mod exchange;
pub mod io_move;
pub mod model;
pub mod multipath;
pub mod planner;
pub mod proxy;
pub mod setup;

pub use analysis::{
    diversity_report, diversity_upper_bound, max_disjoint_proxy_paths, DiversityReport,
};
pub use aggregator::{
    aggregator_loads, assign_data, block_factors, pset_box, try_aggregator_loads,
    try_assign_data, AggregatorTable, AssignPolicy, Assignment, AGG_COUNTS,
    DEFAULT_MIN_AGG_BYTES,
};
pub use error::SdmError;
pub use exchange::{
    ExchangeAlgorithm, ExchangePlan, LinkClaimLedger, NeighborhoodExchange, PairRoute,
    PlannedPair,
};
pub use io_move::{
    plan_topology_aware_read, plan_topology_aware_write, route_chunks_to_ions, IoMoveOptions,
    IoMovePlan,
};
pub use model::CostModel;
pub use multipath::{
    plan_direct, plan_direct_dynamic, plan_group_direct, plan_group_via, plan_via_proxies,
    split_chunks, MultipathOptions, TransferHandle,
};
pub use setup::{
    add_coupling_setup, coupling_init_cost, proxy_search_cost_model, COORD_BYTES,
};
pub use planner::{
    Decision, DirectReason, PlanOutcome, PlanPolicy, PlanRequest, SparseMover,
};
pub use proxy::{
    displace_group, find_proxies, find_proxies_constrained, find_proxy_groups,
    proxy_groups_along, ProxyGroup, ProxyPath, ProxySearchConfig, ProxySelection,
    RejectReason, SearchStats,
};
