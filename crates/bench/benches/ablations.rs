//! Ablation benches for the design choices DESIGN.md calls out:
//! store-and-forward vs. pipelined forwarding, proxy count, aggregator
//! assignment policy, and routing zone. Each bench runs the full plan +
//! simulation so the cost of richer plans (more transfers, more events)
//! is visible; the *simulated* outcomes of the same ablations are printed
//! by the `fig7`/`fig10` binaries and the `ablation_policy_point_with` helper.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use bgq_bench::{ablation_policy_point_with, Pattern, PlanCache};
use bgq_comm::{Machine, Program};
use bgq_netsim::SimConfig;
use bgq_torus::{standard_shape, NodeId, Zone};
use sdm_core::{find_proxies, plan_via_proxies, MultipathOptions, ProxySearchConfig};
use std::collections::HashSet;

fn proxies(machine: &Machine, k: usize) -> Vec<NodeId> {
    find_proxies(
        machine.shape(),
        machine.zone(),
        NodeId(0),
        NodeId(127),
        &HashSet::new(),
        &ProxySearchConfig {
            min_proxies: 1,
            max_proxies: k,
            ..Default::default()
        },
    )
    .proxies()
}

fn ablation_proxy_count(c: &mut Criterion) {
    let machine = Machine::new(standard_shape(128).unwrap(), SimConfig::default());
    let mut g = c.benchmark_group("proxy_count");
    for k in [1usize, 2, 3, 4] {
        let px = proxies(&machine, k);
        g.bench_with_input(BenchmarkId::from_parameter(k), &px, |b, px| {
            b.iter(|| {
                let mut p = Program::new(&machine);
                let h = plan_via_proxies(
                    &mut p,
                    NodeId(0),
                    NodeId(127),
                    8 << 20,
                    px,
                    &MultipathOptions::default(),
                );
                h.completed_at(&p.run())
            })
        });
    }
    g.finish();
}

fn ablation_pipelining(c: &mut Criterion) {
    let machine = Machine::new(standard_shape(128).unwrap(), SimConfig::default());
    let px = proxies(&machine, 4);
    let mut g = c.benchmark_group("forwarding");
    for (label, opts) in [
        ("store_and_forward", MultipathOptions::default()),
        (
            "pipelined_1MB",
            MultipathOptions {
                pipeline_chunk: Some(1 << 20),
                ..Default::default()
            },
        ),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut p = Program::new(&machine);
                let h =
                    plan_via_proxies(&mut p, NodeId(0), NodeId(127), 16 << 20, &px, &opts);
                h.completed_at(&p.run())
            })
        });
    }
    g.finish();
}

fn ablation_zone(c: &mut Criterion) {
    let mut g = c.benchmark_group("routing_zone");
    for zone in [Zone::Z2, Zone::Z3] {
        let machine =
            Machine::new(standard_shape(128).unwrap(), SimConfig::default()).with_zone(zone);
        g.bench_function(format!("{zone:?}"), |b| {
            b.iter(|| {
                let mut p = Program::new(&machine);
                let h = sdm_core::plan_direct(&mut p, NodeId(0), NodeId(127), 8 << 20);
                h.completed_at(&p.run())
            })
        });
    }
    g.finish();
}

fn ablation_assignment_policy(c: &mut Criterion) {
    // Full pattern-2 aggregation at the smallest paper scale under both
    // assignment policies (plan + simulate).
    let mut g = c.benchmark_group("aggregation_policy");
    g.sample_size(10);
    g.bench_function("balanced_vs_local_2048_cores", |b| {
        b.iter(|| ablation_policy_point_with(&PlanCache::new(), 2048, Pattern::Pareto, 7))
    });
    g.finish();
}

criterion_group!(
    benches,
    ablation_proxy_count,
    ablation_pipelining,
    ablation_zone,
    ablation_assignment_policy
);
criterion_main!(benches);
