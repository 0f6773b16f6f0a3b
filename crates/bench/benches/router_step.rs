//! Micro-benchmark: full-network cycle cost at idle and under load
//! (the simulator's inner loop).

use criterion::{criterion_group, criterion_main, Criterion};
use df_engine::{ArbiterPolicy, EngineConfig, Network, NullSink, RoutingPolicy};
use df_routing::MechanismSpec;
use df_topology::{Arrangement, DragonflyParams, NodeId, Topology};

/// An in-transit MM network on `shards` shards, after `load_rounds`
/// cycles of offers from every node.
fn loaded_network(
    params: DragonflyParams,
    shards: u32,
    load_rounds: u32,
) -> Network<Box<dyn RoutingPolicy + Send>, NullSink> {
    let topo = Topology::new(params, Arrangement::Palmtree);
    let cfg = EngineConfig::paper(ArbiterPolicy::TransitPriority, 3);
    let policy = MechanismSpec::InTransitMm.build(topo.clone(), &cfg, 5);
    let mut net = Network::new(topo, cfg, policy, NullSink, shards);
    for round in 0..load_rounds {
        for n in 0..params.nodes() {
            let dst = (n + round * 37 + params.a * params.p) % params.nodes();
            net.offer(NodeId(n), NodeId(dst));
        }
        net.step();
    }
    net
}

fn bench_step(c: &mut Criterion) {
    let small = DragonflyParams::small();

    c.bench_function("engine/cycle_idle_342_nodes", |b| {
        let mut net = loaded_network(small, 1, 0);
        b.iter(|| net.step())
    });

    c.bench_function("engine/cycle_idle_5256_nodes", |b| {
        // The work-list-driven scheduler makes the idle cycle O(active
        // entities), so paper scale should idle nearly as cheaply as the
        // reduced network despite 15× the nodes.
        let mut net = loaded_network(DragonflyParams::paper(), 1, 0);
        b.iter(|| net.step())
    });

    c.bench_function("engine/cycle_loaded_342_nodes", |b| {
        let mut net = loaded_network(small, 1, 20);
        b.iter(|| {
            // Keep the network loaded while measuring.
            for n in (0..small.nodes()).step_by(9) {
                net.offer(NodeId(n), NodeId((n + 60) % small.nodes()));
            }
            net.step()
        })
    });

    c.bench_function("engine/cycle_loaded_5256_nodes", |b| {
        let paper = DragonflyParams::paper();
        let mut net = loaded_network(paper, 1, 5);
        b.iter(|| {
            for n in (0..paper.nodes()).step_by(17) {
                net.offer(NodeId(n), NodeId((n + 433) % paper.nodes()));
            }
            net.step()
        })
    });

    c.bench_function("engine/router_step_sharded_5256", |b| {
        // The same loaded cycle as engine/cycle_loaded_5256_nodes on two
        // shards: the delta prices group slicing, pool dispatch and the
        // cross-shard barrier against whatever speed-up the one helper
        // thread brings. With no spare core (or an exhausted helper
        // budget) both shards run inline on the bench thread, and the
        // delta is pure overhead. bench_trend's 1 µs noise floor keeps
        // it reported but non-gating when it sits in scheduler-jitter
        // territory.
        let paper = DragonflyParams::paper();
        let mut net = loaded_network(paper, 2, 5);
        b.iter(|| {
            for n in (0..paper.nodes()).step_by(17) {
                net.offer(NodeId(n), NodeId((n + 433) % paper.nodes()));
            }
            net.step()
        })
    });
}

criterion_group!(benches, bench_step);
criterion_main!(benches);
