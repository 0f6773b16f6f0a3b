//! Micro-benchmark: allocation pressure — cycle cost when every input VC
//! of a router has a head contending for few outputs (worst case for the
//! separable batch allocator), measured across arbiter policies, plus the
//! saturated-ADVc steady state the route-decision cache targets (blocked
//! adaptive heads everywhere — the allocate-phase hotspot).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use df_engine::{ArbiterPolicy, EngineConfig, Network, NullSink, RoutingPolicy};
use df_routing::MechanismSpec;
use df_topology::{Arrangement, DragonflyParams, NodeId, Topology};
use df_traffic::{AdvConsecutive, Traffic};

type Net = Network<Box<dyn RoutingPolicy + Send>, NullSink>;

/// An idle small (342-node) network under `mechanism` and `arbiter`, on
/// `shards` shards.
fn small_network(mechanism: MechanismSpec, arbiter: ArbiterPolicy, shards: u32) -> Net {
    let topo = Topology::new(DragonflyParams::small(), Arrangement::Palmtree);
    let cfg = EngineConfig::paper(arbiter, 3);
    let policy = mechanism.build(topo.clone(), &cfg, 5);
    Network::new(topo, cfg, policy, NullSink, shards)
}

/// Build a single-group-bottleneck hotspot: all nodes of group 0 send to
/// the same remote group, saturating the one exit link and keeping every
/// allocator in group 0 busy arbitrating.
fn hotspot_network(arbiter: ArbiterPolicy) -> Net {
    let mut net = small_network(MechanismSpec::Min, arbiter, 1);
    let params = *net.topology().params();
    let per_group = params.a * params.p;
    for round in 0..40u32 {
        for n in 0..per_group {
            let dst = per_group + (n + round) % per_group; // group 0 → group 1
            net.offer(NodeId(n), NodeId(dst));
        }
        net.step();
    }
    net
}

/// The tentpole workload of the route-decision cache: the whole small
/// network saturated under ADVc with in-transit adaptive routing, so
/// every group's exit link is a standing bottleneck and nearly all VC
/// heads are blocked adaptive decisions. Steady state is reached during
/// warm-up; the measured body is one loaded network cycle.
fn saturated_advc_network() -> (Net, AdvConsecutive) {
    let mut net =
        small_network(MechanismSpec::InTransitMm, ArbiterPolicy::TransitPriority, 1);
    let params = *net.topology().params();
    let mut pattern = AdvConsecutive::new(params, 11);
    for round in 0..2_000u32 {
        offer_advc_round(&mut net, &mut pattern, params.nodes(), round);
        net.step();
    }
    (net, pattern)
}

/// Offer ~40% of nodes (deterministic stride, rotating phase) one ADVc
/// packet each — the saturating load of the acceptance benchmark.
fn offer_advc_round(net: &mut Net, pattern: &mut AdvConsecutive, nodes: u32, round: u32) {
    for n in 0..nodes {
        if (n + round) % 5 < 2 {
            let src = NodeId(n);
            net.offer(src, pattern.dest(src));
        }
    }
}

fn bench_allocator(c: &mut Criterion) {
    let mut group = c.benchmark_group("allocator");
    group.bench_with_input(
        BenchmarkId::new("saturated_advc_cycle", "in_transit_mm"),
        &(),
        |b, _| {
            let (mut net, mut pattern) = saturated_advc_network();
            let nodes = net.topology().params().nodes();
            let mut round = 2_000u32;
            b.iter(|| {
                round = round.wrapping_add(1);
                offer_advc_round(&mut net, &mut pattern, nodes, round);
                net.step()
            })
        },
    );

    for (arbiter, name) in [
        (ArbiterPolicy::RoundRobin, "round_robin"),
        (ArbiterPolicy::TransitPriority, "transit_priority"),
        (ArbiterPolicy::AgeBased, "age_based"),
    ] {
        group.bench_with_input(BenchmarkId::new("hotspot_cycle", name), &arbiter, |b, &arb| {
            let mut net = hotspot_network(arb);
            let params = *net.topology().params();
            let per_group = params.a * params.p;
            let mut round = 0u32;
            b.iter(|| {
                round = round.wrapping_add(1);
                for n in 0..per_group {
                    net.offer(NodeId(n), NodeId(per_group + (n + round) % per_group));
                }
                net.step()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_allocator);
criterion_main!(benches);
