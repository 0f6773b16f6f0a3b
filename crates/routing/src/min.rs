//! Minimal (MIN) oblivious routing: always the shortest path
//! `local → global → local`.

use crate::common::{current_target, make_decision, minimal_out, normalize_route_state, VcPlan};
use df_engine::{Decision, EngineConfig, PacketHeader, RouteInfo, RouterState, RoutingPolicy};
use df_topology::{Port, Topology};

/// Minimal routing. The reference for UN traffic; caps throughput at
/// `1/(a·p)` under ADV+1 and `h/(a·p)` under ADVc.
pub struct MinRouting {
    topo: Topology,
    plan: VcPlan,
}

impl MinRouting {
    /// Build for `topo` under `cfg`'s VC widths.
    pub fn new(topo: Topology, cfg: &EngineConfig) -> Self {
        Self { plan: VcPlan::from_config(cfg), topo }
    }
}

impl RoutingPolicy for MinRouting {
    fn route(
        &mut self,
        router: &RouterState,
        _in_port: Port,
        hdr: PacketHeader,
        info: RouteInfo,
    ) -> Decision {
        let info = normalize_route_state(&self.topo, router.id(), info);
        let target = current_target(hdr.dst, &info);
        let out = minimal_out(&self.topo, router.id(), target);
        make_decision(&self.topo, out, info, &self.plan)
    }

    fn name(&self) -> &'static str {
        "MIN"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_engine::{ArbiterPolicy, Network, NullSink};
    use df_topology::{Arrangement, DragonflyParams, NodeId};

    fn build() -> Network<MinRouting, NullSink> {
        let topo = Topology::new(DragonflyParams::figure1(), Arrangement::Palmtree);
        let cfg = EngineConfig::paper(ArbiterPolicy::RoundRobin, 3);
        let policy = MinRouting::new(topo.clone(), &cfg);
        Network::new(topo, cfg, policy, NullSink, 1)
    }

    #[test]
    fn delivers_across_the_machine() {
        let mut net = build();
        let nodes = net.topology().params().nodes();
        for n in 0..nodes {
            net.offer(NodeId(n), NodeId((n + 17) % nodes));
        }
        assert!(net.drain(20_000));
        assert_eq!(net.counters().delivered_packets as u32, nodes);
    }

    #[test]
    fn min_latency_is_exact_on_idle_network() {
        let topo = Topology::new(DragonflyParams::figure1(), Arrangement::Palmtree);
        let cfg = EngineConfig::paper(ArbiterPolicy::RoundRobin, 3);
        let policy = MinRouting::new(topo.clone(), &cfg);
        let recs = std::cell::RefCell::new(Vec::new());
        {
            let sink = |r: &df_engine::DeliveredRecord| recs.borrow_mut().push(*r);
            let mut net = Network::new(topo, cfg, policy, sink, 1);
            net.offer(NodeId(0), NodeId(40));
            assert!(net.drain(5_000));
        }
        let r = recs.into_inner()[0];
        assert_eq!(r.misroute_latency(), 0);
        assert_eq!(r.waits.total(), 0);
    }
}
