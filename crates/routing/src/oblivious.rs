//! Oblivious non-minimal (Valiant) routing with the RRG / CRG global
//! misrouting policies (§II-C).
//!
//! * **Obl-RRG** — classic Valiant: a uniformly random intermediate node
//!   anywhere in the network, giving paths up to `lgl-lgl` (six hops).
//! * **Obl-CRG** — the intermediate node is restricted to groups directly
//!   connected to the *source router*, saving the frequent first local
//!   hop: paths are `g l - l g l`.

use crate::common::{current_target, make_decision, minimal_out, normalize_route_state, VcPlan};
use df_engine::{
    Decision, EngineConfig, PacketHeader, Phase, RouteInfo, RouterState, RoutingPolicy,
};
use df_topology::{NodeId, Port, PortKind, PortLayout, Topology};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Intermediate-selection flavour for oblivious Valiant routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObliviousFlavor {
    /// Random intermediate node anywhere (Valiant / RRG).
    Rrg,
    /// Intermediate node in a group directly connected to the source
    /// router (CRG).
    Crg,
}

/// Oblivious Valiant routing.
pub struct Oblivious {
    topo: Topology,
    plan: VcPlan,
    flavor: ObliviousFlavor,
    rng: SmallRng,
}

impl Oblivious {
    /// Build for `topo` under `cfg`, with deterministic `seed`.
    pub fn new(topo: Topology, cfg: &EngineConfig, flavor: ObliviousFlavor, seed: u64) -> Self {
        Self { plan: VcPlan::from_config(cfg), topo, flavor, rng: SmallRng::seed_from_u64(seed) }
    }

    /// Pick the Valiant intermediate node for a packet injected at `src`.
    fn pick_intermediate(&mut self, src: NodeId) -> NodeId {
        let params = *self.topo.params();
        match self.flavor {
            ObliviousFlavor::Rrg => {
                // Redraw while the intermediate falls in the source group:
                // a same-group intermediate would reuse local VC stage 0
                // after the turnaround, which the deadlock-freedom argument
                // of `vc_for` forbids (and it is a useless detour anyway).
                let sg = src.group(&params);
                loop {
                    let n = NodeId(self.rng.gen_range(0..params.nodes()));
                    if n.group(&params) != sg {
                        break n;
                    }
                }
            }
            ObliviousFlavor::Crg => {
                let src_router = src.router(&params);
                let j = self.rng.gen_range(0..params.h);
                let group = self.topo.global_port_target_group(src_router, j);
                let per_group = params.a * params.p;
                NodeId(group.0 * per_group + self.rng.gen_range(0..per_group))
            }
        }
    }
}

impl RoutingPolicy for Oblivious {
    fn route(
        &mut self,
        router: &RouterState,
        in_port: Port,
        hdr: PacketHeader,
        info: RouteInfo,
    ) -> Decision {
        let params = *self.topo.params();
        let mut info = normalize_route_state(&self.topo, router.id(), info);
        // One-time Valiant decision at injection. Intra-group traffic is
        // sent minimally: its minimal path shares no global link.
        if !info.source_decided {
            debug_assert_eq!(params.port_kind(in_port), PortKind::Injection);
            info.source_decided = true;
            if hdr.dst.group(&params) != hdr.src.group(&params) {
                let inter = self.pick_intermediate(hdr.src);
                if inter.router(&params) != router.id() {
                    info.intermediate = Some(inter);
                    info.phase = Phase::ToIntermediate;
                }
            }
        }
        let target = current_target(hdr.dst, &info);
        let out = minimal_out(&self.topo, router.id(), target);
        make_decision(&self.topo, out, info, &self.plan)
    }

    fn name(&self) -> &'static str {
        match self.flavor {
            ObliviousFlavor::Rrg => "Obl-RRG",
            ObliviousFlavor::Crg => "Obl-CRG",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use df_engine::{ArbiterPolicy, DeliveredRecord, Network};
    use df_topology::{Arrangement, DragonflyParams};

    fn run(flavor: ObliviousFlavor) -> Vec<DeliveredRecord> {
        let topo = Topology::new(DragonflyParams::figure1(), Arrangement::Palmtree);
        let cfg = EngineConfig::paper(ArbiterPolicy::RoundRobin, 4);
        let policy = Oblivious::new(topo.clone(), &cfg, flavor, 7);
        let recs = std::cell::RefCell::new(Vec::new());
        {
            let sink = |r: &DeliveredRecord| recs.borrow_mut().push(*r);
            let mut net = Network::new(topo, cfg, policy, sink, 1);
            let nodes = net.topology().params().nodes();
            for n in 0..nodes {
                net.offer(NodeId(n), NodeId((n + 8) % nodes)); // ADV+1-ish
            }
            assert!(net.drain(60_000), "oblivious network must drain");
        }
        recs.into_inner()
    }

    #[test]
    fn rrg_delivers_everything() {
        let recs = run(ObliviousFlavor::Rrg);
        assert_eq!(recs.len(), 72);
    }

    #[test]
    fn crg_delivers_everything() {
        let recs = run(ObliviousFlavor::Crg);
        assert_eq!(recs.len(), 72);
    }

    #[test]
    fn rrg_paths_bounded_by_valiant_shape() {
        for r in run(ObliviousFlavor::Rrg) {
            assert!(r.local_hops <= 4, "lgl-lgl allows at most 4 local hops: {r:?}");
            assert!(r.global_hops <= 2, "lgl-lgl allows at most 2 global hops: {r:?}");
        }
    }

    #[test]
    fn crg_saves_first_local_hop() {
        // CRG paths are g l - l g l: at most 3 local hops.
        for r in run(ObliviousFlavor::Crg) {
            assert!(r.local_hops <= 3, "CRG path shape violated: {r:?}");
            assert!(r.global_hops <= 2);
        }
    }

    #[test]
    fn misrouting_latency_present_for_cross_group() {
        // Valiant over cross-group traffic takes non-minimal paths for
        // nearly every packet (the intermediate rarely sits on the
        // minimal path).
        let recs = run(ObliviousFlavor::Rrg);
        let misrouted = recs.iter().filter(|r| r.misroute_latency() > 0).count();
        assert!(misrouted * 10 > recs.len() * 7, "only {misrouted} misrouted");
    }

    #[test]
    fn intra_group_traffic_stays_minimal() {
        let topo = Topology::new(DragonflyParams::figure1(), Arrangement::Palmtree);
        let cfg = EngineConfig::paper(ArbiterPolicy::RoundRobin, 4);
        let policy = Oblivious::new(topo.clone(), &cfg, ObliviousFlavor::Rrg, 3);
        let recs = std::cell::RefCell::new(Vec::new());
        {
            let sink = |r: &DeliveredRecord| recs.borrow_mut().push(*r);
            let mut net = Network::new(topo, cfg, policy, sink, 1);
            net.offer(NodeId(0), NodeId(6)); // same group (p=2, a=4)
            assert!(net.drain(5_000));
        }
        let r = recs.into_inner()[0];
        assert_eq!(r.misroute_latency(), 0);
        assert_eq!(r.global_hops, 0);
    }
}
