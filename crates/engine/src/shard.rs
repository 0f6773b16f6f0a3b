//! One shard of a [`Network`](crate::Network): the routers, nodes, event
//! wheel and packet arena of a contiguous range of groups, and the cycle
//! phases that run over them (event delivery → policy hook → injection →
//! allocation → output).
//!
//! The only shard of a one-shard network owns the whole topology. A
//! shard of a larger plan owns the routers and nodes of its group range:
//! `routers[0]` is global router `router_base`, and every per-router /
//! per-node array (work lists, counters, wiring cache) is indexed by the
//! *local* offset. Events and wiring targets always carry **global** ids;
//! the boundary between the two spaces is the `local_router` /
//! `local_node` helpers. Traffic towards routers the shard does not own
//! is staged in its [`ShardOutbox`] and delivered by the network at the
//! cycle barrier. A shard holds neither the routing policy nor the stats
//! sink: the network passes its one policy into the sequential phases
//! and drains each shard's delivered records into its sink at the
//! barrier.
//!
//! Packets live in a structure-of-arrays [`PacketArena`]; every queue and
//! link event carries a `u32` [`PacketId`] handle, so the steady-state hot
//! path performs no per-packet heap allocation and the allocator's
//! per-candidate probe touches only the hot `eligible_at`/`decision`
//! lanes. Scheduling is **work-list driven**: the shard maintains
//! bitsets of nodes with queued packets, routers with resident input
//! packets, and routers with staged output packets, so the inject /
//! allocate / transmit phases iterate only over entities that can make
//! progress this cycle instead of scanning the whole slice (at paper
//! scale under ADVc most routers are idle most cycles). All work lists
//! are iterated in ascending index order, which keeps event-queue
//! insertion order — and therefore same-seed results — bit-identical to
//! the full scans they replace. The allocator additionally consults
//! per-port ready-VC bitmasks and per-router ready-output masks, and the
//! shard tracks which routers' global-link queues changed each cycle so
//! policies like PiggyBack can refresh their congestion view
//! incrementally (see [`CycleCtx`]).

use crate::arena::{PacketArena, PacketId};
use crate::buffer::Staged;
use crate::config::{ArbiterPolicy, EngineConfig};
use crate::events::{Event, EventWheel};
use crate::network::Counters;
#[cfg(any(debug_assertions, feature = "shadow-verify"))]
use crate::packet::Decision;
use crate::packet::{DeliveredRecord, Packet, PacketSeq, RouteDep};
use crate::policy::{CycleCtx, RoutingPolicy};
use crate::router::RouterState;
use df_topology::{NodeId, Port, PortKind, PortLayout, PortTarget, RouterId, Topology};
use std::collections::VecDeque;
use std::ops::Range;

// ----------------------------------------------------------------------
// Work-list bitsets (u64 words, ascending-order iteration)
// ----------------------------------------------------------------------

/// Words needed for an `n`-bit set.
#[inline]
fn bitset_words(n: usize) -> usize {
    n.div_ceil(64)
}

#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i >> 6] |= 1 << (i & 63);
}

#[inline]
fn clear_bit(words: &mut [u64], i: usize) {
    words[i >> 6] &= !(1 << (i & 63));
}

#[inline]
fn get_bit(words: &[u64], i: usize) -> bool {
    words[i >> 6] & (1 << (i & 63)) != 0
}

/// Source-side state of a compute node.
#[derive(Debug)]
struct NodeState {
    /// Generated packets waiting to enter the router (bounded).
    queue: VecDeque<PacketId>,
    /// Credits towards the router's injection-port input buffer, per VC.
    credits: Vec<u32>,
    /// Round-robin pointer over injection VCs.
    vc_rr: u32,
    /// The node→router link is serializing until this cycle.
    link_free_at: u64,
}

/// Inline capacity of one output port's proposal list. Covers the whole
/// radix of the reduced-scale networks (figure1 radix 7, small radix 11)
/// and all non-pathological contention at paper scale (radix 23): spill
/// needs more than `PROPOSAL_INLINE` input ports to nominate the *same*
/// output in one allocation iteration.
const PROPOSAL_INLINE: usize = 16;

/// Fixed-capacity proposal list with a rarely-used heap spill, so the
/// allocator's per-output scratch stays inline (one cache line of
/// `(in_port, vc)` pairs) and never allocates in steady state.
#[derive(Debug, Default)]
struct ProposalList {
    inline: [(u32, u8); PROPOSAL_INLINE],
    len: u8,
    /// Overflow beyond `PROPOSAL_INLINE`, preserving push order.
    spill: Vec<(u32, u8)>,
}

impl ProposalList {
    #[inline]
    fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }

    #[inline]
    fn push(&mut self, entry: (u32, u8)) {
        if (self.len as usize) < PROPOSAL_INLINE {
            self.inline[self.len as usize] = entry;
            self.len += 1;
        } else {
            self.spill.push(entry);
        }
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Proposals in push order (inline segment, then spill).
    #[inline]
    fn iter(&self) -> impl Iterator<Item = &(u32, u8)> {
        self.inline[..self.len as usize].iter().chain(self.spill.iter())
    }
}

/// A credit return crossing a shard boundary (global links only).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RemoteCredit {
    /// Destination router (owned by another shard).
    pub router: RouterId,
    /// Destination port on that router.
    pub port: Port,
    /// Virtual channel the credit replenishes.
    pub vc: u8,
    /// Phits returned.
    pub phits: u32,
    /// Link latency — the delay the sender would have scheduled with.
    pub delay: u64,
}

/// A flit (whole packet, virtual cut-through) crossing a shard boundary.
#[derive(Debug, Clone)]
pub(crate) struct RemoteFlit {
    /// Destination router (owned by another shard).
    pub router: RouterId,
    /// Input port the packet arrives on.
    pub port: Port,
    /// Virtual channel it arrives on.
    pub vc: u8,
    /// Packet size in phits.
    pub size: u32,
    /// Link latency — the delay the sender would have scheduled with.
    pub delay: u64,
    /// The packet by value; the owner re-homes it into its arena.
    pub packet: Packet,
}

/// Per-shard staging area for cross-shard traffic, drained at the cycle
/// barrier. Push order within each vector is the sending phase's
/// deterministic ascending (router, port) order.
#[derive(Debug, Default)]
pub(crate) struct ShardOutbox {
    /// Credit returns from `commit_grant` (allocate phase).
    pub credits: Vec<RemoteCredit>,
    /// Transiting flits from `transmit_outputs` (transmit phase).
    pub flits: Vec<RemoteFlit>,
}

impl ShardOutbox {
    pub(crate) fn is_empty(&self) -> bool {
        self.credits.is_empty() && self.flits.is_empty()
    }
}

/// One shard's contiguous slice of a network (see the module docs).
pub(crate) struct Shard {
    topo: Topology,
    cfg: EngineConfig,
    routers: Vec<RouterState>,
    nodes: Vec<NodeState>,
    wheel: EventWheel,
    cycle: u64,
    /// Global id of `routers[0]`.
    router_base: u32,
    /// Global id of `nodes[0]` (always `router_base * p`, so local node
    /// index `r·p + slot` stays valid).
    node_base: u32,
    /// Cross-shard traffic staged for the network's cycle barrier.
    /// Always empty when the shard owns every router.
    outbox: ShardOutbox,
    /// Slab storing every in-flight packet.
    arena: PacketArena,
    /// This cycle's delivered-packet records in delivery order, drained
    /// into the network's sink at the barrier.
    records: Vec<DeliveredRecord>,
    counters: Counters,
    /// Packets accepted but not yet delivered.
    live_packets: u64,
    /// Wiring cache: target of every (router, port), row-major.
    peers: Vec<PortTarget>,
    /// Latency of the link behind every (router, port).
    latencies: Vec<u64>,
    /// Allocation scratch: proposals per output port, inline up to
    /// [`PROPOSAL_INLINE`] entries.
    proposals: Vec<ProposalList>,
    /// Allocation scratch, persistent across cycles so the hot loop does
    /// not allocate: remaining grant budget per input / output port.
    alloc_in_budget: Vec<u32>,
    alloc_out_budget: Vec<u32>,
    /// Allocation scratch: VCs already granted this cycle, flattened
    /// `[port * vc_stride + vc]`.
    alloc_vc_granted: Vec<bool>,
    /// Widest VC count any port class is configured with (flattening
    /// stride for `alloc_vc_granted`).
    vc_stride: usize,
    /// Routers whose global-link queues changed since the last
    /// `begin_cycle` (deduplicated via `global_dirty` flags).
    global_dirty_list: Vec<u32>,
    global_dirty: Vec<bool>,
    /// Work list: nodes with a non-empty source queue (bit set in
    /// `offer`, cleared when the injection phase drains the queue).
    node_active: Vec<u64>,
    /// Work list: routers with at least one resident input packet
    /// (maintained exactly on `push_input` / `pop_input`); the allocate
    /// phase visits only these.
    alloc_active: Vec<u64>,
    /// Work list: routers with at least one staged output packet; the
    /// transmit phase visits only these.
    tx_active: Vec<u64>,
    /// Delivery cycle of the most recent grant in this shard.
    last_progress: u64,
    /// Route-decision cache switch: when on (the default), adaptive
    /// decisions are reused while their recorded dependency is unchanged
    /// and blocked heads with stable decisions are parked until their
    /// target output port changes. When off, every blocked head is
    /// re-probed every cycle — the pre-cache behavior the equivalence
    /// tests compare against.
    route_cache: bool,
}

impl Shard {
    /// Build an idle shard owning `router_range` / `node_range`
    /// (contiguous, group-aligned). `cfg` is already validated.
    pub(crate) fn new(
        topo: Topology,
        cfg: EngineConfig,
        router_range: Range<u32>,
        node_range: Range<u32>,
    ) -> Self {
        let params = *topo.params();
        let radix = params.radix();
        // Group-aligned slices keep the local `router·p + slot` node
        // indexing of the fairness counters valid.
        debug_assert_eq!(node_range.start, router_range.start * params.p);
        debug_assert_eq!(node_range.end, router_range.end * params.p);
        let routers: Vec<RouterState> = router_range
            .clone()
            .map(|r| RouterState::new(RouterId(r), &params, &cfg))
            .collect();
        let nodes: Vec<NodeState> = node_range
            .clone()
            .map(|_| NodeState {
                queue: VecDeque::new(),
                credits: vec![cfg.injection_input_buffer; cfg.vcs_injection as usize],
                vc_rr: 0,
                link_free_at: 0,
            })
            .collect();
        let mut peers = Vec::with_capacity(routers.len() * radix as usize);
        let mut latencies = Vec::with_capacity(peers.capacity());
        for r in router_range.clone() {
            for q in 0..radix {
                let port = Port(q);
                peers.push(topo.port_target(RouterId(r), port));
                latencies.push(match params.port_kind(port) {
                    PortKind::Injection => cfg.injection_link_latency,
                    PortKind::Local => cfg.local_link_latency,
                    PortKind::Global => cfg.global_link_latency,
                });
            }
        }
        let wheel = EventWheel::new(cfg.max_event_delay());
        let n_routers = routers.len();
        let n_nodes = nodes.len();
        let vc_stride = cfg.vcs_injection.max(cfg.vcs_local).max(cfg.vcs_global) as usize;
        Self {
            topo,
            cfg,
            routers,
            nodes,
            wheel,
            cycle: 0,
            router_base: router_range.start,
            node_base: node_range.start,
            outbox: ShardOutbox::default(),
            arena: PacketArena::new(),
            records: Vec::new(),
            counters: Counters::new(n_routers, n_nodes),
            live_packets: 0,
            peers,
            latencies,
            proposals: (0..radix).map(|_| ProposalList::default()).collect(),
            alloc_in_budget: vec![0; radix as usize],
            alloc_out_budget: vec![0; radix as usize],
            alloc_vc_granted: vec![false; radix as usize * vc_stride],
            vc_stride,
            global_dirty_list: Vec::new(),
            global_dirty: vec![false; n_routers],
            node_active: vec![0; bitset_words(n_nodes)],
            alloc_active: vec![0; bitset_words(n_routers)],
            tx_active: vec![0; bitset_words(n_routers)],
            last_progress: 0,
            route_cache: true,
        }
    }

    /// Toggle the route-decision cache; disabling unparks every head.
    pub(crate) fn set_route_cache(&mut self, on: bool) {
        self.route_cache = on;
        if !on {
            for r in &mut self.routers {
                r.unpark_all();
            }
        }
    }

    /// This shard's counters since the last [`Self::reset_counters`]
    /// (per-router / per-node vectors indexed locally).
    #[inline]
    pub(crate) fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Zero the measurement counters (start of the measurement window).
    pub(crate) fn reset_counters(&mut self) {
        self.counters = Counters::new(self.routers.len(), self.nodes.len());
    }

    /// Local index of a (globally identified) owned router.
    #[inline]
    fn local_router(&self, r: RouterId) -> usize {
        debug_assert!(self.owns_router(r), "router {} not owned by this shard", r.0);
        (r.0 - self.router_base) as usize
    }

    /// Local index of a (globally identified) owned node.
    #[inline]
    fn local_node(&self, n: NodeId) -> usize {
        let local = n.0.wrapping_sub(self.node_base) as usize;
        debug_assert!(local < self.nodes.len(), "node {} not owned by this shard", n.0);
        local
    }

    /// Whether this shard owns `r`.
    #[inline]
    fn owns_router(&self, r: RouterId) -> bool {
        (r.0.wrapping_sub(self.router_base) as usize) < self.routers.len()
    }

    /// Packets accepted but not yet delivered (or handed to another
    /// shard).
    #[inline]
    pub(crate) fn in_flight(&self) -> u64 {
        self.live_packets
    }

    /// Packets currently resident in the arena.
    #[inline]
    pub(crate) fn arena_live(&self) -> usize {
        self.arena.live()
    }

    /// Arena slots ever allocated (the peak in-flight population).
    #[inline]
    pub(crate) fn arena_capacity(&self) -> usize {
        self.arena.capacity()
    }

    /// Joined snapshot of the packet behind a handle of this shard.
    #[inline]
    pub(crate) fn packet(&self, id: PacketId) -> Packet {
        self.arena.snapshot(id)
    }

    /// Events (packets and credits) currently traversing links.
    #[inline]
    pub(crate) fn events_pending(&self) -> usize {
        self.wheel.pending()
    }

    /// Read access to an owned router's state.
    #[inline]
    pub(crate) fn router(&self, id: RouterId) -> &RouterState {
        &self.routers[self.local_router(id)]
    }

    /// Ready, unparked input-VC heads across this shard's routers.
    pub(crate) fn probe_ready_total(&self) -> u64 {
        self.routers.iter().map(|r| r.probe_ready() as u64).sum()
    }

    /// Sum of every output port's epoch counter across this shard.
    pub(crate) fn port_epoch_sum(&self) -> u64 {
        let radix = self.topo.params().radix() as usize;
        self.routers
            .iter()
            .map(|r| {
                (0..radix).map(|p| r.port_epoch(Port(p as u32)) as u64).sum::<u64>()
            })
            .sum()
    }

    /// Delivery cycle of the most recent grant in this shard.
    pub(crate) fn last_progress(&self) -> u64 {
        self.last_progress
    }

    /// Offer a packet generated at owned node `src` towards `dst` under
    /// the network-wide sequence number `seq`. Returns `false` (and
    /// drops it) if the source queue is full; the offer is still counted
    /// as offered load.
    pub(crate) fn offer(&mut self, src: NodeId, dst: NodeId, seq: PacketSeq) -> bool {
        self.counters.offered_packets += 1;
        let n = self.local_node(src);
        if self.nodes[n].queue.len() >= self.cfg.max_node_queue {
            return false;
        }
        let group = src.group(self.topo.params());
        // The earliest the node can act on this packet is the next cycle,
        // so that is its generation timestamp.
        let gen = self.cycle + 1;
        let id = self
            .arena
            .insert(Packet::new(seq, src, dst, self.cfg.packet_size, gen, group));
        self.nodes[n].queue.push_back(id);
        set_bit(&mut self.node_active, n);
        self.counters.accepted_packets += 1;
        self.live_packets += 1;
        true
    }

    /// Take the staged cross-shard traffic (leaves the outbox empty).
    pub(crate) fn take_outbox(&mut self) -> ShardOutbox {
        std::mem::take(&mut self.outbox)
    }

    /// Hand this cycle's delivered records over, in delivery order.
    pub(crate) fn drain_records(&mut self) -> std::vec::Drain<'_, DeliveredRecord> {
        self.records.drain(..)
    }

    /// Deliver a credit return that crossed the shard boundary. Called at
    /// the cycle barrier, when the local wheel sits at the same cycle the
    /// sender's did when it would have scheduled the event — so the delay
    /// lands it in exactly the slot a one-shard network uses.
    pub(crate) fn accept_remote_credit(&mut self, c: RemoteCredit) {
        debug_assert!(self.owns_router(c.router));
        self.wheel.schedule(
            c.delay,
            Event::Credit { router: c.router, port: c.port, vc: c.vc, phits: c.phits },
        );
    }

    /// Deliver a flit that crossed the shard boundary: re-home the packet
    /// into the local arena and schedule its arrival. The arena insert
    /// preserves everything behavior-visible (header with its global
    /// sequence id, route state, waits, traversal, eligibility); only the
    /// `PacketId` handle is shard-local, and handles never appear in
    /// results.
    pub(crate) fn accept_remote_flit(&mut self, f: RemoteFlit) {
        debug_assert!(self.owns_router(f.router));
        let id = self.arena.insert(f.packet);
        self.live_packets += 1;
        self.wheel.schedule(
            f.delay,
            Event::ArriveRouter { router: f.router, port: f.port, vc: f.vc, pkt: id, size: f.size },
        );
    }

    // ------------------------------------------------------------------
    // Cycle phases, in the order `Network`'s cycle body runs them:
    // `begin_cycle; deliver_events; run_policy_begin; inject_from_nodes;
    // allocate_all; transmit_all`. The shard-local ones run on the
    // network's pool; the two that take the policy run shard by shard.
    // ------------------------------------------------------------------

    /// Advance the local cycle counter (start of a cycle).
    pub(crate) fn begin_cycle(&mut self) {
        self.cycle += 1;
        self.counters.cycles += 1;
    }

    /// Run the policy's per-cycle hook and retire the dirty-router list.
    /// The context's router slice and dirty indices are both local to
    /// this shard; policies index their own tables by `RouterState::id`,
    /// which stays global, so partitioned calls across shards are
    /// equivalent to one whole-network call.
    pub(crate) fn run_policy_begin<P: RoutingPolicy>(&mut self, policy: &mut P) {
        policy.begin_cycle(&CycleCtx {
            routers: &self.routers,
            cycle: self.cycle,
            dirty_global: &self.global_dirty_list,
        });
        for &r in &self.global_dirty_list {
            self.global_dirty[r as usize] = false;
        }
        self.global_dirty_list.clear();
    }

    /// Allocate phase over the active-router work list (ascending order —
    /// identical side-effect order to a full `0..routers` scan, which
    /// only no-ops on the skipped routers).
    pub(crate) fn allocate_all<P: RoutingPolicy>(&mut self, policy: &mut P) {
        for w in 0..self.alloc_active.len() {
            // Snapshot the word: `commit_grant` may clear the current
            // router's bit (never a later router's), and allocation
            // cannot add input packets mid-phase.
            let mut word = self.alloc_active[w];
            while word != 0 {
                let r = (w << 6) + word.trailing_zeros() as usize;
                word &= word - 1;
                // Every resident head parked: allocation would produce no
                // proposals and no side effects, so skipping the router
                // entirely is exact. This is where blocked routers drop
                // from O(blocked heads) to O(changed ports) per cycle.
                if self.routers[r].probe_ready() == 0 {
                    continue;
                }
                self.allocate_router(r, policy);
            }
        }
    }

    /// Transmit phase over the staged-router work list (ascending order;
    /// cross-shard flits land in the outbox).
    pub(crate) fn transmit_all(&mut self) {
        for w in 0..self.tx_active.len() {
            let mut word = self.tx_active[w];
            while word != 0 {
                let r = (w << 6) + word.trailing_zeros() as usize;
                word &= word - 1;
                self.transmit_outputs(r);
            }
        }
    }

    /// Diagnostic: print up to `max_lines` blocked input-VC heads
    /// (eligible but not granted) with the resources they wait for, and
    /// return how many were printed. For debugging hangs.
    pub(crate) fn dump_blocked(&self, max_lines: usize) -> usize {
        let params = self.topo.params();
        let mut lines = 0;
        for (r, router) in self.routers.iter().enumerate() {
            for (q, vcs) in router.inputs.iter().enumerate() {
                for (v, buf) in vcs.iter().enumerate() {
                    if lines >= max_lines {
                        return lines;
                    }
                    let Some(id) = buf.front() else { continue };
                    let p = self.arena.snapshot(id);
                    if p.eligible_at > self.cycle {
                        continue;
                    }
                    let dec = p.decision;
                    let (free, cred) = match dec {
                        Some(d) => (
                            router.outputs[d.out_port.idx()].free(),
                            router
                                .credits[d.out_port.idx()]
                                .get(d.out_vc as usize)
                                .copied()
                                .unwrap_or(u32::MAX),
                        ),
                        None => (0, 0),
                    };
                    eprintln!(
                        "r{} in(port={q},vc={v},kind={:?}) pkt{} src={} dst={} lh={} gh={} phase={:?} dec={:?} out_free={free} out_cred={cred}",
                        self.router_base as usize + r,
                        params.port_kind(Port(q as u32)),
                        p.header.id, p.header.src.0, p.header.dst.0,
                        p.route.local_hops, p.route.global_hops, p.route.phase,
                        dec.map(|d| (d.out_port.0, d.out_vc)),
                    );
                    lines += 1;
                }
            }
        }
        lines
    }

    /// Shadow check of this shard between two cycles: its cycle counter
    /// matches the network's `cycle`, the barrier drained its outbox and
    /// record queue, its live-packet count equals the arena population,
    /// and every scheduling work list matches a full `0..routers` /
    /// `0..nodes` scan of the underlying state. Visiting exactly the
    /// flagged entities is equivalent to the full scan iff every
    /// unflagged entity has nothing to do — this asserts that invariant.
    /// Panics with a diagnostic (global router and node ids) on the first
    /// divergence. O(shard); intended for tests.
    pub(crate) fn assert_work_lists_match_full_scan(&self, cycle: u64) {
        let base = self.router_base as usize;
        assert_eq!(self.cycle, cycle, "shard of router {base} out of step at the barrier");
        assert!(
            self.outbox.is_empty(),
            "cross-shard queue not drained at barrier (shard of router {base}, cycle {cycle})"
        );
        assert!(
            self.records.is_empty(),
            "delivery records not drained at barrier (shard of router {base}, cycle {cycle})"
        );
        assert_eq!(
            self.live_packets,
            self.arena.live() as u64,
            "live-packet count diverged from arena population (shard of router {base}, \
             cycle {cycle})"
        );
        for (r, router) in self.routers.iter().enumerate() {
            assert_eq!(
                get_bit(&self.alloc_active, r),
                router.input_packets() > 0,
                "alloc work list diverged from input_count at router {}, cycle {cycle}",
                base + r
            );
            assert_eq!(
                get_bit(&self.tx_active, r),
                router.output_packets() > 0,
                "tx work list diverged from staged_count at router {}, cycle {cycle}",
                base + r
            );
            for q in 0..self.topo.params().radix() as usize {
                assert_eq!(
                    router.out_ready & (1 << q) != 0,
                    !router.outputs[q].is_empty(),
                    "ready-output mask diverged at router {} port {q}, cycle {cycle}",
                    base + r
                );
            }
        }
        for (n, node) in self.nodes.iter().enumerate() {
            assert_eq!(
                get_bit(&self.node_active, n),
                !node.queue.is_empty(),
                "node work list diverged at node {}, cycle {cycle}",
                self.node_base as usize + n
            );
        }
    }

    // ------------------------------------------------------------------
    // Phase internals
    // ------------------------------------------------------------------

    /// Mark `router`'s global-link queues as changed for the next
    /// `begin_cycle` (deduplicated).
    #[inline]
    fn mark_global_dirty(&mut self, router: usize) {
        if !self.global_dirty[router] {
            self.global_dirty[router] = true;
            self.global_dirty_list.push(router as u32);
        }
    }

    /// Event-delivery phase: link arrivals, ejections and credit returns
    /// due this cycle.
    pub(crate) fn deliver_events(&mut self) {
        let mut events = self.wheel.advance();
        debug_assert_eq!(self.wheel.now(), self.cycle);
        for ev in events.drain(..) {
            match ev {
                Event::ArriveRouter { router, port, vc, pkt, size } => {
                    // Hot lanes only: arrival never touches the cold slot.
                    self.arena.set_eligible_at(pkt, self.cycle + self.cfg.pipeline_latency);
                    self.arena.clear_decision(pkt);
                    let r = self.local_router(router);
                    let becomes_head =
                        self.routers[r].inputs[port.idx()][vc as usize].is_empty();
                    self.routers[r].push_input(port.idx(), vc as usize, pkt, size);
                    // A new head still in the pipeline sleeps until its
                    // exact eligibility cycle instead of being probed
                    // (and rejected) every cycle in between.
                    if becomes_head && self.cfg.pipeline_latency > 0 {
                        self.routers[r].sleep(port.idx(), vc as usize);
                        self.wheel.schedule(
                            self.cfg.pipeline_latency,
                            Event::HeadWake { router, port, vc },
                        );
                    }
                    set_bit(&mut self.alloc_active, r);
                }
                Event::ArriveNode { node, pkt } => {
                    self.complete_delivery(node, pkt);
                }
                Event::Credit { router, port, vc, phits } => {
                    let r = self.local_router(router);
                    self.routers[r].return_credit(port.idx(), vc as usize, phits);
                    if self.topo.params().port_kind(port) == PortKind::Global {
                        self.mark_global_dirty(r);
                    }
                }
                Event::NodeCredit { node, vc, phits } => {
                    let n = self.local_node(node);
                    let c = &mut self.nodes[n].credits[vc as usize];
                    *c += phits;
                    debug_assert!(*c <= self.cfg.injection_input_buffer);
                }
                Event::HeadWake { router, port, vc } => {
                    let r = self.local_router(router);
                    self.routers[r].wake(port.idx(), vc as usize);
                }
            }
        }
        self.wheel.recycle(events);
    }

    fn complete_delivery(&mut self, node: NodeId, id: PacketId) {
        let pkt = self.arena.cold(id);
        debug_assert_eq!(pkt.header.dst, node);
        let (min_l, min_g) = self.topo.min_path_links(pkt.header.src, pkt.header.dst);
        let min_routers = (min_l + min_g + 1) as u64;
        let min_traversal = self.cfg.injection_link_latency          // node → router
            + min_routers * self.cfg.pipeline_latency                 // router pipelines
            + min_l as u64 * self.cfg.local_link_latency
            + min_g as u64 * self.cfg.global_link_latency
            + self.cfg.injection_link_latency                         // router → node
            + self.cfg.packet_size as u64;                            // serialization
        let rec = DeliveredRecord {
            header: pkt.header,
            delivered_cycle: self.cycle,
            traversal: pkt.traversal,
            min_traversal,
            waits: pkt.waits,
            local_hops: pkt.route.local_hops,
            global_hops: pkt.route.global_hops,
        };
        self.counters.delivered_packets += 1;
        self.counters.delivered_phits += pkt.header.size as u64;
        self.live_packets -= 1;
        self.arena.free(id);
        self.records.push(rec);
    }

    /// Node-side injection over the active-node work list: only nodes
    /// with a queued packet are visited (bit set in [`Self::offer`],
    /// cleared here once the queue drains). Ascending order keeps event
    /// scheduling identical to the full `0..nodes` scan.
    pub(crate) fn inject_from_nodes(&mut self) {
        let params = *self.topo.params();
        for w in 0..self.node_active.len() {
            let mut word = self.node_active[w];
            while word != 0 {
                let n = (w << 6) + word.trailing_zeros() as usize;
                word &= word - 1;
                let node = &mut self.nodes[n];
                debug_assert!(!node.queue.is_empty(), "idle node on work list");
                if node.link_free_at > self.cycle {
                    continue;
                }
                let size = self.cfg.packet_size;
                // Pick an injection VC with room, round-robin for fairness.
                let vcs = self.cfg.vcs_injection as u32;
                let mut chosen = None;
                for k in 0..vcs {
                    let vc = (node.vc_rr + k) % vcs;
                    if node.credits[vc as usize] >= size {
                        chosen = Some(vc);
                        break;
                    }
                }
                let Some(vc) = chosen else { continue };
                node.vc_rr = (vc + 1) % vcs;
                node.credits[vc as usize] -= size;
                node.link_free_at = self.cycle + size as u64;
                let id = node.queue.pop_front().expect("checked non-empty");
                if node.queue.is_empty() {
                    clear_bit(&mut self.node_active, n);
                }
                // Source-queue time is injection wait.
                let wait = self.cycle - self.arena.eligible_at(id);
                let pkt = self.arena.cold_mut(id);
                pkt.waits.injection += wait;
                pkt.traversal += self.cfg.injection_link_latency;
                let node_id = NodeId(self.node_base + n as u32);
                let router = node_id.router(&params);
                let port = params.injection_port(node_id.slot(&params));
                self.wheel.schedule(
                    self.cfg.injection_link_latency,
                    Event::ArriveRouter { router, port, vc: vc as u8, pkt: id, size },
                );
            }
        }
    }

    /// Separable iterative batch allocation for router `r` (local index).
    fn allocate_router<P: RoutingPolicy>(&mut self, r: usize, policy: &mut P) {
        // The work list only holds routers with resident input packets.
        debug_assert!(self.routers[r].input_count > 0, "idle router on alloc work list");
        let params = *self.topo.params();
        let radix = params.radix() as usize;
        let adaptive = policy.adaptive_reroute();
        // Reset the persistent scratch (hoisted out of the hot loop so no
        // per-router-per-cycle allocation happens): remaining grant budget
        // per port this cycle (2× speedup), and the VCs that already won
        // this cycle — their new head has not traversed the pipeline, so
        // they cannot win again.
        let vc_stride = self.vc_stride;
        self.alloc_in_budget.fill(self.cfg.speedup);
        self.alloc_out_budget.fill(self.cfg.speedup);
        self.alloc_vc_granted.fill(false);

        for _iter in 0..self.cfg.speedup {
            // --- Phase 1: each input port nominates one VC head. ---
            for q in 0..radix {
                self.proposals[q].clear();
            }
            for in_port in 0..radix {
                if self.alloc_in_budget[in_port] == 0 {
                    continue;
                }
                // Ready-VC mask minus parked and sleeping VCs: a parked
                // head's probe outcome cannot change until its target
                // port is touched (which unparks it), and a sleeping
                // head is ineligible until its wake event fires — so
                // skipping both is exact.
                let ready = self.routers[r].in_ready[in_port]
                    & !self.routers[r].in_parked[in_port]
                    & !self.routers[r].in_sleeping[in_port];
                if ready == 0 {
                    continue;
                }
                let vcs = self.routers[r].inputs[in_port].len() as u32;
                let start = self.routers[r].in_rr[in_port];
                for k in 0..vcs {
                    let vc = ((start + k) % vcs) as usize;
                    if ready & (1 << vc) == 0 || self.alloc_vc_granted[in_port * vc_stride + vc]
                    {
                        continue;
                    }
                    let (id, size) = self.routers[r].inputs[in_port][vc]
                        .front_entry()
                        .expect("ready bit set on empty VC");
                    // Hot-lane probe: the common rejection path (head not
                    // yet through the pipeline) reads one 8-byte lane.
                    // With head-sleep, an awake ready head is always past
                    // the pipeline; this probe is a cheap safety net.
                    if self.arena.eligible_at(id) > self.cycle {
                        debug_assert!(false, "awake head not yet eligible");
                        continue;
                    }
                    // Decide routing for the head if needed — only then
                    // is the cold slot (header + route state) read.
                    // Non-adaptive policies keep one decision per router
                    // visit; adaptive policies reuse their cached
                    // decision while its recorded dependency is intact
                    // (a dependency-valid recompute is pure and returns
                    // the same decision, so reuse is bit-identical).
                    let prior = self
                        .arena
                        .decision(id)
                        .filter(|_| !adaptive || (self.route_cache && self.dep_valid(r, id)));
                    let decision = match prior {
                        Some(d) => {
                            #[cfg(any(debug_assertions, feature = "shadow-verify"))]
                            if adaptive {
                                self.shadow_verify_reuse(r, in_port, vc, id, d, policy);
                            }
                            d
                        }
                        None => {
                            let cold = self.arena.cold(id);
                            let (hdr, info) = (cold.header, cold.route);
                            let (d, dep) = policy.route_with_deps(
                                &self.routers[r],
                                Port(in_port as u32),
                                hdr,
                                info,
                            );
                            debug_assert!((d.out_port.0 as usize) < radix);
                            self.arena.set_decision(id, d);
                            self.arena.set_dep(id, dep);
                            d
                        }
                    };
                    if self.routers[r].can_accept(decision.out_port, decision.out_vc, size)
                    {
                        // Nominated: the port proposes this head (and only
                        // this head) if the output still has grant budget.
                        if self.alloc_out_budget[decision.out_port.idx()] > 0 {
                            self.proposals[decision.out_port.idx()]
                                .push((in_port as u32, vc as u8));
                        }
                        break;
                    }
                    // Blocked. Park the head if its decision cannot
                    // change before its target port does: sticky
                    // (non-adaptive) decisions always qualify; adaptive
                    // ones only when their dependency is the port they
                    // wait for. Volatile adaptive decisions must
                    // re-probe every cycle (the recompute may pick a
                    // different output).
                    if self.route_cache {
                        let stable = !adaptive
                            || match self.arena.dep(id) {
                                RouteDep::Always => true,
                                RouteDep::Port { port, .. } => {
                                    port as usize == decision.out_port.idx()
                                }
                                RouteDep::Volatile => false,
                            };
                        if stable {
                            self.routers[r].park(in_port, vc, decision.out_port.idx());
                        }
                    }
                }
            }

            // --- Phase 2: each output port grants one proposal. ---
            let mut any = false;
            #[allow(clippy::needless_range_loop)] // index drives three parallel arrays
            for out_port in 0..radix {
                if self.proposals[out_port].is_empty() || self.alloc_out_budget[out_port] == 0 {
                    continue;
                }
                let winner = self.arbitrate_output(r, out_port);
                let Some((in_port, vc)) = winner else { continue };
                self.commit_grant(r, in_port as usize, vc as usize, out_port);
                self.alloc_in_budget[in_port as usize] -= 1;
                self.alloc_out_budget[out_port] -= 1;
                self.alloc_vc_granted[in_port as usize * vc_stride + vc as usize] = true;
                // Advance the input port's RR pointer past the winner.
                let vcs = self.routers[r].inputs[in_port as usize].len() as u32;
                self.routers[r].in_rr[in_port as usize] = (vc as u32 + 1) % vcs;
                any = true;
            }
            if any {
                self.last_progress = self.cycle;
            } else {
                break;
            }
        }
    }

    /// Pick the winning proposal for `out_port` under the configured
    /// arbiter policy. Proposals were pre-filtered for feasibility, but
    /// feasibility is re-checked at commit time by the caller via
    /// `can_accept` (earlier grants in this cycle may have consumed space).
    fn arbitrate_output(&mut self, r: usize, out_port: usize) -> Option<(u32, u8)> {
        let props = &self.proposals[out_port];
        let router = &self.routers[r];
        let arena = &self.arena;
        let still_feasible = |&(ip, vc): &(u32, u8)| -> bool {
            match router.inputs[ip as usize][vc as usize].front_entry() {
                Some((id, size)) => match arena.decision(id) {
                    Some(d) => router.can_accept(d.out_port, d.out_vc, size),
                    None => false,
                },
                None => false,
            }
        };
        let params = self.topo.params();
        let rr = router.out_rr[out_port];
        let radix = params.radix();
        let key_rr = |ip: u32| (ip + radix - rr) % radix;
        let pick = match self.cfg.arbiter {
            ArbiterPolicy::RoundRobin => props
                .iter()
                .filter(|p| still_feasible(p))
                .min_by_key(|&&(ip, _)| key_rr(ip))
                .copied(),
            ArbiterPolicy::TransitPriority => {
                let class = |ip: u32| match params.port_kind(Port(ip)) {
                    PortKind::Injection => 1u32,
                    _ => 0u32,
                };
                props
                    .iter()
                    .filter(|p| still_feasible(p))
                    .min_by_key(|&&(ip, _)| (class(ip), key_rr(ip)))
                    .copied()
            }
            ArbiterPolicy::AgeBased => props
                .iter()
                .filter(|p| still_feasible(p))
                .min_by_key(|&&(ip, vc)| {
                    let gen = router.inputs[ip as usize][vc as usize]
                        .front()
                        .map(|id| arena.cold(id).header.gen_cycle)
                        .unwrap_or(u64::MAX);
                    (gen, key_rr(ip))
                })
                .copied(),
        };
        if let Some((ip, _)) = pick {
            self.routers[r].out_rr[out_port] = (ip + 1) % radix;
        }
        pick
    }

    /// Move the granted packet from its input VC to the output buffer,
    /// reserving downstream credit and returning upstream credit.
    fn commit_grant(&mut self, r: usize, in_port: usize, vc: usize, out_port: usize) {
        let params = *self.topo.params();
        let (id, size) = self.routers[r].pop_input(in_port, vc);
        if self.routers[r].input_count == 0 {
            clear_bit(&mut self.alloc_active, r);
        }
        // If the VC's next head is still inside the pipeline, sleep the
        // VC until its exact eligibility cycle.
        if let Some(next) = self.routers[r].inputs[in_port][vc].front() {
            let elig = self.arena.eligible_at(next);
            if elig > self.cycle {
                self.routers[r].sleep(in_port, vc);
                self.wheel.schedule(
                    elig - self.cycle,
                    Event::HeadWake {
                        router: self.routers[r].id(),
                        port: Port(in_port as u32),
                        vc: vc as u8,
                    },
                );
            }
        }
        let decision = self.arena.take_decision(id).expect("granted head has decision");
        debug_assert_eq!(decision.out_port.idx(), out_port);
        let was_misrouted;
        {
            // One cold-slot touch per grant: wait accounting and the
            // committed route state.
            let wait = self.cycle.saturating_sub(self.arena.eligible_at(id));
            let pkt = self.arena.cold_mut(id);
            match params.port_kind(Port(in_port as u32)) {
                PortKind::Injection => pkt.waits.injection += wait,
                PortKind::Local => pkt.waits.local += wait,
                PortKind::Global => pkt.waits.global += wait,
            }
            pkt.traversal += self.cfg.pipeline_latency;
            was_misrouted = pkt.route.global_misrouted;
            pkt.route = decision.info;
            pkt.out_enq_at = self.cycle;
        }
        // An escape-path grant is the false→true transition of the
        // misrouting flag: this grant first diverted the packet onto a
        // non-minimal global path.
        if decision.info.global_misrouted && !was_misrouted {
            self.counters.escape_grants += 1;
        }

        // Fairness counters: packets leaving an injection input. The input
        // port of an injection grant *is* the node's slot on its router.
        if params.port_kind(Port(in_port as u32)) == PortKind::Injection {
            self.counters.injected_per_router[r] += 1;
            self.counters.injected_per_node[r * params.p as usize + in_port] += 1;
        }

        // Reserve downstream credit (transit outputs only).
        if !self.routers[r].credits[out_port].is_empty() {
            self.routers[r].reserve_credit(out_port, decision.out_vc as usize, size);
        }
        // The queue feeding a global link just grew (staged packet +
        // reserved credit): PiggyBack's view of this router is stale.
        if params.port_kind(Port(out_port as u32)) == PortKind::Global {
            self.mark_global_dirty(r);
        }

        // Return credit upstream for the input space just freed. An
        // upstream router outside this slice gets its credit through the
        // outbox (cross-shard interception point #1); only global-link
        // ports can cross a group — and therefore shard — boundary.
        let flat = r * params.radix() as usize + in_port;
        let latency = self.latencies[flat];
        match self.peers[flat] {
            PortTarget::Node(node) => {
                self.wheel.schedule(
                    latency,
                    Event::NodeCredit { node, vc: vc as u8, phits: size },
                );
            }
            PortTarget::Router { router, port } => {
                if self.owns_router(router) {
                    self.wheel.schedule(
                        latency,
                        Event::Credit { router, port, vc: vc as u8, phits: size },
                    );
                } else {
                    self.outbox.credits.push(RemoteCredit {
                        router,
                        port,
                        vc: vc as u8,
                        phits: size,
                        delay: latency,
                    });
                }
            }
        }

        self.routers[r].stage_output(
            out_port,
            Staged { pkt: id, size, out_vc: decision.out_vc },
        );
        set_bit(&mut self.tx_active, r);
    }

    /// Start link transmissions from this router's staged output ports,
    /// walking the ready-output bitmask instead of scanning all `radix`
    /// buffers (ascending port order, as before).
    fn transmit_outputs(&mut self, r: usize) {
        debug_assert!(self.routers[r].staged_count > 0, "idle router on tx work list");
        let params = *self.topo.params();
        let radix = params.radix() as usize;
        // Snapshot: `pop_output` may clear a bit of this mask, but only
        // for the port just processed.
        let mut ready = self.routers[r].out_ready;
        while ready != 0 {
            let out_port = ready.trailing_zeros() as usize;
            ready &= ready - 1;
            if self.routers[r].outputs[out_port].link_free_at > self.cycle {
                continue;
            }
            let staged = self.routers[r].pop_output(out_port);
            let size = staged.size;
            let flat = r * radix + out_port;
            let latency = self.latencies[flat];
            // Output-side waiting, attributed by output-port kind
            // (ejection counts as local — it is intra-"last-hop" HoL).
            let pkt = self.arena.cold_mut(staged.pkt);
            let wait = self.cycle - pkt.out_enq_at;
            match params.port_kind(Port(out_port as u32)) {
                PortKind::Injection | PortKind::Local => pkt.waits.local += wait,
                PortKind::Global => pkt.waits.global += wait,
            }
            self.routers[r].outputs[out_port].link_free_at = self.cycle + size as u64;
            self.routers[r].release_output(out_port, size);
            if params.port_kind(Port(out_port as u32)) == PortKind::Global {
                self.counters.global_phits += size as u64;
                self.mark_global_dirty(r);
            }
            match self.peers[flat] {
                PortTarget::Node(node) => {
                    self.arena.cold_mut(staged.pkt).traversal += latency + size as u64;
                    self.wheel.schedule(
                        latency + size as u64,
                        Event::ArriveNode { node, pkt: staged.pkt },
                    );
                }
                PortTarget::Router { router, port } => {
                    self.arena.cold_mut(staged.pkt).traversal += latency;
                    if self.owns_router(router) {
                        self.wheel.schedule(
                            latency,
                            Event::ArriveRouter {
                                router,
                                port,
                                vc: staged.out_vc,
                                pkt: staged.pkt,
                                size,
                            },
                        );
                    } else {
                        // Cross-shard interception point #2: the packet
                        // leaves this slice's arena and travels to the
                        // owner as a value; the network re-homes it at
                        // the cycle barrier. Traversal was already
                        // charged above, exactly as for a local hop.
                        let packet = self.arena.snapshot(staged.pkt);
                        self.arena.free(staged.pkt);
                        self.live_packets -= 1;
                        self.outbox.flits.push(RemoteFlit {
                            router,
                            port,
                            vc: staged.out_vc,
                            size,
                            delay: latency,
                            packet,
                        });
                    }
                }
            }
        }
        if self.routers[r].staged_count == 0 {
            clear_bit(&mut self.tx_active, r);
        }
    }

    // ------------------------------------------------------------------
    // Route-decision cache
    // ------------------------------------------------------------------

    /// Whether the recorded dependency of `id`'s cached decision still
    /// holds at router `r` (see [`RouteDep`]).
    #[inline]
    fn dep_valid(&self, r: usize, id: PacketId) -> bool {
        match self.arena.dep(id) {
            RouteDep::Volatile => false,
            RouteDep::Always => true,
            RouteDep::Port { port, epoch } => {
                self.routers[r].port_epoch(Port(port as u32)) == epoch
            }
        }
    }

    /// Shadow check for a reused adaptive decision: recompute the route
    /// from scratch and assert it matches the cached decision. Compiled
    /// only under `debug_assertions` or the `shadow-verify` feature.
    ///
    /// The recompute is safe precisely because reuse is restricted to
    /// dependency-valid decisions, which by the [`RouteDep`] contract were
    /// produced on RNG-free, state-mutation-free paths — so the recompute
    /// is pure and perturbs nothing.
    #[cfg(any(debug_assertions, feature = "shadow-verify"))]
    fn shadow_verify_reuse<P: RoutingPolicy>(
        &mut self,
        r: usize,
        in_port: usize,
        vc: usize,
        id: PacketId,
        cached: Decision,
        policy: &mut P,
    ) {
        let cold = self.arena.cold(id);
        let (hdr, info) = (cold.header, cold.route);
        let (fresh, fresh_dep) =
            policy.route_with_deps(&self.routers[r], Port(in_port as u32), hdr, info);
        assert_eq!(
            cached, fresh,
            "route cache divergence: reused decision != fresh recompute at \
             cycle {} router {r} in(port={in_port},vc={vc}) pkt {} (dep {:?}, fresh dep {:?})",
            self.cycle,
            hdr.id,
            self.arena.dep(id),
            fresh_dep,
        );
        debug_assert!(
            !matches!(fresh_dep, RouteDep::Volatile),
            "route cache reused a decision whose recompute is volatile at \
             cycle {} router {r} pkt {}",
            self.cycle,
            hdr.id,
        );
    }

    /// This shard's part of [`Network::assert_route_cache_coherent`]
    /// (see there for the invariants), probing with the network's
    /// `policy`.
    ///
    /// [`Network::assert_route_cache_coherent`]: crate::Network::assert_route_cache_coherent
    pub(crate) fn assert_route_cache_coherent<P: RoutingPolicy>(&mut self, policy: &mut P) {
        let adaptive = policy.adaptive_reroute();
        let radix = self.topo.params().radix() as usize;
        for r in 0..self.routers.len() {
            let mut expect_ready = 0u32;
            for in_port in 0..radix {
                let ready = self.routers[r].in_ready[in_port];
                let parked = self.routers[r].in_parked[in_port];
                let sleeping = self.routers[r].in_sleeping[in_port];
                assert_eq!(
                    parked & !ready,
                    0,
                    "parked VC without resident packet at router {r} port {in_port}, cycle {}",
                    self.cycle
                );
                assert_eq!(
                    sleeping & !ready,
                    0,
                    "sleeping VC without resident packet at router {r} port {in_port}, cycle {}",
                    self.cycle
                );
                assert_eq!(
                    sleeping & parked,
                    0,
                    "VC both sleeping and parked at router {r} port {in_port}, cycle {}",
                    self.cycle
                );
                let mut smask = sleeping;
                while smask != 0 {
                    let vc = smask.trailing_zeros() as usize;
                    smask &= smask - 1;
                    let (id, _) = self.routers[r].inputs[in_port][vc]
                        .front_entry()
                        .expect("sleeping bit set on empty VC");
                    assert!(
                        self.arena.eligible_at(id) > self.cycle,
                        "sleeping head already eligible (missed wake) at router {r} \
                         in(port={in_port},vc={vc}), cycle {}",
                        self.cycle
                    );
                }
                expect_ready += (ready & !parked & !sleeping).count_ones();
                let mut mask = parked;
                while mask != 0 {
                    let vc = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    let target = self.routers[r]
                        .parked_target(Port(in_port as u32), vc as u8)
                        .expect("parked bit set without parked_on target");
                    assert!(
                        self.routers[r].waiters[target.idx()] & (1u64 << in_port) != 0,
                        "parked head not in waiter mask of its target port at \
                         router {r} in(port={in_port},vc={vc}) -> out {}, cycle {}",
                        target.0,
                        self.cycle
                    );
                    let (id, size) = self.routers[r].inputs[in_port][vc]
                        .front_entry()
                        .expect("parked bit set on empty VC");
                    assert!(
                        self.arena.eligible_at(id) <= self.cycle,
                        "parked head not yet eligible at router {r} \
                         in(port={in_port},vc={vc}), cycle {}",
                        self.cycle
                    );
                    let d = self
                        .arena
                        .decision(id)
                        .expect("parked head without a cached decision");
                    assert_eq!(
                        d.out_port, target,
                        "parked head's decision targets a different port at \
                         router {r} in(port={in_port},vc={vc}), cycle {}",
                        self.cycle
                    );
                    assert!(
                        !self.routers[r].can_accept(d.out_port, d.out_vc, size),
                        "lost wakeup: parked head could proceed at router {r} \
                         in(port={in_port},vc={vc}) -> out {}, cycle {}",
                        d.out_port.0,
                        self.cycle
                    );
                    if adaptive {
                        assert!(
                            !matches!(self.arena.dep(id), RouteDep::Volatile),
                            "volatile decision parked at router {r} \
                             in(port={in_port},vc={vc}), cycle {}",
                            self.cycle
                        );
                        assert!(
                            self.dep_valid(r, id),
                            "parked head's dependency went stale without an \
                             unpark at router {r} in(port={in_port},vc={vc}), cycle {}",
                            self.cycle
                        );
                        #[cfg(any(debug_assertions, feature = "shadow-verify"))]
                        self.shadow_verify_reuse(r, in_port, vc, id, d, policy);
                    }
                }
            }
            assert_eq!(
                self.routers[r].probe_ready(),
                expect_ready,
                "probe_ready counter diverged at router {r}, cycle {}",
                self.cycle
            );
        }
    }

    /// Test check after a full drain: every buffer is empty and every
    /// credit counter, router and node side, is back at its capacity.
    #[cfg(test)]
    pub(crate) fn assert_credits_restored(&self) {
        for r in &self.routers {
            assert_eq!(r.input_packets(), 0);
            assert_eq!(r.output_packets(), 0);
            for (port, creds) in r.credits.iter().enumerate() {
                assert_eq!(
                    creds, &r.credit_caps[port],
                    "credits leaked at router {:?} port {port}",
                    r.id()
                );
                assert_eq!(
                    r.downstream_occupied(Port(port as u32)),
                    0,
                    "cached downstream occupancy out of sync at {:?} port {port}",
                    r.id()
                );
            }
            assert!(r.in_ready.iter().all(|&m| m == 0), "stale ready bits");
        }
        for node in &self.nodes {
            assert!(node.queue.is_empty());
            let total: u32 = node.credits.iter().sum();
            assert_eq!(total, self.cfg.injection_input_buffer * self.cfg.vcs_injection as u32);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::network::tests::figure1_net;
    use crate::packet::DeliveredRecord;
    use crate::policy::{NullSink, StatsSink};
    use df_topology::{DragonflyParams, NodeId};

    /// Keeps every delivered record, in sink order.
    #[derive(Default)]
    struct Recorder(Vec<DeliveredRecord>);

    impl StatsSink for Recorder {
        fn on_delivered(&mut self, rec: &DeliveredRecord) {
            self.0.push(*rec);
        }
    }

    /// Deterministic mixed workload touching every group: the offers to
    /// make before stepping each round.
    fn round_offers(round: u32) -> Vec<(NodeId, NodeId)> {
        let nodes = DragonflyParams::figure1().nodes();
        let mut out = Vec::new();
        for n in 0..nodes {
            if (n + round).is_multiple_of(3) {
                let dst = (n * 31 + round * 7 + 1) % nodes;
                if dst != n {
                    out.push((NodeId(n), NodeId(dst)));
                }
            }
        }
        out
    }

    #[test]
    fn sharded_counters_match_serial_exactly() {
        let mut base = figure1_net(1, Recorder::default());
        for round in 0..30u32 {
            for (s, d) in round_offers(round) {
                base.offer(s, d);
            }
            base.step();
        }
        assert!(base.drain(50_000));
        let base_counters = base.counters();
        let base_records = std::mem::take(&mut base.sink_mut().0);

        for shards in [2u32, 3, 9] {
            let mut net = figure1_net(shards, Recorder::default());
            for round in 0..30u32 {
                for (s, d) in round_offers(round) {
                    net.offer(s, d);
                }
                net.step();
            }
            assert!(net.drain(50_000), "sharded S={shards} failed to drain");
            net.assert_work_lists_match_full_scan();
            let c = net.counters();
            assert_eq!(c.delivered_packets, base_counters.delivered_packets, "S={shards}");
            assert_eq!(c.accepted_packets, base_counters.accepted_packets, "S={shards}");
            assert_eq!(c.offered_packets, base_counters.offered_packets, "S={shards}");
            assert_eq!(c.delivered_phits, base_counters.delivered_phits, "S={shards}");
            assert_eq!(c.escape_grants, base_counters.escape_grants, "S={shards}");
            assert_eq!(c.global_phits, base_counters.global_phits, "S={shards}");
            assert_eq!(
                c.injected_per_router, base_counters.injected_per_router,
                "per-router injections diverged at S={shards}"
            );
            assert_eq!(
                c.injected_per_node, base_counters.injected_per_node,
                "per-node injections diverged at S={shards}"
            );
            // Record-for-record identity, including arrival order.
            let records = std::mem::take(&mut net.sink_mut().0);
            assert_eq!(records.len(), base_records.len(), "S={shards}");
            for (i, (a, b)) in records.iter().zip(&base_records).enumerate() {
                assert_eq!(a, b, "delivered record {i} diverged at S={shards}");
            }
        }
    }

    #[test]
    fn coherence_assert_holds_mid_run() {
        let mut net = figure1_net(3, NullSink);
        let nodes = net.topology().params().nodes();
        for round in 0..60u32 {
            for n in (0..nodes).step_by(4) {
                net.offer(NodeId(n), NodeId((n * 13 + round * 5 + 1) % nodes));
            }
            net.step();
            net.assert_work_lists_match_full_scan();
        }
        assert!(net.drain(50_000));
        net.assert_work_lists_match_full_scan();
    }

    #[test]
    fn full_queue_consumes_no_sequence_number() {
        // Hammer one node far past its queue bound: rejected offers must
        // not advance the network-wide sequence counter.
        let mut net = figure1_net(2, NullSink);
        let mut accepted = 0u64;
        for _ in 0..1000 {
            if net.offer(NodeId(0), NodeId(70)) {
                accepted += 1;
            }
        }
        let c = net.counters();
        assert_eq!(c.offered_packets, 1000);
        assert_eq!(c.accepted_packets, accepted);
        assert!(accepted < 1000, "queue bound should have rejected some offers");
        assert!(net.drain(100_000));
        assert_eq!(net.counters().delivered_packets, accepted);
    }
}
