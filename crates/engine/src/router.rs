//! Per-router state: input VCs, output buffers, downstream credits, and
//! the congestion views consumed by adaptive routing policies.
//!
//! All buffer and credit mutations go through the `push_input` /
//! `pop_input` / `stage_output` / `pop_output` / `release_output` /
//! `reserve_credit` / `return_credit` methods, which keep the derived
//! structures in sync:
//!
//! * `in_ready` — a bitmask of non-empty VCs per input port, so the
//!   switch allocator only visits occupied VCs;
//! * `input_count` / `staged_count` — router-level packet counts, so
//!   idle routers are skipped outright;
//! * `downstream_used` — cached consumed-credit phits per output port,
//!   making every congestion probe O(1) instead of O(VCs);
//! * `port_epoch` / `in_parked` / `waiters` / `probe_ready` — the
//!   route-decision cache's change tracking: every mutation of an output
//!   port's allocator-visible state bumps the port's epoch and wakes
//!   heads parked on it, so a blocked router pays O(changed ports) per
//!   cycle instead of O(blocked heads).

use crate::arena::PacketId;
use crate::buffer::{OutputBuffer, Staged, VcBuffer};
use crate::config::EngineConfig;
use df_topology::{DragonflyParams, Port, PortKind, PortLayout, RouterId};

/// All state of one router.
#[derive(Debug)]
pub struct RouterState {
    id: RouterId,
    /// Input buffers, `[port][vc]`.
    pub(crate) inputs: Vec<Vec<VcBuffer>>,
    /// Output buffers, `[port]`.
    pub(crate) outputs: Vec<OutputBuffer>,
    /// Credits towards the downstream input buffer of each output port,
    /// `[port][downstream vc]`, in phits. Empty for ejection ports (nodes
    /// are infinite sinks).
    pub(crate) credits: Vec<Vec<u32>>,
    /// Capacity behind each credit counter (for occupancy views).
    pub(crate) credit_caps: Vec<Vec<u32>>,
    /// Cached consumed downstream phits per output port (sum over VCs of
    /// `cap - credits`), maintained by `reserve_credit`/`return_credit`.
    downstream_used: Vec<u32>,
    /// Precomputed total downstream capacity per output port.
    downstream_cap: Vec<u32>,
    /// Round-robin pointer per input port (over its VCs).
    pub(crate) in_rr: Vec<u32>,
    /// Round-robin pointer per output port (over input ports).
    pub(crate) out_rr: Vec<u32>,
    /// Bitmask of non-empty VCs per input port (the ready-VC list).
    pub(crate) in_ready: Vec<u32>,
    /// Bitmask of output ports with at least one staged packet (the
    /// ready-output list): `transmit_outputs` visits only set bits
    /// instead of scanning all `radix` output buffers.
    pub(crate) out_ready: u64,
    /// Packets resident across all input VCs.
    pub(crate) input_count: u32,
    /// Packets staged across all output buffers.
    pub(crate) staged_count: u32,
    /// Change epoch per output port, bumped by every mutation of the
    /// port's allocator-visible state (credit reserve/return, staging,
    /// output-buffer release). Cached routing decisions record the epoch
    /// of the port they read; a mismatch marks them stale.
    port_epoch: Vec<u32>,
    /// Bitmask of *parked* VCs per input port: heads whose routing
    /// decision is stable but whose target output cannot accept them.
    /// The allocator skips them until the target port is touched.
    pub(crate) in_parked: Vec<u32>,
    /// Output port each parked `(port, vc)` head waits on (`[port][vc]`,
    /// meaningful only while the parked bit is set).
    parked_on: Vec<Vec<u8>>,
    /// Bitmask of input ports with at least one VC parked on this output
    /// port, `[out_port]` — the wake list `touch_port` consults.
    pub(crate) waiters: Vec<u64>,
    /// Bitmask of *sleeping* VCs per input port: heads still inside the
    /// router pipeline (`eligible_at > cycle`). The engine schedules a
    /// `HeadWake` event for the exact eligibility cycle, so these heads
    /// are never probed early.
    pub(crate) in_sleeping: Vec<u32>,
    /// Number of non-empty, unparked, awake input VCs — the heads the
    /// allocator could probe this cycle. Zero means allocation is a
    /// no-op for this router.
    probe_ready: u32,
}

/// Number of VCs for a port of the given kind under `cfg`.
pub fn vcs_for(cfg: &EngineConfig, kind: PortKind) -> u8 {
    match kind {
        PortKind::Injection => cfg.vcs_injection,
        PortKind::Local => cfg.vcs_local,
        PortKind::Global => cfg.vcs_global,
    }
}

/// Input-buffer capacity per VC for a port of the given kind.
pub fn input_capacity_for(cfg: &EngineConfig, kind: PortKind) -> u32 {
    match kind {
        PortKind::Injection => cfg.injection_input_buffer,
        PortKind::Local => cfg.local_input_buffer,
        PortKind::Global => cfg.global_input_buffer,
    }
}

impl RouterState {
    /// Build an idle router.
    ///
    /// Credit counters at each local/global output port mirror the input
    /// buffer of the *peer* port, which has the same kind (local links
    /// join two local ports, global links two global ports). Ejection
    /// ports get no credit counters.
    pub fn new(id: RouterId, params: &DragonflyParams, cfg: &EngineConfig) -> Self {
        let radix = params.radix() as usize;
        assert!(radix <= 64, "out_ready bitmask supports at most 64 ports");
        let mut inputs: Vec<Vec<VcBuffer>> = Vec::with_capacity(radix);
        let mut outputs = Vec::with_capacity(radix);
        let mut credits = Vec::with_capacity(radix);
        let mut credit_caps = Vec::with_capacity(radix);
        for q in 0..radix {
            let kind = params.port_kind(Port(q as u32));
            let vcs = vcs_for(cfg, kind) as usize;
            let in_cap = input_capacity_for(cfg, kind);
            inputs.push((0..vcs).map(|_| VcBuffer::new(in_cap)).collect());
            outputs.push(OutputBuffer::new(cfg.output_buffer));
            let (dvcs, dcap) = match kind {
                // Ejection side of an injection port: node sinks packets.
                PortKind::Injection => (0, 0),
                PortKind::Local => (cfg.vcs_local as usize, cfg.local_input_buffer),
                PortKind::Global => (cfg.vcs_global as usize, cfg.global_input_buffer),
            };
            credits.push(vec![dcap; dvcs]);
            credit_caps.push(vec![dcap; dvcs]);
        }
        let downstream_cap = credit_caps.iter().map(|caps| caps.iter().sum()).collect();
        let parked_on = inputs.iter().map(|vcs| vec![0u8; vcs.len()]).collect();
        Self {
            id,
            inputs,
            outputs,
            credits,
            credit_caps,
            downstream_used: vec![0; radix],
            downstream_cap,
            in_rr: vec![0; radix],
            out_rr: vec![0; radix],
            in_ready: vec![0; radix],
            out_ready: 0,
            input_count: 0,
            staged_count: 0,
            port_epoch: vec![0; radix],
            in_parked: vec![0; radix],
            parked_on,
            waiters: vec![0; radix],
            in_sleeping: vec![0; radix],
            probe_ready: 0,
        }
    }

    /// This router's id.
    #[inline]
    pub fn id(&self) -> RouterId {
        self.id
    }

    // ------------------------------------------------------------------
    // Buffer / credit mutations (keep the derived state in sync)
    // ------------------------------------------------------------------

    /// Enqueue an arriving packet on `port`, VC `vc`.
    pub(crate) fn push_input(&mut self, port: usize, vc: usize, id: PacketId, size: u32) {
        let newly_occupied = self.inputs[port][vc].is_empty();
        self.inputs[port][vc].push(id, size);
        self.in_ready[port] |= 1 << vc;
        if newly_occupied {
            debug_assert!(self.in_parked[port] & (1 << vc) == 0, "empty VC cannot be parked");
            debug_assert!(self.in_sleeping[port] & (1 << vc) == 0, "empty VC cannot sleep");
            self.probe_ready += 1;
        }
        self.input_count += 1;
    }

    /// Dequeue the head packet of `port`, VC `vc`, returning its handle
    /// and size.
    ///
    /// # Panics
    /// Panics if the VC is empty.
    pub(crate) fn pop_input(&mut self, port: usize, vc: usize) -> (PacketId, u32) {
        debug_assert!(self.in_parked[port] & (1 << vc) == 0, "granted a parked head");
        debug_assert!(self.in_sleeping[port] & (1 << vc) == 0, "granted a sleeping head");
        let buf = &mut self.inputs[port][vc];
        let entry = buf.pop().expect("pop from empty input VC");
        if buf.is_empty() {
            self.in_ready[port] &= !(1 << vc);
            self.probe_ready -= 1;
        }
        self.input_count -= 1;
        entry
    }

    /// Consume downstream credit on `port`, VC `vc` (grant committed).
    pub(crate) fn reserve_credit(&mut self, port: usize, vc: usize, size: u32) {
        let c = &mut self.credits[port][vc];
        debug_assert!(*c >= size, "allocator granted without credit");
        *c -= size;
        self.downstream_used[port] += size;
        self.touch_port(port);
    }

    /// Return downstream credit on `port`, VC `vc` (space freed below).
    pub(crate) fn return_credit(&mut self, port: usize, vc: usize, phits: u32) {
        let c = &mut self.credits[port][vc];
        *c += phits;
        debug_assert!(*c <= self.credit_caps[port][vc], "credit overflow");
        self.downstream_used[port] -= phits;
        self.touch_port(port);
    }

    /// Stage a granted packet at output `port`.
    pub(crate) fn stage_output(&mut self, port: usize, staged: Staged) {
        self.outputs[port].push(staged);
        self.out_ready |= 1 << port;
        self.staged_count += 1;
        self.touch_port(port);
    }

    /// Free output-buffer space at `port` once the head packet starts
    /// serializing onto the link, and wake heads parked on the port.
    pub(crate) fn release_output(&mut self, port: usize, size: u32) {
        self.outputs[port].release(size);
        self.touch_port(port);
    }

    /// Dequeue the head of output `port` for transmission.
    ///
    /// # Panics
    /// Panics if the output buffer is empty.
    pub(crate) fn pop_output(&mut self, port: usize) -> Staged {
        let staged = self.outputs[port].pop_for_tx().expect("pop from empty output");
        if self.outputs[port].is_empty() {
            self.out_ready &= !(1 << port);
        }
        self.staged_count -= 1;
        staged
        // No `touch_port`: occupancy only changes on `release_output`.
    }

    // ------------------------------------------------------------------
    // Route-decision cache: port epochs and blocked-head parking
    // ------------------------------------------------------------------

    /// Bump `port`'s change epoch (invalidating cached decisions that
    /// read it) and unpark every head waiting on it.
    #[inline]
    pub(crate) fn touch_port(&mut self, port: usize) {
        self.port_epoch[port] = self.port_epoch[port].wrapping_add(1);
        let mut wake = self.waiters[port];
        if wake == 0 {
            return;
        }
        self.waiters[port] = 0;
        while wake != 0 {
            let q = wake.trailing_zeros() as usize;
            wake &= wake - 1;
            let mut parked = self.in_parked[q];
            while parked != 0 {
                let vc = parked.trailing_zeros() as usize;
                parked &= parked - 1;
                if self.parked_on[q][vc] as usize == port {
                    self.in_parked[q] &= !(1 << vc);
                    self.probe_ready += 1;
                }
            }
        }
    }

    /// Park the head of (`in_port`, `vc`): its decision targets
    /// `out_port`, which cannot accept it, and the decision is stable
    /// until `out_port` changes — so the allocator skips the VC until
    /// `touch_port(out_port)` wakes it.
    #[inline]
    pub(crate) fn park(&mut self, in_port: usize, vc: usize, out_port: usize) {
        debug_assert!(self.in_ready[in_port] & (1 << vc) != 0, "parking an empty VC");
        debug_assert!(self.in_parked[in_port] & (1 << vc) == 0, "double park");
        debug_assert!(self.in_sleeping[in_port] & (1 << vc) == 0, "parking a sleeping VC");
        self.in_parked[in_port] |= 1 << vc;
        self.parked_on[in_port][vc] = out_port as u8;
        self.waiters[out_port] |= 1 << in_port;
        self.probe_ready -= 1;
    }

    /// Forget all parking state (route cache toggled off mid-run).
    /// Epochs are left alone — staleness checks only compare equality.
    pub(crate) fn unpark_all(&mut self) {
        for q in 0..self.in_parked.len() {
            self.probe_ready += self.in_parked[q].count_ones();
            self.in_parked[q] = 0;
        }
        self.waiters.fill(0);
    }

    /// Put the head of (`port`, `vc`) to sleep until its pipeline delay
    /// elapses: the engine schedules a `HeadWake` event for the head's
    /// exact `eligible_at` cycle, so the allocator never probes a head
    /// that cannot be eligible yet. Unlike parking, sleeping is a pure
    /// time-based skip, independent of the route cache.
    #[inline]
    pub(crate) fn sleep(&mut self, port: usize, vc: usize) {
        debug_assert!(self.in_ready[port] & (1 << vc) != 0, "sleeping an empty VC");
        debug_assert!(self.in_parked[port] & (1 << vc) == 0, "sleeping a parked VC");
        debug_assert!(self.in_sleeping[port] & (1 << vc) == 0, "double sleep");
        self.in_sleeping[port] |= 1 << vc;
        self.probe_ready -= 1;
    }

    /// Wake the sleeping head of (`port`, `vc`) — its `eligible_at` cycle
    /// has arrived.
    #[inline]
    pub(crate) fn wake(&mut self, port: usize, vc: usize) {
        debug_assert!(self.in_sleeping[port] & (1 << vc) != 0, "wake without sleep");
        self.in_sleeping[port] &= !(1 << vc);
        self.probe_ready += 1;
    }

    // ------------------------------------------------------------------
    // Congestion views (all O(1))
    // ------------------------------------------------------------------

    /// Credits (phits of downstream space) available on `port`, VC `vc`.
    #[inline]
    pub fn credits(&self, port: Port, vc: u8) -> u32 {
        self.credits[port.idx()][vc as usize]
    }

    /// Total downstream space consumed across all VCs of `port`, in phits.
    /// This is the "credit count" congestion signal the paper's adaptive
    /// mechanisms consult.
    #[inline]
    pub fn downstream_occupied(&self, port: Port) -> u32 {
        self.downstream_used[port.idx()]
    }

    /// Total downstream capacity across all VCs of `port`, in phits.
    #[inline]
    pub fn downstream_capacity(&self, port: Port) -> u32 {
        self.downstream_cap[port.idx()]
    }

    /// Occupancy fraction of the queue feeding `port`: staged output
    /// packets plus consumed downstream space, over the respective
    /// capacities. `0.0` idle, `1.0` fully backed up. Ejection ports use
    /// only the output buffer.
    pub fn output_congestion(&self, port: Port) -> f64 {
        let ob = &self.outputs[port.idx()];
        let used = ob.occupancy() + self.downstream_occupied(port);
        let cap = ob.capacity() + self.downstream_capacity(port);
        used as f64 / cap as f64
    }

    /// Queue length feeding `port` in phits (output buffer + consumed
    /// downstream space). The PiggyBack saturation estimate uses this.
    #[inline]
    pub fn output_queue_phits(&self, port: Port) -> u32 {
        self.outputs[port.idx()].occupancy() + self.downstream_occupied(port)
    }

    /// Fraction of the downstream credit window consumed on `port` for
    /// the specific `vc` (1.0 = no credits left). Ejection ports have no
    /// credit window and read 0.0. This mirrors a per-VC "number of
    /// credits of the output port" congestion estimate.
    pub fn vc_credit_fill(&self, port: Port, vc: u8) -> f64 {
        match self.credit_caps[port.idx()].get(vc as usize) {
            Some(&cap) if cap > 0 => {
                let avail = self.credits[port.idx()][vc as usize];
                (cap - avail) as f64 / cap as f64
            }
            _ => 0.0,
        }
    }

    /// Occupancy fraction of the output buffer alone (no downstream
    /// credits). Unlike [`Self::output_congestion`], this signal is free
    /// of the credit round-trip bias: on long links, in-flight credits
    /// consume a large constant fraction of the downstream window even
    /// when no packet is queued, whereas the output buffer only backs up
    /// under genuine credit exhaustion or link overload.
    pub fn output_buffer_fill(&self, port: Port) -> f64 {
        let ob = &self.outputs[port.idx()];
        ob.occupancy() as f64 / ob.capacity() as f64
    }

    /// Whether a packet of `size` phits could be granted to `port`/`vc`
    /// right now (space in the output buffer and downstream credit).
    pub fn can_accept(&self, port: Port, vc: u8, size: u32) -> bool {
        if self.outputs[port.idx()].free() < size {
            return false;
        }
        match self.credits[port.idx()].get(vc as usize) {
            Some(&c) => c >= size,
            // Ejection port: node always sinks.
            None => true,
        }
    }

    /// Resident packets across all input VCs (diagnostics / drain checks).
    pub fn input_packets(&self) -> usize {
        self.input_count as usize
    }

    /// Staged packets across all output buffers.
    pub fn output_packets(&self) -> usize {
        self.staged_count as usize
    }

    /// Input-VC occupancy in phits for `port`, VC `vc` (resident packets).
    pub fn input_occupancy(&self, port: Port, vc: u8) -> u32 {
        self.inputs[port.idx()][vc as usize].occupancy()
    }

    /// Head packet handle of an input VC, if any (diagnostics; resolve
    /// through [`crate::Network::packet_at`] with this router).
    pub fn head(&self, port: Port, vc: u8) -> Option<PacketId> {
        self.inputs[port.idx()][vc as usize].front()
    }

    /// Change epoch of output `port`: bumped by every credit
    /// reserve/return, staging, and output-buffer release on the port.
    /// Cached decisions recording [`crate::RouteDep::Port`] are valid
    /// while this still equals their captured epoch.
    #[inline]
    pub fn port_epoch(&self, port: Port) -> u32 {
        self.port_epoch[port.idx()]
    }

    /// Bitmask of parked VCs on input `port` (blocked heads the
    /// allocator skips until their target output is touched).
    #[inline]
    pub fn parked_vcs(&self, port: Port) -> u32 {
        self.in_parked[port.idx()]
    }

    /// Bitmask of sleeping VCs on input `port` (heads still inside the
    /// router pipeline, skipped until their `HeadWake` event fires).
    #[inline]
    pub fn sleeping_vcs(&self, port: Port) -> u32 {
        self.in_sleeping[port.idx()]
    }

    /// Output port the parked head of (`port`, `vc`) is waiting on, if
    /// that VC is parked.
    pub fn parked_target(&self, port: Port, vc: u8) -> Option<Port> {
        if self.in_parked[port.idx()] & (1 << vc) != 0 {
            Some(Port(self.parked_on[port.idx()][vc as usize] as u32))
        } else {
            None
        }
    }

    /// Number of non-empty, unparked input VCs (the heads the switch
    /// allocator could probe this cycle).
    #[inline]
    pub fn probe_ready(&self) -> u32 {
        self.probe_ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArbiterPolicy;

    fn setup() -> (DragonflyParams, EngineConfig, RouterState) {
        let params = DragonflyParams::paper();
        let cfg = EngineConfig::paper(ArbiterPolicy::RoundRobin, 3);
        let r = RouterState::new(RouterId(0), &params, &cfg);
        (params, cfg, r)
    }

    #[test]
    fn port_structure_matches_params() {
        let (params, cfg, r) = setup();
        assert_eq!(r.inputs.len(), params.radix() as usize);
        // Injection ports: 3 VCs, no downstream credits.
        assert_eq!(r.inputs[0].len(), cfg.vcs_injection as usize);
        assert!(r.credits[0].is_empty());
        // Local port: 3 VCs with 32-phit credit each.
        let lp = params.p as usize;
        assert_eq!(r.inputs[lp].len(), cfg.vcs_local as usize);
        assert_eq!(r.credits[lp], vec![32; 3]);
        // Global port: 2 VCs with 256-phit credit each.
        let gp = (params.p + params.a - 1) as usize;
        assert_eq!(r.inputs[gp].len(), cfg.vcs_global as usize);
        assert_eq!(r.credits[gp], vec![256; 2]);
    }

    #[test]
    fn idle_router_uncongested() {
        let (params, _, r) = setup();
        for q in 0..params.radix() {
            assert_eq!(r.output_congestion(Port(q)), 0.0);
            assert_eq!(r.output_queue_phits(Port(q)), 0);
        }
        assert_eq!(r.input_count, 0);
        assert_eq!(r.staged_count, 0);
    }

    #[test]
    fn can_accept_respects_credits() {
        let (params, _, mut r) = setup();
        let gp = Port(params.p + params.a - 1);
        assert!(r.can_accept(gp, 0, 8));
        r.reserve_credit(gp.idx(), 0, 252);
        assert!(!r.can_accept(gp, 0, 8));
        assert!(r.can_accept(gp, 1, 8));
    }

    #[test]
    fn ejection_always_sinks_when_buffer_free() {
        let (_, _, r) = setup();
        // Injection/ejection port 0, any VC index: no credit constraint.
        assert!(r.can_accept(Port(0), 0, 8));
        assert!(r.can_accept(Port(0), 9, 8));
    }

    #[test]
    fn downstream_occupancy_tracks_credits() {
        let (params, _, mut r) = setup();
        let gp = Port(params.p + params.a - 1);
        assert_eq!(r.downstream_occupied(gp), 0);
        r.reserve_credit(gp.idx(), 0, 8);
        r.reserve_credit(gp.idx(), 1, 16);
        assert_eq!(r.downstream_occupied(gp), 24);
        assert_eq!(r.downstream_capacity(gp), 512);
        let c = r.output_congestion(gp);
        assert!((c - 24.0 / (512.0 + 32.0)).abs() < 1e-12);
        r.return_credit(gp.idx(), 0, 8);
        assert_eq!(r.downstream_occupied(gp), 16);
    }

    #[test]
    fn ready_mask_follows_push_pop() {
        let (_, _, mut r) = setup();
        assert_eq!(r.in_ready[0], 0);
        r.push_input(0, 1, PacketId(0), 8);
        r.push_input(0, 1, PacketId(1), 8);
        r.push_input(0, 2, PacketId(2), 8);
        assert_eq!(r.in_ready[0], 0b110);
        assert_eq!(r.input_packets(), 3);
        assert_eq!(r.pop_input(0, 1), (PacketId(0), 8));
        // VC 1 still occupied: bit stays set.
        assert_eq!(r.in_ready[0], 0b110);
        r.pop_input(0, 1);
        assert_eq!(r.in_ready[0], 0b100);
        r.pop_input(0, 2);
        assert_eq!(r.in_ready[0], 0);
        assert_eq!(r.input_packets(), 0);
    }

    #[test]
    fn staged_count_follows_outputs() {
        let (_, _, mut r) = setup();
        r.stage_output(3, Staged { pkt: PacketId(9), size: 8, out_vc: 0 });
        assert_eq!(r.output_packets(), 1);
        let s = r.pop_output(3);
        assert_eq!(s.pkt, PacketId(9));
        assert_eq!(r.output_packets(), 0);
    }

    #[test]
    fn out_ready_mask_follows_stage_pop() {
        let (_, _, mut r) = setup();
        assert_eq!(r.out_ready, 0);
        r.stage_output(3, Staged { pkt: PacketId(1), size: 8, out_vc: 0 });
        r.stage_output(3, Staged { pkt: PacketId(2), size: 8, out_vc: 0 });
        r.stage_output(5, Staged { pkt: PacketId(3), size: 8, out_vc: 0 });
        assert_eq!(r.out_ready, (1 << 3) | (1 << 5));
        r.pop_output(3);
        // Port 3 still has a staged packet: bit stays set.
        assert_eq!(r.out_ready, (1 << 3) | (1 << 5));
        r.pop_output(3);
        assert_eq!(r.out_ready, 1 << 5);
        r.pop_output(5);
        assert_eq!(r.out_ready, 0);
        assert_eq!(r.output_packets(), 0);
    }
}
