//! Inter-chip fabric: topology-generic packet transport.
//!
//! The fabric keeps one directed bandwidth/latency [`Pipe`] per (chip,
//! neighbor-slot) of the configured [`Topology`] and forwards multi-hop
//! packets hop by hop. Routing is a pure function of link liveness, so
//! the fabric tabulates it as a next-hop table `routes[from][dest]`,
//! rebuilt only when liveness changes (construction, [`fail_link`],
//! checkpoint restore). A packet that lands at an intermediate chip is
//! routed once, from the table, onto the transit backlog of the link it
//! leaves by; [`tick`] feeds each link from its backlog until the link's
//! queue is full, so a tick costs O(links + packets moved) however deep
//! the backlog. On the paper's ring (Table 3: 12 bidirectional
//! NVLink-class links in total, 3 per adjacent pair, 96 GB/s per
//! direction per pair) this reproduces the original hard-wired ring
//! fabric bit-for-bit: slot 0 is clockwise, slot 1 counter-clockwise, and
//! the [`Ring`](crate::topology::Ring) routing policy is the original
//! shortest-path/balanced-tie-break/long-way-around logic.
//!
//! [`fail_link`]: FabricNetwork::fail_link
//! [`tick`]: FabricNetwork::tick

use crate::topology::{build_topology, Topology};
use mcgpu_types::{ChipId, MachineConfig, Pipe};
use std::collections::VecDeque;

/// A packet travelling on the fabric towards `dest`.
#[derive(Debug, Clone)]
struct FabricPacket<T> {
    dest: ChipId,
    bytes: u64,
    payload: T,
}

/// A packet waiting at an intermediate chip, tagged with its arrival
/// sequence number there. A chip's transit packets are spread over one
/// backlog per outgoing link plus a stalled list; the numbers recover
/// their single arrival order for re-routing and checkpoints.
type Transit<T> = (u64, FabricPacket<T>);

/// Why [`FabricNetwork::try_send`] returned the payload to the caller.
/// Both cases are backpressure — the caller retries — but a `NoRoute`
/// signals a typed dead-route condition (link failures disconnected the
/// destination), never a silent drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError<T> {
    /// The outgoing link queue is full this cycle.
    Full(T),
    /// Link failures have left no live path to the destination.
    NoRoute(T),
}

impl<T> SendError<T> {
    /// Recover the payload for a retry.
    pub fn into_payload(self) -> T {
        match self {
            SendError::Full(p) | SendError::NoRoute(p) => p,
        }
    }
}

/// The inter-chip fabric: one directed [`Pipe`] per (chip, neighbor slot)
/// of the configured topology.
///
/// # Example
/// ```
/// use mcgpu_noc::FabricNetwork;
/// use mcgpu_types::{ChipId, MachineConfig};
///
/// let cfg = MachineConfig::paper_baseline(); // 4-chip ring
/// let mut fabric: FabricNetwork<&str> = FabricNetwork::new(&cfg, 20);
/// fabric.try_send(ChipId(0), ChipId(2), "two hops", 16).unwrap();
/// let mut arrived = Vec::new();
/// for now in 0..200 {
///     fabric.tick(now);
///     arrived.extend(fabric.pop_arrivals(ChipId(2), now));
/// }
/// assert_eq!(arrived, vec!["two hops"]);
/// ```
#[derive(Debug)]
pub struct FabricNetwork<T> {
    chips: usize,
    topo: Box<dyn Topology>,
    /// `links[from][slot]` carries traffic from `from` to its `slot`-th
    /// neighbor. On a ring, slot 0 = clockwise (to chip+1), slot 1 =
    /// counter-clockwise.
    links: Vec<Vec<Pipe<FabricPacket<T>>>>,
    /// `alive[from][slot]`: whether that directed link can carry traffic.
    /// Links die in pairs (both directions of an adjacency) via
    /// [`FabricNetwork::fail_link`].
    alive: Vec<Vec<bool>>,
    /// `routes[from][dest]`: the outgoing slot at `from` towards `dest`
    /// under `alive` (`None` = no live path), i.e. [`Topology::route`]
    /// tabulated.
    routes: Vec<Vec<Option<usize>>>,
    /// `backlog[chip][slot]`: packets that completed a hop into `chip`
    /// and leave by `slot` next, waiting for room in that link's queue,
    /// in arrival order.
    backlog: Vec<Vec<VecDeque<Transit<T>>>>,
    /// Transit packets at each chip with no live route, in arrival order.
    /// Links never recover, so they wait here (conserved) until the
    /// engine's watchdog declares the machine wedged.
    stalled: Vec<Vec<Transit<T>>>,
    /// Next transit arrival sequence number.
    next_seq: u64,
    /// Packets that reached their destination, per chip.
    arrived: Vec<Vec<FabricPacket<T>>>,
    delivered: u64,
    bytes_sent: u64,
    /// Bytes injected per source chip (observability tap).
    sent_from: Vec<u64>,
}

impl<T> FabricNetwork<T> {
    /// Build the fabric for `cfg.topology` over `cfg.chips` chips with
    /// per-link bandwidth `cfg.interchip_pair_gbs` and per-hop latency
    /// `cfg.link_latency`; `queue_depth` bounds each link's injection
    /// queue.
    pub fn new(cfg: &MachineConfig, queue_depth: usize) -> Self {
        let topo = build_topology(cfg);
        let n = cfg.chips;
        let links: Vec<Vec<Pipe<FabricPacket<T>>>> = ChipId::all(n)
            .map(|c| {
                topo.neighbors(c)
                    .iter()
                    .map(|_| Pipe::new(topo.link_gbs(), topo.link_latency(), Some(queue_depth)))
                    .collect()
            })
            .collect();
        let alive = links.iter().map(|l| vec![true; l.len()]).collect();
        let backlog = links
            .iter()
            .map(|l| l.iter().map(|_| VecDeque::new()).collect())
            .collect();
        let mut fabric = FabricNetwork {
            chips: n,
            topo,
            links,
            alive,
            routes: vec![vec![None; n]; n],
            backlog,
            stalled: (0..n).map(|_| Vec::new()).collect(),
            next_seq: 0,
            arrived: (0..n).map(|_| Vec::new()).collect(),
            delivered: 0,
            bytes_sent: 0,
            sent_from: vec![0; n],
        };
        fabric.rebuild_routes();
        fabric
    }

    /// Recompute the next-hop table from `alive`.
    fn rebuild_routes(&mut self) {
        for from in ChipId::all(self.chips) {
            self.topo
                .route_row(from, &self.alive, &mut self.routes[from.index()]);
        }
    }

    /// Queue a transit packet at `chip` behind the link its route leaves
    /// by, or on the stalled list when it has no live route.
    fn place(&mut self, chip: usize, entry: Transit<T>) {
        match self.routes[chip][entry.1.dest.index()] {
            Some(slot) => self.backlog[chip][slot].push_back(entry),
            None => self.stalled[chip].push(entry),
        }
    }

    /// Take a packet into transit at `chip`, after every packet already
    /// waiting there.
    fn enter_transit(&mut self, chip: usize, pkt: FabricPacket<T>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.place(chip, (seq, pkt));
    }

    /// Transit packets waiting at `chip`.
    fn transit_len(&self, chip: usize) -> usize {
        self.backlog[chip].iter().map(VecDeque::len).sum::<usize>() + self.stalled[chip].len()
    }

    /// `chip`'s transit packets in arrival order.
    fn transit_in_order(&self, chip: usize) -> Vec<&Transit<T>> {
        let mut all: Vec<&Transit<T>> = self.backlog[chip]
            .iter()
            .flatten()
            .chain(&self.stalled[chip])
            .collect();
        all.sort_unstable_by_key(|&&(seq, _)| seq);
        all
    }

    /// The outgoing slot at `a` of the adjacency `a <-> b` (the first slot
    /// pointing at `b`, matching the original ring's direction mapping on
    /// a 2-chip ring where both slots reach the same chip).
    ///
    /// # Panics
    /// Panics if `a` and `b` are not adjacent — callers must hand in a
    /// validated fault plan.
    fn slot_towards(&self, a: ChipId, b: ChipId) -> usize {
        self.topo
            .neighbors(a)
            .iter()
            .position(|&n| n == b)
            .unwrap_or_else(|| {
                panic!("invariant violated: link fault endpoints {a:?} and {b:?} are not adjacent")
            })
    }

    /// Degrade the adjacency `a <-> b` to `factor` of its configured
    /// bandwidth, in both directions. Queued and in-flight packets are
    /// unaffected; future packets transmit at the reduced rate.
    pub fn degrade_link(&mut self, a: ChipId, b: ChipId, factor: f64) {
        let rate = self.topo.link_gbs() * factor;
        let s_ab = self.slot_towards(a, b);
        let s_ba = self.slot_towards(b, a);
        self.links[a.index()][s_ab].set_rate(rate);
        self.links[b.index()][s_ba].set_rate(rate);
    }

    /// Fail the adjacency `a <-> b` in both directions. Packets queued or
    /// in flight on the dead links are returned to their sending chip and
    /// re-routed along surviving links — conserved, not dropped.
    pub fn fail_link(&mut self, a: ChipId, b: ChipId) {
        let mut stranded = Vec::new();
        for (from, to) in [(a, b), (b, a)] {
            let slot = self.slot_towards(from, to);
            self.alive[from.index()][slot] = false;
            stranded.push((from.index(), self.links[from.index()][slot].drain()));
        }
        self.rebuild_routes();
        // Re-route every waiting packet in its chip's arrival order, then
        // append the stranded ones behind them.
        for chip in 0..self.chips {
            let mut waiting = std::mem::take(&mut self.stalled[chip]);
            for q in &mut self.backlog[chip] {
                waiting.extend(q.drain(..));
            }
            waiting.sort_unstable_by_key(|&(seq, _)| seq);
            for entry in waiting {
                self.place(chip, entry);
            }
        }
        for (chip, pkts) in stranded {
            for pkt in pkts {
                self.enter_transit(chip, pkt);
            }
        }
    }

    /// Whether the adjacency `a <-> b` is alive (in the `a -> b` direction;
    /// failures always take both).
    pub fn link_alive(&self, a: ChipId, b: ChipId) -> bool {
        self.alive[a.index()][self.slot_towards(a, b)]
    }

    /// The outgoing slot at `from` a packet for `dest` takes next under
    /// the current link liveness, or `None` when no live path remains:
    /// the fabric's route table, equal to [`Topology::route`] by
    /// construction.
    pub fn next_hop(&self, from: ChipId, dest: ChipId) -> Option<usize> {
        self.routes[from.index()][dest.index()]
    }

    /// Inject a packet at `from` destined for `to`.
    ///
    /// # Errors
    /// Returns the payload back as [`SendError::Full`] when the outgoing
    /// link queue is full, or [`SendError::NoRoute`] when link failures
    /// have left no live path from `from` to `to` (backpressure either way
    /// — the caller retries).
    ///
    /// # Panics
    /// Panics if `from == to`.
    pub fn try_send(
        &mut self,
        from: ChipId,
        to: ChipId,
        payload: T,
        bytes: u64,
    ) -> Result<(), SendError<T>> {
        assert_ne!(from, to, "fabric packets must cross chips");
        let Some(slot) = self.next_hop(from, to) else {
            return Err(SendError::NoRoute(payload));
        };
        let pkt = FabricPacket {
            dest: to,
            bytes,
            payload,
        };
        self.links[from.index()][slot]
            .try_push(pkt, bytes)
            .map(|()| {
                self.bytes_sent += bytes;
                self.sent_from[from.index()] += bytes;
            })
            .map_err(|pkt| SendError::Full(pkt.payload))
    }

    /// Whether `from` can currently inject a packet towards `to`.
    pub fn can_send(&self, from: ChipId, to: ChipId) -> bool {
        self.next_hop(from, to)
            .is_some_and(|slot| self.links[from.index()][slot].can_push())
    }

    /// Advance one cycle: feed each link from its transit backlog, move
    /// link traffic, and land completed hops.
    pub fn tick(&mut self, now: u64) {
        // Transit packets go first so they get this cycle's bandwidth,
        // oldest first, until the link's queue is full.
        for (pipe, backlog) in self
            .links
            .iter_mut()
            .flatten()
            .zip(self.backlog.iter_mut().flatten())
        {
            while pipe.can_push() {
                let Some((_, pkt)) = backlog.pop_front() else {
                    break;
                };
                let bytes = pkt.bytes;
                if pipe.try_push(pkt, bytes).is_err() {
                    unreachable!("can_push checked");
                }
            }
            pipe.tick(now);
        }
        // Land completed hops: deliver, or route onward from the table.
        for chip in 0..self.chips {
            for slot in 0..self.links[chip].len() {
                let next = self.topo.neighbors(ChipId(chip as u8))[slot];
                while let Some(pkt) = self.links[chip][slot].pop_ready(now) {
                    if pkt.dest == next {
                        self.delivered += 1;
                        self.arrived[next.index()].push(pkt);
                    } else {
                        self.enter_transit(next.index(), pkt);
                    }
                }
            }
        }
    }

    /// Take the packets that arrived at `chip`.
    pub fn pop_arrivals(&mut self, chip: ChipId, now: u64) -> Vec<T> {
        let mut out = Vec::new();
        self.pop_arrivals_into(chip, now, &mut out);
        out
    }

    /// Like [`pop_arrivals`](FabricNetwork::pop_arrivals), but appends into
    /// a caller-owned buffer — the per-cycle simulator loop reuses one
    /// scratch `Vec` instead of allocating each cycle.
    pub fn pop_arrivals_into(&mut self, chip: ChipId, _now: u64, out: &mut Vec<T>) {
        out.extend(self.arrived[chip.index()].drain(..).map(|p| p.payload));
    }

    /// Packets still anywhere in the network.
    pub fn len(&self) -> usize {
        ChipId::all(self.chips).map(|c| self.chip_load(c)).sum()
    }

    /// Whether the network is completely idle.
    pub fn is_empty(&self) -> bool {
        self.arrived.iter().all(Vec::is_empty)
            && self.stalled.iter().all(Vec::is_empty)
            && self.backlog.iter().flatten().all(VecDeque::is_empty)
            && self.links.iter().flatten().all(Pipe::is_empty)
    }

    /// Whether ticking the fabric is a state no-op: no packets anywhere
    /// (see [`is_empty`](FabricNetwork::is_empty)) and every link pipe's
    /// bandwidth budget has saturated at its credit cap. The engine's
    /// idle-cycle skip requires this before jumping the clock.
    pub fn tick_is_noop(&self) -> bool {
        self.is_empty() && self.links.iter().flatten().all(Pipe::tick_is_noop)
    }

    /// Packets currently held at `chip`: queued or in flight on its
    /// outgoing links, waiting in transit, or landed but not yet popped.
    /// Used for deadlock diagnostics.
    pub fn chip_load(&self, chip: ChipId) -> usize {
        let i = chip.index();
        self.links[i].iter().map(Pipe::len).sum::<usize>()
            + self.transit_len(i)
            + self.arrived[i].len()
    }

    /// Count payloads anywhere in the fabric (link pipes, transit buffers,
    /// landed-but-unpopped arrivals) matching `pred`. Used by the engine's
    /// request-conservation audit to count request-carrying packets while
    /// ignoring writeback/invalidate traffic.
    pub fn count_matching(&self, mut pred: impl FnMut(&T) -> bool) -> usize {
        let transit = self
            .backlog
            .iter()
            .flatten()
            .flatten()
            .chain(self.stalled.iter().flatten())
            .map(|(_, pkt)| pkt);
        self.links
            .iter()
            .flatten()
            .flat_map(Pipe::iter)
            .chain(transit)
            .chain(self.arrived.iter().flatten())
            .filter(|pkt| pred(&pkt.payload))
            .count()
    }

    /// Packets delivered to their final destination so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Total bytes injected so far.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Bytes injected so far by `chip` (observability tap).
    pub fn bytes_sent_from(&self, chip: ChipId) -> u64 {
        self.sent_from[chip.index()]
    }

    /// Serialize the full fabric state (link pipes with queued and
    /// in-flight packets, link liveness, transit and arrival buffers,
    /// counters) into a checkpoint payload, encoding each payload with
    /// `f`. Each chip's transit packets are written as one list in
    /// arrival order. The topology and route table are not serialized —
    /// the restoring side rebuilds them from the same [`MachineConfig`]
    /// (the checkpoint config fingerprint guarantees it matches) and the
    /// restored liveness.
    pub fn save_with(
        &self,
        e: &mut mcgpu_types::Enc,
        mut f: impl FnMut(&mut mcgpu_types::Enc, &T),
    ) {
        let mut put_pkt = |e: &mut mcgpu_types::Enc, pkt: &FabricPacket<T>| {
            e.put_u8(pkt.dest.0);
            e.put_u64(pkt.bytes);
            f(e, &pkt.payload);
        };
        e.put_seq_len(self.chips);
        for chip in 0..self.chips {
            for slot in 0..self.links[chip].len() {
                self.links[chip][slot].save_with(e, &mut put_pkt);
                e.put_bool(self.alive[chip][slot]);
            }
            let transit = self.transit_in_order(chip);
            e.put_seq_len(transit.len());
            for (_, pkt) in transit {
                put_pkt(e, pkt);
            }
            e.put_seq_len(self.arrived[chip].len());
            for pkt in &self.arrived[chip] {
                put_pkt(e, pkt);
            }
            e.put_u64(self.sent_from[chip]);
        }
        e.put_u64(self.delivered);
        e.put_u64(self.bytes_sent);
    }

    /// Overwrite this fabric's dynamic state from a payload saved by
    /// [`FabricNetwork::save_with`], decoding each payload with `f`. The
    /// fabric must have been constructed for the same machine (the slot
    /// count per chip is structural and is not re-validated here beyond
    /// the chip count).
    ///
    /// # Errors
    /// Returns a decode error on truncated input or a chip-count mismatch.
    pub fn load_into(
        &mut self,
        d: &mut mcgpu_types::Dec<'_>,
        mut f: impl FnMut(&mut mcgpu_types::Dec<'_>) -> mcgpu_types::CkptResult<T>,
    ) -> mcgpu_types::CkptResult<()> {
        let chips = d.get_seq_len()?;
        if chips != self.chips {
            return Err(mcgpu_types::CkptError::Decode(format!(
                "fabric chip count mismatch: snapshot {chips}, live {}",
                self.chips
            )));
        }
        let mut get_pkt =
            |d: &mut mcgpu_types::Dec<'_>| -> mcgpu_types::CkptResult<FabricPacket<T>> {
                let dest = ChipId(d.get_u8()?);
                let bytes = d.get_u64()?;
                let payload = f(d)?;
                Ok(FabricPacket {
                    dest,
                    bytes,
                    payload,
                })
            };
        // Transit packets are routed only once every chip's liveness is
        // back.
        let mut transit = Vec::with_capacity(chips);
        for chip in 0..chips {
            for slot in 0..self.links[chip].len() {
                self.links[chip][slot] = Pipe::load_with(d, &mut get_pkt)?;
                self.alive[chip][slot] = d.get_bool()?;
            }
            let n = d.get_seq_len()?;
            let mut waiting = Vec::with_capacity(n);
            for _ in 0..n {
                waiting.push(get_pkt(d)?);
            }
            transit.push(waiting);
            let n = d.get_seq_len()?;
            self.arrived[chip].clear();
            for _ in 0..n {
                let pkt = get_pkt(d)?;
                self.arrived[chip].push(pkt);
            }
            self.sent_from[chip] = d.get_u64()?;
        }
        self.delivered = d.get_u64()?;
        self.bytes_sent = d.get_u64()?;
        self.rebuild_routes();
        for (chip, waiting) in transit.into_iter().enumerate() {
            self.stalled[chip].clear();
            self.backlog[chip].iter_mut().for_each(VecDeque::clear);
            for pkt in waiting {
                self.enter_transit(chip, pkt);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgpu_types::TopologyKind;

    fn cfg() -> MachineConfig {
        MachineConfig::paper_baseline()
    }

    fn run_until_empty<T>(fab: &mut FabricNetwork<T>, sink: &mut Vec<(usize, T)>, max: u64) {
        for now in 0..max {
            fab.tick(now);
            for chip in 0..fab.chips {
                for p in fab.pop_arrivals(ChipId(chip as u8), now) {
                    sink.push((chip, p));
                }
            }
            if fab.is_empty() {
                break;
            }
        }
    }

    #[test]
    fn adjacent_delivery() {
        let mut ring: FabricNetwork<u32> = FabricNetwork::new(&cfg(), 16);
        ring.try_send(ChipId(0), ChipId(1), 7, 16).unwrap();
        let mut got = Vec::new();
        run_until_empty(&mut ring, &mut got, 1000);
        assert_eq!(got, vec![(1, 7)]);
        assert_eq!(ring.delivered(), 1);
    }

    #[test]
    fn two_hop_delivery_takes_two_latencies() {
        let c = cfg();
        let mut ring: FabricNetwork<u32> = FabricNetwork::new(&c, 16);
        ring.try_send(ChipId(0), ChipId(2), 9, 16).unwrap();
        let mut arrival_cycle = None;
        for now in 0..1000 {
            ring.tick(now);
            if !ring.pop_arrivals(ChipId(2), now).is_empty() {
                arrival_cycle = Some(now);
                break;
            }
        }
        let t = arrival_cycle.expect("delivered");
        assert!(
            t >= 2 * c.link_latency,
            "two hops must cost two link latencies, got {t}"
        );
    }

    #[test]
    fn bandwidth_limits_throughput() {
        let mut c = cfg();
        c.interchip_pair_gbs = 16.0; // 16 B/cycle per direction
        c.link_latency = 0;
        let mut ring: FabricNetwork<u32> = FabricNetwork::new(&c, 4);
        let mut sent = 0u32;
        let mut delivered = 0;
        for now in 0..1000 {
            ring.tick(now);
            // Saturate chip0 -> chip1 with 128 B packets.
            if ring.try_send(ChipId(0), ChipId(1), sent, 128).is_ok() {
                sent += 1;
            }
            delivered += ring.pop_arrivals(ChipId(1), now).len();
        }
        // 16 B/cy x 1000 cy / 128 B = ~125 packets.
        assert!((110..=140).contains(&delivered), "delivered {delivered}");
    }

    #[test]
    fn opposite_chips_balance_directions() {
        let c = cfg();
        // chip0 -> chip2 ties: even source goes clockwise; chip1 -> chip3
        // (odd source) goes counter-clockwise.
        let mut ring: FabricNetwork<&str> = FabricNetwork::new(&c, 16);
        ring.try_send(ChipId(0), ChipId(2), "a", 16).unwrap();
        ring.try_send(ChipId(1), ChipId(3), "b", 16).unwrap();
        let mut got = Vec::new();
        run_until_empty(&mut ring, &mut got, 2000);
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn failed_link_reroutes_the_long_way() {
        let c = cfg();
        let mut ring: FabricNetwork<u32> = FabricNetwork::new(&c, 16);
        ring.fail_link(ChipId(0), ChipId(1));
        assert!(!ring.link_alive(ChipId(0), ChipId(1)));
        // 0 -> 1 must now take 0 -> 3 -> 2 -> 1: three hops instead of one.
        ring.try_send(ChipId(0), ChipId(1), 42, 16).unwrap();
        let mut arrival = None;
        for now in 0..2000 {
            ring.tick(now);
            if !ring.pop_arrivals(ChipId(1), now).is_empty() {
                arrival = Some(now);
                break;
            }
        }
        let t = arrival.expect("rerouted packet must still arrive");
        assert!(
            t >= 3 * c.link_latency,
            "long way around is three hops, got {t}"
        );
        assert_eq!(ring.delivered(), 1);
    }

    #[test]
    fn fail_link_conserves_queued_packets() {
        let mut c = cfg();
        c.interchip_pair_gbs = 16.0;
        let mut ring: FabricNetwork<u32> = FabricNetwork::new(&c, 16);
        // Queue several packets on 0 -> 1, then kill the link before they move.
        for i in 0..8 {
            ring.try_send(ChipId(0), ChipId(1), i, 128).unwrap();
        }
        ring.fail_link(ChipId(0), ChipId(1));
        let mut got = Vec::new();
        run_until_empty(&mut ring, &mut got, 5000);
        assert_eq!(got.len(), 8, "every stranded packet must be re-delivered");
        assert!(got.iter().all(|&(chip, _)| chip == 1));
    }

    #[test]
    fn partitioned_ring_refuses_injection_but_holds_packets() {
        let c = cfg();
        let mut ring: FabricNetwork<u32> = FabricNetwork::new(&c, 16);
        ring.try_send(ChipId(0), ChipId(2), 5, 16).unwrap();
        // Cut both directions out of the packet's current region.
        ring.fail_link(ChipId(0), ChipId(1));
        ring.fail_link(ChipId(3), ChipId(0));
        assert!(!ring.can_send(ChipId(0), ChipId(2)));
        assert_eq!(
            ring.try_send(ChipId(0), ChipId(2), 6, 16),
            Err(SendError::NoRoute(6))
        );
        for now in 0..500 {
            ring.tick(now);
        }
        // The stranded packet is conserved, not silently dropped.
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.delivered(), 0);
    }

    #[test]
    fn degraded_link_halves_throughput() {
        let mut c = cfg();
        c.interchip_pair_gbs = 16.0;
        c.link_latency = 0;
        let mut full: FabricNetwork<u32> = FabricNetwork::new(&c, 4);
        let mut degraded: FabricNetwork<u32> = FabricNetwork::new(&c, 4);
        degraded.degrade_link(ChipId(0), ChipId(1), 0.5);
        let mut counts = [0usize; 2];
        for (k, ring) in [&mut full, &mut degraded].into_iter().enumerate() {
            let mut sent = 0;
            for now in 0..1000 {
                ring.tick(now);
                if ring.try_send(ChipId(0), ChipId(1), sent, 128).is_ok() {
                    sent += 1;
                }
                counts[k] += ring.pop_arrivals(ChipId(1), now).len();
            }
        }
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!(
            (0.4..=0.6).contains(&ratio),
            "half-rate link should move ~half the packets: {counts:?}"
        );
    }

    #[test]
    fn backpressure_on_full_link() {
        let mut c = cfg();
        c.interchip_pair_gbs = 0.0;
        let mut ring: FabricNetwork<u32> = FabricNetwork::new(&c, 1);
        assert!(ring.try_send(ChipId(0), ChipId(1), 1, 16).is_ok());
        assert_eq!(
            ring.try_send(ChipId(0), ChipId(1), 2, 16),
            Err(SendError::Full(2))
        );
        assert!(!ring.can_send(ChipId(0), ChipId(1)));
    }

    #[test]
    fn mesh_delivers_across_the_diagonal() {
        let mut c = cfg();
        c.topology = TopologyKind::Mesh2D;
        let mut mesh: FabricNetwork<u32> = FabricNetwork::new(&c, 16);
        // 2x2 mesh: 0 and 3 are diagonal, two hops apart.
        mesh.try_send(ChipId(0), ChipId(3), 11, 16).unwrap();
        let mut got = Vec::new();
        run_until_empty(&mut mesh, &mut got, 2000);
        assert_eq!(got, vec![(3, 11)]);
    }

    #[test]
    fn fully_connected_is_single_hop_between_any_pair() {
        let mut c = cfg();
        c.topology = TopologyKind::FullyConnected;
        c.chips = 8;
        let mut fc: FabricNetwork<u32> = FabricNetwork::new(&c, 16);
        fc.try_send(ChipId(0), ChipId(5), 3, 16).unwrap();
        let mut arrival = None;
        for now in 0..1000 {
            fc.tick(now);
            if !fc.pop_arrivals(ChipId(5), now).is_empty() {
                arrival = Some(now);
                break;
            }
        }
        let t = arrival.expect("delivered");
        assert!(
            t < 2 * c.link_latency,
            "all-to-all should deliver in one hop, got {t}"
        );
    }

    #[test]
    fn two_chip_ring_survives_single_link_failure() {
        let mut c = cfg();
        c.chips = 2;
        let mut ring: FabricNetwork<u32> = FabricNetwork::new(&c, 16);
        // fail_link takes the slot-0 parallel links on both sides; the
        // slot-1 pair survives and traffic reroutes onto it.
        ring.fail_link(ChipId(0), ChipId(1));
        ring.try_send(ChipId(0), ChipId(1), 9, 16).unwrap();
        let mut got = Vec::new();
        run_until_empty(&mut ring, &mut got, 1000);
        assert_eq!(got, vec![(1, 9)]);
    }
}
