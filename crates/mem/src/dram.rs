//! DRAM channel and memory partition models.
//!
//! Each chip owns one memory partition of `channels_per_chip` DRAM channels
//! (Table 3: 8 channels, 1.75 TB/s ÷ 32 total). A channel is a
//! bandwidth-limited, fixed-latency [`Pipe`]; bank conflicts are not
//! modelled because the PAE mapping distributes accesses uniformly over
//! banks (§3.3: "We verified that this is indeed the case for our setup").

use crate::interleave;
use mcgpu_types::{earliest_event, AccessKind, ActiveSet, LineAddr, Pipe, Request};

/// A request queued at a DRAM channel, retaining what the simulator needs to
/// route the eventual response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramRequest {
    /// The originating memory request.
    pub request: Request,
    /// Whether the miss was issued by an LLC slice on the partition's own
    /// chip (`false` means an SM-side remote miss that bypassed the local
    /// slice and must return over the inter-chip link).
    pub from_local_slice: bool,
    /// Index (within the chip) of the slice that should be filled when the
    /// access completes, if any.
    pub slice: Option<u16>,
}

/// One chip's memory partition: a set of independent DRAM channels.
///
/// A tick, a pop and a next-event query visit only the channels that are
/// not [dormant](Pipe::is_dormant), so their cost follows the traffic
/// rather than the channel count.
#[derive(Debug, Clone)]
pub struct MemoryPartition {
    channels: Vec<Pipe<DramRequest>>,
    /// Channels that may not be dormant: a push adds its channel, a tick
    /// that leaves a channel dormant removes it, and a restore, throttle
    /// or channel failure marks every channel. Derived, never serialized.
    active: ActiveSet,
    /// Channels still accepting traffic; a failed channel's queue is
    /// redistributed and it stops being a PAE target.
    channel_alive: Vec<bool>,
    base_channel_gbs: f64,
    line_size: u64,
    served_reads: u64,
    served_writes: u64,
    /// Bytes accepted into the partition (reads, writes and writebacks;
    /// observability tap — channel re-distribution after a fault does not
    /// re-count).
    accepted_bytes: u64,
}

impl MemoryPartition {
    /// Create a partition with `channels` channels of `channel_gbs` GB/s
    /// each, `latency` cycles access latency, and `line_size`-byte lines.
    ///
    /// # Panics
    /// Panics if `channels` is zero.
    pub fn new(channels: usize, channel_gbs: f64, latency: u64, line_size: u64) -> Self {
        assert!(channels > 0);
        MemoryPartition {
            channels: (0..channels)
                .map(|_| Pipe::new(channel_gbs, latency, None))
                .collect(),
            active: ActiveSet::full(channels),
            channel_alive: vec![true; channels],
            base_channel_gbs: channel_gbs,
            line_size,
            served_reads: 0,
            served_writes: 0,
            accepted_bytes: 0,
        }
    }

    /// Number of channels (including failed ones).
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Number of channels still serving traffic.
    pub fn live_channels(&self) -> usize {
        self.channel_alive.iter().filter(|&&a| a).count()
    }

    /// The PAE target channel for `line`, skipping dead channels: the hash
    /// picks among live channels, so a failure re-spreads its traffic over
    /// the survivors deterministically.
    ///
    /// # Panics
    /// Panics if every channel has failed — the engine's fault plan is
    /// validated to keep at least the machine alive, and a fully dead
    /// partition would silently absorb requests otherwise.
    fn target_channel(&self, line: LineAddr) -> usize {
        let live = self.live_channels();
        assert!(
            live > 0,
            "invariant violated: memory partition has no live DRAM channels"
        );
        let pick = interleave::channel_index(line, live);
        self.channel_alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .nth(pick)
            .map(|(i, _)| i)
            .expect("nth(pick) exists: pick < live channel count")
    }

    /// Throttle every live channel to `factor` of its configured bandwidth
    /// (thermal throttling of the whole stack). In-flight accesses finish
    /// at their original timing.
    pub fn throttle(&mut self, factor: f64) {
        let rate = self.base_channel_gbs * factor;
        for (ch, alive) in self.channels.iter_mut().zip(&self.channel_alive) {
            if *alive {
                ch.set_rate(rate);
            }
        }
        self.wake_all();
    }

    /// Fail one channel: it stops being a PAE target and everything queued
    /// or in flight on it is re-issued to the surviving channels (conserved,
    /// re-paying queueing but not losing requests).
    ///
    /// Failing the last live channel is rejected (no-op returning `false`)
    /// — a chip with zero DRAM would wedge every organization identically,
    /// which is not an interesting experiment and would violate the
    /// request-conservation property.
    pub fn fail_channel(&mut self, channel: usize) -> bool {
        if !self.channel_alive[channel] || self.live_channels() == 1 {
            return false;
        }
        self.channel_alive[channel] = false;
        for dreq in self.channels[channel].drain() {
            self.repush(dreq);
        }
        self.wake_all();
        true
    }

    /// The DRAM byte cost of `dreq`.
    fn byte_cost(&self, dreq: &DramRequest) -> u64 {
        if dreq.request.id == mcgpu_types::RequestId(u64::MAX) {
            self.line_size // writeback sentinel: full dirty line
        } else {
            match dreq.request.access.kind {
                AccessKind::Read => self.line_size,
                AccessKind::Write => mcgpu_types::packet::WRITE_PAYLOAD_BYTES,
            }
        }
    }

    /// Route `dreq` to its (live) PAE channel, charging the right byte cost.
    fn repush(&mut self, dreq: DramRequest) {
        let line = dreq.request.access.addr.line(self.line_size);
        let ch = self.target_channel(line);
        let bytes = self.byte_cost(&dreq);
        // DRAM channels are unbounded queues: backpressure is applied
        // upstream by the LLC/NoC queues in the simulator.
        self.channels[ch]
            .try_push(dreq, bytes)
            .expect("unbounded channel queue");
        self.active.insert(ch);
    }

    /// Enqueue a request; the channel is chosen by the PAE hash of the line
    /// address. Reads occupy a line of DRAM bandwidth; writes likewise
    /// (write-through traffic ultimately writes a full line's sector burst —
    /// we charge the 32 B coalesced sector).
    pub fn push(&mut self, dreq: DramRequest) {
        self.accepted_bytes += self.byte_cost(&dreq);
        self.repush(dreq);
    }

    /// Enqueue a raw writeback of `line` (dirty eviction) without an
    /// originating request; consumes bandwidth but produces no response.
    pub fn push_writeback(&mut self, line: LineAddr) {
        // A writeback moves a full dirty line. We model it as a bandwidth
        // consumer only: push a sentinel that is dropped on completion.
        let sentinel = DramRequest {
            request: Request {
                id: mcgpu_types::RequestId(u64::MAX),
                origin: mcgpu_types::ClusterId::default(),
                access: mcgpu_types::MemAccess::write(line.base(self.line_size)),
                home: mcgpu_types::ChipId::default(),
            },
            from_local_slice: true,
            slice: None,
        };
        self.accepted_bytes += self.byte_cost(&sentinel);
        self.repush(sentinel);
    }

    /// Advance all channels one cycle.
    pub fn tick(&mut self, now: u64) {
        let channels = &mut self.channels;
        self.active.retain(|i| {
            let ch = &mut channels[i];
            ch.tick(now);
            !ch.is_dormant()
        });
    }

    /// Mark every channel active, as a restore does. Visiting a dormant
    /// channel is a no-op, so this never changes results; the
    /// differential tests call it every cycle to make the partition visit
    /// every channel.
    pub fn wake_all(&mut self) {
        self.active.fill();
    }

    /// The next cycle after `now` at which ticking or popping the
    /// partition can change state: the earliest [`Pipe::next_event`] over
    /// its channels, failed ones included (`u64::MAX` when every channel
    /// is empty and saturated).
    pub fn next_event(&self, now: u64) -> u64 {
        earliest_event(
            now,
            self.active.iter().map(|i| self.channels[i].next_event(now)),
        )
    }

    /// Pop all requests whose DRAM access completed this cycle. Writeback
    /// sentinels are filtered out here.
    pub fn pop_ready(&mut self, now: u64) -> Vec<DramRequest> {
        let mut out = Vec::new();
        self.pop_ready_into(now, &mut out);
        out
    }

    /// Like [`pop_ready`](MemoryPartition::pop_ready), but appends into a
    /// caller-owned buffer — the per-cycle simulator loop reuses one
    /// scratch `Vec` instead of allocating each cycle.
    pub fn pop_ready_into(&mut self, now: u64, out: &mut Vec<DramRequest>) {
        for i in self.active.iter() {
            while let Some(d) = self.channels[i].pop_ready(now) {
                if d.request.id == mcgpu_types::RequestId(u64::MAX) {
                    continue; // completed writeback
                }
                match d.request.access.kind {
                    AccessKind::Read => self.served_reads += 1,
                    AccessKind::Write => self.served_writes += 1,
                }
                out.push(d);
            }
        }
    }

    /// Total requests currently inside the partition.
    pub fn len(&self) -> usize {
        self.channels.iter().map(|c| c.len()).sum()
    }

    /// Entries carrying a live request (writeback sentinels excluded) —
    /// exactly the entries the engine's in-flight counter covers, for the
    /// request-conservation audit.
    pub fn pending_requests(&self) -> usize {
        self.channels
            .iter()
            .flat_map(|c| c.iter())
            .filter(|d| d.request.id != mcgpu_types::RequestId(u64::MAX))
            .count()
    }

    /// Whether all channels are idle.
    pub fn is_empty(&self) -> bool {
        self.active.iter().all(|i| self.channels[i].is_empty())
    }

    /// Reads served so far.
    pub fn served_reads(&self) -> u64 {
        self.served_reads
    }

    /// Writes served so far.
    pub fn served_writes(&self) -> u64 {
        self.served_writes
    }

    /// Bytes accepted into the partition so far (observability tap).
    pub fn accepted_bytes(&self) -> u64 {
        self.accepted_bytes
    }

    /// Serialize the full partition state (every channel pipe with queued
    /// and in-flight requests, liveness, counters) into a checkpoint
    /// payload.
    pub fn save(&self, e: &mut mcgpu_types::Enc) {
        e.put_seq_len(self.channels.len());
        let put_dreq = |e: &mut mcgpu_types::Enc, dreq: &DramRequest| {
            e.put_request(&dreq.request);
            e.put_bool(dreq.from_local_slice);
            match dreq.slice {
                None => e.put_bool(false),
                Some(s) => {
                    e.put_bool(true);
                    e.put_u16(s);
                }
            }
        };
        for (ch, alive) in self.channels.iter().zip(&self.channel_alive) {
            ch.save_with(e, put_dreq);
            e.put_bool(*alive);
        }
        e.put_f64(self.base_channel_gbs);
        e.put_u64(self.line_size);
        e.put_u64(self.served_reads);
        e.put_u64(self.served_writes);
        e.put_u64(self.accepted_bytes);
    }

    /// Overwrite this partition's state from a payload saved by
    /// [`MemoryPartition::save`]. The partition must have been constructed
    /// with the same channel count. Every channel starts active.
    ///
    /// # Errors
    /// Returns a decode error on truncated input or a channel-count
    /// mismatch.
    pub fn load_into(&mut self, d: &mut mcgpu_types::Dec<'_>) -> mcgpu_types::CkptResult<()> {
        let n = d.get_seq_len()?;
        if n != self.channels.len() {
            return Err(mcgpu_types::CkptError::Decode(format!(
                "DRAM channel count mismatch: snapshot {n}, live {}",
                self.channels.len()
            )));
        }
        let get_dreq = |d: &mut mcgpu_types::Dec<'_>| -> mcgpu_types::CkptResult<DramRequest> {
            let request = d.get_request()?;
            let from_local_slice = d.get_bool()?;
            let slice = if d.get_bool()? {
                Some(d.get_u16()?)
            } else {
                None
            };
            Ok(DramRequest {
                request,
                from_local_slice,
                slice,
            })
        };
        for i in 0..n {
            self.channels[i] = Pipe::load_with(d, get_dreq)?;
            self.channel_alive[i] = d.get_bool()?;
        }
        self.base_channel_gbs = d.get_f64()?;
        self.line_size = d.get_u64()?;
        self.served_reads = d.get_u64()?;
        self.served_writes = d.get_u64()?;
        self.accepted_bytes = d.get_u64()?;
        self.wake_all();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgpu_types::{Address, ChipId, ClusterId, MemAccess, RequestId};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn bytes(mp: &MemoryPartition) -> Vec<u8> {
        let mut e = mcgpu_types::Enc::new();
        mp.save(&mut e);
        e.into_bytes()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `next_event` is never late: after random bursts of reads,
        /// writes and writebacks, with channels throttled and failed
        /// mid-run, ticking and popping every cycle before the reported
        /// event completes nothing and leaves the saved bytes unchanged.
        #[test]
        fn next_event_is_never_late(
            channels in 1usize..6,
            channel_gbs in 4.0f64..64.0,
            latency in 0u64..150,
            seed in any::<u64>(),
        ) {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let mut mp = MemoryPartition::new(channels, channel_gbs, latency, 128);
            let mut now = 0u64;
            let mut next_id = 0u64;
            let mut done = Vec::new();
            for _ in 0..30 {
                for _ in 0..rng.gen_range(1..25u32) {
                    now += 1;
                    for _ in 0..rng.gen_range(0..3u32) {
                        let line = rng.gen_range(0..4096u64);
                        if rng.gen_bool(0.2) {
                            mp.push_writeback(LineAddr(line));
                        } else {
                            mp.push(req(next_id, line * 128, rng.gen_bool(0.3)));
                            next_id += 1;
                        }
                    }
                    if rng.gen_bool(0.02) {
                        mp.throttle(rng.gen_range(0.1..1.0));
                    }
                    if rng.gen_bool(0.01) {
                        mp.fail_channel(rng.gen_range(0..channels));
                    }
                    mp.tick(now);
                    mp.pop_ready_into(now, &mut done);
                }
                let event = mp.next_event(now);
                prop_assert!(event > now);
                let before = bytes(&mp);
                let horizon = event.min(now + 2_000);
                for t in now + 1..horizon {
                    mp.tick(t);
                    done.clear();
                    mp.pop_ready_into(t, &mut done);
                    prop_assert!(done.is_empty(), "completed before event {}", event);
                    prop_assert_eq!(&bytes(&mp), &before, "state moved before event {}", event);
                }
                now = horizon - 1;
            }
        }
    }

    fn req(id: u64, addr: u64, write: bool) -> DramRequest {
        DramRequest {
            request: Request {
                id: RequestId(id),
                origin: ClusterId::new(ChipId(0), 0),
                access: if write {
                    MemAccess::write(Address::new(addr))
                } else {
                    MemAccess::read(Address::new(addr))
                },
                home: ChipId(0),
            },
            from_local_slice: true,
            slice: None,
        }
    }

    #[test]
    fn read_completes_after_latency() {
        let mut mp = MemoryPartition::new(2, 1000.0, 100, 128);
        mp.push(req(1, 0x1000, false));
        for now in 0..100 {
            mp.tick(now);
            assert!(mp.pop_ready(now).is_empty(), "at {now}");
        }
        mp.tick(100);
        let done = mp.pop_ready(100);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].request.id, RequestId(1));
        assert_eq!(mp.served_reads(), 1);
    }

    #[test]
    fn bandwidth_throttles_throughput() {
        // 1 channel x 16 B/cycle; 128 B reads: one completes every 8 cycles.
        let mut mp = MemoryPartition::new(1, 16.0, 0, 128);
        for i in 0..100 {
            mp.push(req(i, i * 128, false));
        }
        let mut completed = 0;
        for now in 0..400 {
            mp.tick(now);
            completed += mp.pop_ready(now).len();
        }
        // ~400/8 = 50 reads in 400 cycles.
        assert!((45..=55).contains(&completed), "completed {completed}");
    }

    #[test]
    fn channels_work_in_parallel() {
        let mut one = MemoryPartition::new(1, 16.0, 0, 128);
        let mut eight = MemoryPartition::new(8, 16.0, 0, 128);
        for i in 0..400 {
            one.push(req(i, i * 128, false));
            eight.push(req(i, i * 128, false));
        }
        let (mut c1, mut c8) = (0, 0);
        for now in 0..400 {
            one.tick(now);
            eight.tick(now);
            c1 += one.pop_ready(now).len();
            c8 += eight.pop_ready(now).len();
        }
        assert!(c8 > 5 * c1, "c1={c1} c8={c8}");
    }

    #[test]
    fn writebacks_consume_bandwidth_but_produce_nothing() {
        let mut mp = MemoryPartition::new(1, 16.0, 0, 128);
        mp.push_writeback(LineAddr(1));
        mp.push(req(7, 0x5000, false));
        let mut got = Vec::new();
        for now in 0..64 {
            mp.tick(now);
            got.extend(mp.pop_ready(now));
        }
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].request.id, RequestId(7));
    }

    #[test]
    fn failed_channel_redistributes_and_conserves() {
        let mut mp = MemoryPartition::new(4, 16.0, 0, 128);
        for i in 0..64 {
            mp.push(req(i, i * 128, false));
        }
        let queued = mp.len();
        assert!(mp.fail_channel(1));
        assert_eq!(mp.len(), queued, "failure must not lose requests");
        let mut completed = 0;
        for now in 0..2000 {
            mp.tick(now);
            completed += mp.pop_ready(now).len();
        }
        assert_eq!(completed, 64, "every request still completes");
        assert_eq!(mp.live_channels(), 3);
        // Dead channels never receive new traffic.
        assert!(!mp.fail_channel(1), "double-failing is a no-op");
    }

    #[test]
    fn last_live_channel_cannot_fail() {
        let mut mp = MemoryPartition::new(2, 16.0, 0, 128);
        assert!(mp.fail_channel(0));
        assert!(!mp.fail_channel(1), "last channel must survive");
        assert_eq!(mp.live_channels(), 1);
        mp.push(req(1, 0x1000, false));
        mp.tick(0);
        assert_eq!(mp.pop_ready(0).len(), 1);
    }

    #[test]
    fn throttle_halves_throughput() {
        let mut full = MemoryPartition::new(1, 16.0, 0, 128);
        let mut slow = MemoryPartition::new(1, 16.0, 0, 128);
        slow.throttle(0.5);
        for i in 0..200 {
            full.push(req(i, i * 128, false));
            slow.push(req(i, i * 128, false));
        }
        let (mut cf, mut cs) = (0, 0);
        for now in 0..800 {
            full.tick(now);
            slow.tick(now);
            cf += full.pop_ready(now).len();
            cs += slow.pop_ready(now).len();
        }
        let ratio = cs as f64 / cf as f64;
        assert!((0.4..=0.6).contains(&ratio), "cf={cf} cs={cs}");
    }

    #[test]
    fn writes_are_counted() {
        let mut mp = MemoryPartition::new(1, 1000.0, 1, 128);
        mp.push(req(1, 0, true));
        for now in 0..4 {
            mp.tick(now);
            mp.pop_ready(now);
        }
        assert_eq!(mp.served_writes(), 1);
    }
}
