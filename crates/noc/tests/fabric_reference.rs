//! Differential test: `FabricNetwork` (next-hop table, one transit
//! backlog per outgoing link) against a reference copy of the fabric it
//! replaced — one transit list per chip, every waiting packet re-routed
//! through `Topology::route` on every tick.
//!
//! Both fabrics run in lockstep on ring, fully-connected and mesh
//! machines of 2–16 chips under saturating random injection, so transit
//! backlogs form, with random link failures (including partitions that
//! strand packets) and degradations mid-run. Every cycle, per-chip
//! arrivals, `try_send` outcomes, `len`, `chip_load` and `tick_is_noop`
//! must agree. At random cycles the checkpoint bytes must agree, and the
//! fabric is swapped for one restored from those bytes, which must save
//! back to the same bytes and keep agreeing from then on.

use mcgpu_noc::{build_topology, FabricNetwork, SendError, Topology};
use mcgpu_types::{ChipId, Dec, Enc, MachineConfig, Pipe, TopologyKind};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

#[derive(Debug)]
struct Packet {
    dest: ChipId,
    bytes: u64,
    payload: u32,
}

/// The reference fabric: the per-hop re-routing packet mover.
struct Reference {
    chips: usize,
    topo: Box<dyn Topology>,
    links: Vec<Vec<Pipe<Packet>>>,
    alive: Vec<Vec<bool>>,
    transit: Vec<Vec<Packet>>,
    arrived: Vec<Vec<Packet>>,
    delivered: u64,
    bytes_sent: u64,
    sent_from: Vec<u64>,
}

impl Reference {
    fn new(cfg: &MachineConfig, queue_depth: usize) -> Self {
        let topo = build_topology(cfg);
        let n = cfg.chips;
        let links: Vec<Vec<Pipe<Packet>>> = ChipId::all(n)
            .map(|c| {
                topo.neighbors(c)
                    .iter()
                    .map(|_| Pipe::new(topo.link_gbs(), topo.link_latency(), Some(queue_depth)))
                    .collect()
            })
            .collect();
        Reference {
            chips: n,
            alive: links.iter().map(|l| vec![true; l.len()]).collect(),
            links,
            topo,
            transit: (0..n).map(|_| Vec::new()).collect(),
            arrived: (0..n).map(|_| Vec::new()).collect(),
            delivered: 0,
            bytes_sent: 0,
            sent_from: vec![0; n],
        }
    }

    fn slot_towards(&self, a: ChipId, b: ChipId) -> usize {
        self.topo
            .neighbors(a)
            .iter()
            .position(|&n| n == b)
            .expect("adjacent")
    }

    fn degrade_link(&mut self, a: ChipId, b: ChipId, factor: f64) {
        let rate = self.topo.link_gbs() * factor;
        let (s_ab, s_ba) = (self.slot_towards(a, b), self.slot_towards(b, a));
        self.links[a.index()][s_ab].set_rate(rate);
        self.links[b.index()][s_ba].set_rate(rate);
    }

    fn fail_link(&mut self, a: ChipId, b: ChipId) {
        for (from, to) in [(a, b), (b, a)] {
            let slot = self.slot_towards(from, to);
            self.alive[from.index()][slot] = false;
            let stranded = self.links[from.index()][slot].drain();
            self.transit[from.index()].extend(stranded);
        }
    }

    fn try_send(
        &mut self,
        from: ChipId,
        to: ChipId,
        payload: u32,
        bytes: u64,
    ) -> Result<(), SendError<u32>> {
        let Some(slot) = self.topo.route(from, to, &self.alive) else {
            return Err(SendError::NoRoute(payload));
        };
        let pkt = Packet {
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

    fn can_send(&self, from: ChipId, to: ChipId) -> bool {
        self.topo
            .route(from, to, &self.alive)
            .is_some_and(|slot| self.links[from.index()][slot].can_push())
    }

    fn tick(&mut self, now: u64) {
        for chip in 0..self.chips {
            for pkt in std::mem::take(&mut self.transit[chip]) {
                match self.topo.route(ChipId(chip as u8), pkt.dest, &self.alive) {
                    Some(slot) => {
                        let bytes = pkt.bytes;
                        if let Err(p) = self.links[chip][slot].try_push(pkt, bytes) {
                            self.transit[chip].push(p);
                        }
                    }
                    None => self.transit[chip].push(pkt),
                }
            }
        }
        for pipe in self.links.iter_mut().flatten() {
            pipe.tick(now);
        }
        for chip in 0..self.chips {
            for slot in 0..self.links[chip].len() {
                let next = self.topo.neighbors(ChipId(chip as u8))[slot];
                while let Some(pkt) = self.links[chip][slot].pop_ready(now) {
                    if pkt.dest == next {
                        self.delivered += 1;
                        self.arrived[next.index()].push(pkt);
                    } else {
                        self.transit[next.index()].push(pkt);
                    }
                }
            }
        }
    }

    fn pop_arrivals(&mut self, chip: ChipId) -> Vec<u32> {
        self.arrived[chip.index()]
            .drain(..)
            .map(|p| p.payload)
            .collect()
    }

    fn chip_load(&self, chip: ChipId) -> usize {
        let i = chip.index();
        self.links[i].iter().map(Pipe::len).sum::<usize>()
            + self.transit[i].len()
            + self.arrived[i].len()
    }

    fn len(&self) -> usize {
        ChipId::all(self.chips).map(|c| self.chip_load(c)).sum()
    }

    fn tick_is_noop(&self) -> bool {
        self.len() == 0 && self.links.iter().flatten().all(Pipe::tick_is_noop)
    }

    fn count_matching(&self, pred: impl Fn(u32) -> bool) -> usize {
        self.links
            .iter()
            .flatten()
            .flat_map(Pipe::iter)
            .chain(self.transit.iter().flatten())
            .chain(self.arrived.iter().flatten())
            .filter(|p| pred(p.payload))
            .count()
    }

    fn save(&self) -> Vec<u8> {
        let mut e = Enc::new();
        let put_pkt = |e: &mut Enc, p: &Packet| {
            e.put_u8(p.dest.0);
            e.put_u64(p.bytes);
            e.put_u32(p.payload);
        };
        e.put_seq_len(self.chips);
        for chip in 0..self.chips {
            for slot in 0..self.links[chip].len() {
                self.links[chip][slot].save_with(&mut e, put_pkt);
                e.put_bool(self.alive[chip][slot]);
            }
            for list in [&self.transit[chip], &self.arrived[chip]] {
                e.put_seq_len(list.len());
                for p in list {
                    put_pkt(&mut e, p);
                }
            }
            e.put_u64(self.sent_from[chip]);
        }
        e.put_u64(self.delivered);
        e.put_u64(self.bytes_sent);
        e.into_bytes()
    }
}

fn save(fabric: &FabricNetwork<u32>) -> Vec<u8> {
    let mut e = Enc::new();
    fabric.save_with(&mut e, |e, &p| e.put_u32(p));
    e.into_bytes()
}

fn restore(cfg: &MachineConfig, queue_depth: usize, bytes: &[u8]) -> FabricNetwork<u32> {
    let mut fabric = FabricNetwork::new(cfg, queue_depth);
    let mut d = Dec::new(bytes);
    fabric
        .load_into(&mut d, |d| d.get_u32())
        .expect("fabric state decodes");
    d.finish().expect("fabric state consumed exactly");
    fabric
}

fn topology_kind() -> impl Strategy<Value = TopologyKind> {
    (0..TopologyKind::ALL.len()).prop_map(|i| TopologyKind::ALL[i])
}

/// Drive both fabrics through one random scenario drawn from `seed`,
/// asserting agreement on every cycle.
fn lockstep(kind: TopologyKind, chips: usize, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut cfg = MachineConfig::paper_baseline();
    cfg.topology = kind;
    cfg.chips = chips;
    // Thin links and small queues against up to three sends per chip per
    // cycle keep every link saturated and the transit backlogs deep.
    cfg.interchip_pair_gbs = [8.0, 16.0, 32.0][rng.gen_range(0..3usize)];
    cfg.link_latency = rng.gen_range(1..6u64);
    let queue_depth = rng.gen_range(1..5usize);
    let pairs = cfg.link_pairs();
    let inject_cycles = 1_200u64;
    let total_cycles = inject_cycles + 600;
    let fail_p = rng.gen_range(0.0..0.004);
    let degrade_p = rng.gen_range(0.0..0.004);

    let mut reference = Reference::new(&cfg, queue_depth);
    let mut fabric: FabricNetwork<u32> = FabricNetwork::new(&cfg, queue_depth);
    let mut next_payload = 0u32;
    for now in 0..total_cycles {
        if now < inject_cycles && rng.gen_bool(fail_p) {
            let (a, b) = pairs[rng.gen_range(0..pairs.len())];
            reference.fail_link(a, b);
            fabric.fail_link(a, b);
        }
        if rng.gen_bool(degrade_p) {
            let (a, b) = pairs[rng.gen_range(0..pairs.len())];
            let factor = rng.gen_range(0.05..0.95);
            reference.degrade_link(a, b, factor);
            fabric.degrade_link(a, b, factor);
        }
        if now < inject_cycles {
            for src in ChipId::all(chips) {
                for _ in 0..rng.gen_range(0..4usize) {
                    let mut dst = ChipId(rng.gen_range(0..chips - 1) as u8);
                    if dst.index() >= src.index() {
                        dst = ChipId(dst.0 + 1);
                    }
                    let bytes = [16u64, 48, 144][rng.gen_range(0..3usize)];
                    assert_eq!(
                        reference.can_send(src, dst),
                        fabric.can_send(src, dst),
                        "can_send {src:?}->{dst:?} at cycle {now}"
                    );
                    assert_eq!(
                        reference.try_send(src, dst, next_payload, bytes),
                        fabric.try_send(src, dst, next_payload, bytes),
                        "try_send {src:?}->{dst:?} at cycle {now}"
                    );
                    next_payload += 1;
                }
            }
        }
        reference.tick(now);
        fabric.tick(now);
        for chip in ChipId::all(chips) {
            assert_eq!(
                reference.pop_arrivals(chip),
                fabric.pop_arrivals(chip, now),
                "arrivals at {chip:?}, cycle {now}"
            );
            assert_eq!(
                reference.chip_load(chip),
                fabric.chip_load(chip),
                "chip_load of {chip:?} at cycle {now}"
            );
        }
        assert_eq!(reference.len(), fabric.len(), "len at cycle {now}");
        assert_eq!(
            reference.tick_is_noop(),
            fabric.tick_is_noop(),
            "tick_is_noop at cycle {now}"
        );
        if rng.gen_bool(0.01) {
            let modulus = rng.gen_range(2..5u32);
            assert_eq!(
                reference.count_matching(|p| p % modulus == 0),
                fabric.count_matching(|&p| p % modulus == 0),
                "count_matching at cycle {now}"
            );
            let bytes = reference.save();
            assert_eq!(bytes, save(&fabric), "checkpoint bytes at cycle {now}");
            fabric = restore(&cfg, queue_depth, &bytes);
            assert_eq!(bytes, save(&fabric), "restore round trip at cycle {now}");
        }
    }
    assert_eq!(reference.save(), save(&fabric), "final checkpoint bytes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn table_routed_fabric_matches_per_hop_reference(
        kind in topology_kind(),
        chips in 2usize..=16,
        seed in any::<u64>(),
    ) {
        lockstep(kind, chips, seed);
    }
}

/// A fixed scenario that always strands packets: every link out of chip 0
/// fails while traffic for it is queued two hops away, so packets sit on
/// the stalled list for the rest of the run.
#[test]
fn partition_strands_packets_identically() {
    for kind in TopologyKind::ALL {
        let mut cfg = MachineConfig::paper_baseline();
        cfg.topology = kind;
        cfg.chips = 8;
        cfg.interchip_pair_gbs = 16.0;
        cfg.link_latency = 3;
        let mut reference = Reference::new(&cfg, 2);
        let mut fabric: FabricNetwork<u32> = FabricNetwork::new(&cfg, 2);
        let mut payload = 0u32;
        for now in 0..400u64 {
            if now == 150 {
                for &(a, b) in cfg
                    .link_pairs()
                    .iter()
                    .filter(|&&(a, b)| a.0 == 0 || b.0 == 0)
                {
                    reference.fail_link(a, b);
                    fabric.fail_link(a, b);
                }
            }
            if now < 300 {
                for src in 1..8u8 {
                    let r = reference.try_send(ChipId(src), ChipId(0), payload, 48);
                    assert_eq!(r, fabric.try_send(ChipId(src), ChipId(0), payload, 48));
                    payload += 1;
                }
            }
            reference.tick(now);
            fabric.tick(now);
            for chip in ChipId::all(8) {
                assert_eq!(reference.pop_arrivals(chip), fabric.pop_arrivals(chip, now));
            }
            assert_eq!(reference.save(), save(&fabric), "{kind} at cycle {now}");
        }
        assert!(!fabric.is_empty(), "{kind}: the partition stranded nothing");
        assert_eq!(reference.len(), fabric.len());
    }
}
