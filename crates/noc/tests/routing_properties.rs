//! Property tests for topology-generic routing: every (src, dst) pair on
//! every topology × chip count delivers with no packet loss under `tick`,
//! a single link failure either reroutes or yields a typed
//! `SendError::NoRoute` — never a silent drop — and the fabric's next-hop
//! table always equals per-pair `Topology::route` under the current link
//! liveness.

use mcgpu_noc::{build_topology, FabricNetwork, SendError, Topology};
use mcgpu_types::{ChipId, MachineConfig, TopologyKind};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn cfg_for(kind: TopologyKind, chips: usize) -> MachineConfig {
    let mut c = MachineConfig::paper_baseline();
    c.topology = kind;
    c.chips = chips;
    // Plenty of bandwidth and a short latency keep the exhaustive
    // all-pairs drain fast while still exercising multi-hop forwarding.
    c.interchip_pair_gbs = 256.0;
    c.link_latency = 2;
    c
}

fn topology_kind() -> impl Strategy<Value = TopologyKind> {
    (0..TopologyKind::ALL.len()).prop_map(|i| TopologyKind::ALL[i])
}

/// Inject one packet per ordered (src, dst) pair, ticking through `Full`
/// backpressure, and drain the fabric. Returns (delivered payloads as
/// (dst, src*256+dst), no-route payload count).
fn drive_all_pairs(
    fabric: &mut FabricNetwork<u32>,
    chips: usize,
    max_cycles: u64,
) -> (Vec<(usize, u32)>, usize) {
    let mut pending: Vec<(ChipId, ChipId, u32)> = Vec::new();
    for src in 0..chips {
        for dst in 0..chips {
            if src != dst {
                pending.push((
                    ChipId(src as u8),
                    ChipId(dst as u8),
                    (src * 256 + dst) as u32,
                ));
            }
        }
    }
    let mut delivered = Vec::new();
    let mut no_route = 0usize;
    for now in 0..max_cycles {
        pending.retain(
            |&(src, dst, tag)| match fabric.try_send(src, dst, tag, 32) {
                Ok(()) => false,
                Err(SendError::Full(_)) => true,
                Err(SendError::NoRoute(_)) => {
                    no_route += 1;
                    false
                }
            },
        );
        fabric.tick(now);
        for chip in 0..chips {
            for tag in fabric.pop_arrivals(ChipId(chip as u8), now) {
                delivered.push((chip, tag));
            }
        }
        if pending.is_empty() && fabric.is_empty() {
            break;
        }
    }
    (delivered, no_route)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Healthy fabric: every ordered pair delivers exactly once, to the
    /// right chip, with zero loss.
    #[test]
    fn all_pairs_deliver_on_healthy_fabric(
        kind in topology_kind(),
        chips in 2usize..=16,
    ) {
        let cfg = cfg_for(kind, chips);
        let mut fabric: FabricNetwork<u32> = FabricNetwork::new(&cfg, 8);
        let (delivered, no_route) = drive_all_pairs(&mut fabric, chips, 50_000);
        prop_assert_eq!(no_route, 0, "healthy {} fabric refused a route", kind);
        prop_assert!(fabric.is_empty(), "packets stuck in the {} fabric", kind);
        prop_assert_eq!(delivered.len(), chips * (chips - 1));
        for (chip, tag) in delivered {
            prop_assert_eq!(tag as usize % 256, chip, "misdelivered packet {tag}");
        }
    }

    /// One failed link: every packet either still delivers (reroute) or is
    /// refused up front with a typed `NoRoute` — injected + refused adds up
    /// exactly, and nothing is silently dropped in flight.
    #[test]
    fn single_link_failure_reroutes_or_reports(
        kind in topology_kind(),
        chips in 2usize..=16,
        link_pick in 0usize..1024,
    ) {
        let cfg = cfg_for(kind, chips);
        let pairs = cfg.link_pairs();
        let (a, b) = pairs[link_pick % pairs.len()];
        let mut fabric: FabricNetwork<u32> = FabricNetwork::new(&cfg, 8);
        fabric.fail_link(a, b);
        prop_assert!(!fabric.link_alive(a, b));
        let (delivered, no_route) = drive_all_pairs(&mut fabric, chips, 100_000);
        // Conservation: every injected packet lands; refusals are typed.
        prop_assert!(
            fabric.is_empty(),
            "{} fabric with dead link {:?}-{:?} lost packets in flight",
            kind, a, b
        );
        prop_assert_eq!(
            delivered.len() + no_route,
            chips * (chips - 1),
            "accepted + refused must cover every pair"
        );
        for (chip, tag) in &delivered {
            prop_assert_eq!(*tag as usize % 256, *chip, "misdelivered packet {tag}");
        }
        // A single link failure can only partition a line-shaped mesh
        // (1 x n grids); rings, all-to-all, and 2-D grids stay connected.
        let (rows, _) = cfg.mesh_dims();
        if !(kind == TopologyKind::Mesh2D && rows == 1) {
            prop_assert_eq!(no_route, 0, "{} should reroute around one dead link", kind);
        }
    }
}

/// The per-pair breadth-first search that breadth-first topologies routed
/// with before the single-source `Topology::bfs_row`: expand neighbors in
/// slot order and stop at the first discovery of `dest`.
fn per_pair_bfs(
    topo: &dyn Topology,
    from: ChipId,
    dest: ChipId,
    alive: &[Vec<bool>],
) -> Option<usize> {
    let mut first_slot = vec![usize::MAX; topo.nodes()];
    let mut queue = std::collections::VecDeque::new();
    for (slot, &next) in topo.neighbors(from).iter().enumerate() {
        if alive[from.index()][slot] && first_slot[next.index()] == usize::MAX {
            if next == dest {
                return Some(slot);
            }
            first_slot[next.index()] = slot;
            queue.push_back(next);
        }
    }
    while let Some(cur) = queue.pop_front() {
        let inherited = first_slot[cur.index()];
        for (slot, &next) in topo.neighbors(cur).iter().enumerate() {
            if alive[cur.index()][slot] && next != from && first_slot[next.index()] == usize::MAX {
                if next == dest {
                    return Some(inherited);
                }
                first_slot[next.index()] = inherited;
                queue.push_back(next);
            }
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under arbitrary directed-link liveness, every `route_row` entry is
    /// the per-pair `route`, and breadth-first topologies still pick the
    /// slot the per-pair search picked.
    #[test]
    fn route_rows_match_per_pair_routes(
        kind in topology_kind(),
        chips in 2usize..=16,
        seed in any::<u64>(),
    ) {
        let cfg = cfg_for(kind, chips);
        let topo = build_topology(&cfg);
        let mut rng = SmallRng::seed_from_u64(seed);
        let dead = rng.gen_range(0.0..0.6);
        let alive: Vec<Vec<bool>> = ChipId::all(chips)
            .map(|c| topo.neighbors(c).iter().map(|_| !rng.gen_bool(dead)).collect())
            .collect();
        let mut row = vec![Some(usize::MAX); chips];
        for from in ChipId::all(chips) {
            topo.route_row(from, &alive, &mut row);
            prop_assert_eq!(row[from.index()], None);
            for dest in ChipId::all(chips).filter(|&d| d != from) {
                let route = topo.route(from, dest, &alive);
                prop_assert_eq!(row[dest.index()], route, "{} {:?}->{:?}", kind, from, dest);
                if kind != TopologyKind::Ring {
                    prop_assert_eq!(route, per_pair_bfs(topo.as_ref(), from, dest, &alive));
                }
            }
        }
    }

    /// After any sequence of `fail_link`s, the fabric's next-hop table
    /// equals `Topology::route` over the fabric's liveness — including
    /// the ring's tie-breaks and the 2-chip ring, whose failures take only
    /// the slot-0 pair.
    #[test]
    fn fabric_route_table_tracks_link_failures(
        kind in topology_kind(),
        chips in 2usize..=16,
        seed in any::<u64>(),
    ) {
        let cfg = cfg_for(kind, chips);
        let topo = build_topology(&cfg);
        let pairs = cfg.link_pairs();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut fabric: FabricNetwork<u32> = FabricNetwork::new(&cfg, 8);
        let mut alive: Vec<Vec<bool>> = ChipId::all(chips)
            .map(|c| vec![true; topo.neighbors(c).len()])
            .collect();
        let first_slot = |a: ChipId, b: ChipId| {
            topo.neighbors(a).iter().position(|&n| n == b).expect("adjacent")
        };
        let failures = rng.gen_range(0..pairs.len().min(6) + 1);
        for step in 0..=failures {
            if step > 0 {
                let (a, b) = pairs[rng.gen_range(0..pairs.len())];
                fabric.fail_link(a, b);
                alive[a.index()][first_slot(a, b)] = false;
                alive[b.index()][first_slot(b, a)] = false;
            }
            for from in ChipId::all(chips) {
                for dest in ChipId::all(chips).filter(|&d| d != from) {
                    prop_assert_eq!(
                        fabric.next_hop(from, dest),
                        topo.route(from, dest, &alive),
                        "{} {:?}->{:?} after {} failures", kind, from, dest, step
                    );
                }
            }
        }
    }
}
