//! The inter-chip fabric topology.
//!
//! [`Topology`] is the structure of the configured fabric — its
//! [`TopologyKind`] and every chip's slot-ordered neighbor list — plus a
//! deterministic fault-aware router that matches on the kind. The
//! neighbor lists come from [`MachineConfig::neighbor_list`], so every
//! layer (fault validation, the engine's degraded-link bandwidth factors,
//! the packet-moving [`crate::FabricNetwork`]) agrees on one graph. The
//! ring reproduces the original hard-wired 4-chip ring (Table 3) exactly;
//! the fully-connected and 2-D mesh fabrics route breadth-first.

use mcgpu_types::{ChipId, MachineConfig, TopologyKind};
use std::cmp::Ordering;

/// Per-chip, per-slot directed-link liveness: `alive[chip][slot]` is
/// whether chip `chip` can transmit on its `slot`-th outgoing link.
pub type LinkLiveness = [Vec<bool>];

/// The structure and routing policy of an inter-chip fabric.
///
/// Slots are positions in a chip's ordered neighbor list; the fabric keeps
/// one directed [`mcgpu_types::Pipe`] per (chip, slot). Routing is
/// deterministic in its inputs — simulation reproducibility (and the
/// byte-exact golden suite) depends on it.
#[derive(Debug)]
pub struct Topology {
    kind: TopologyKind,
    neighbors: Vec<Vec<ChipId>>,
}

impl Topology {
    /// The fabric of `cfg.topology` over `cfg.chips` chips.
    pub fn new(cfg: &MachineConfig) -> Self {
        Topology {
            kind: cfg.topology,
            neighbors: ChipId::all(cfg.chips)
                .map(|c| cfg.neighbor_list(c))
                .collect(),
        }
    }

    /// Number of chips on the fabric.
    pub fn nodes(&self) -> usize {
        self.neighbors.len()
    }

    /// Slot-ordered neighbors of `chip`. A 2-chip ring has two slots both
    /// pointing at the other chip (parallel links).
    pub fn neighbors(&self, chip: ChipId) -> &[ChipId] {
        &self.neighbors[chip.index()]
    }

    /// The outgoing slot at `from` for a packet destined to `dest`, given
    /// current link liveness, or `None` when failures have disconnected
    /// `dest` from `from`. Routing is a pure function of liveness, so the
    /// fabric tabulates it once per liveness change with
    /// [`route_row`](Topology::route_row) rather than per packet.
    ///
    /// The ring takes the shortest direction (slot 0 clockwise, slot 1
    /// counter-clockwise; ties go clockwise from even-indexed sources to
    /// balance the two) when every link along it is alive, else the long
    /// way round. The other kinds take the first slot of a shortest live
    /// path, searched breadth-first in slot order.
    pub fn route(&self, from: ChipId, dest: ChipId, alive: &LinkLiveness) -> Option<usize> {
        match self.kind {
            TopologyKind::Ring => self.ring_route(from.index(), dest.index(), alive),
            TopologyKind::FullyConnected | TopologyKind::Mesh2D => {
                let mut row = vec![None; self.nodes()];
                self.bfs_row(from, alive, &mut row);
                row[dest.index()]
            }
        }
    }

    /// Fill `row[dest]` with [`route`](Topology::route)`(from, dest,
    /// alive)` for every chip `dest` (`row[from]` is `None`): one
    /// breadth-first pass, or the ring's closed form per destination.
    pub fn route_row(&self, from: ChipId, alive: &LinkLiveness, row: &mut [Option<usize>]) {
        match self.kind {
            TopologyKind::Ring => {
                for dest in ChipId::all(self.nodes()) {
                    row[dest.index()] = if dest == from {
                        None
                    } else {
                        self.ring_route(from.index(), dest.index(), alive)
                    };
                }
            }
            TopologyKind::FullyConnected | TopologyKind::Mesh2D => self.bfs_row(from, alive, row),
        }
    }

    /// The ring's closed form. On a 2-chip ring both directions reach the
    /// same chip, so everything prefers slot 0, as the original ring did.
    fn ring_route(&self, from: usize, dest: usize, alive: &LinkLiveness) -> Option<usize> {
        let n = self.nodes();
        let cw = (dest + n - from) % n;
        let clockwise = match cw.cmp(&(n - cw)) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => from.is_multiple_of(2),
        };
        let preferred = usize::from(!clockwise && n > 2);
        // Every directed link from `from` to `dest` going `dir` is alive.
        let path_alive = |dir: usize| {
            let mut c = from;
            while c != dest {
                if !alive[c][dir] {
                    return false;
                }
                c = if dir == 0 {
                    (c + 1) % n
                } else {
                    (c + n - 1) % n
                };
            }
            true
        };
        [preferred, 1 - preferred]
            .into_iter()
            .find(|&dir| path_alive(dir))
    }

    /// Shortest-path next hops from `from` to every chip over live links,
    /// by one breadth-first pass expanding neighbors in slot order
    /// (deterministic): `row[c]` is the slot taken at `from` on the first
    /// shortest path that reaches `c`, or `None` when `c` is unreachable
    /// or is `from` itself.
    fn bfs_row(&self, from: ChipId, alive: &LinkLiveness, row: &mut [Option<usize>]) {
        row.fill(None);
        let mut queue = Vec::with_capacity(self.nodes());
        for (slot, &next) in self.neighbors(from).iter().enumerate() {
            if alive[from.index()][slot] && row[next.index()].is_none() {
                row[next.index()] = Some(slot);
                queue.push(next);
            }
        }
        let mut head = 0;
        while let Some(&cur) = queue.get(head) {
            head += 1;
            let inherited = row[cur.index()];
            for (slot, &next) in self.neighbors(cur).iter().enumerate() {
                if alive[cur.index()][slot] && next != from && row[next.index()].is_none() {
                    row[next.index()] = inherited;
                    queue.push(next);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_for(kind: TopologyKind, chips: usize) -> MachineConfig {
        let mut c = MachineConfig::paper_baseline();
        c.topology = kind;
        c.chips = chips;
        c
    }

    fn topology(kind: TopologyKind, chips: usize) -> Topology {
        Topology::new(&cfg_for(kind, chips))
    }

    fn all_alive(topo: &Topology) -> Vec<Vec<bool>> {
        ChipId::all(topo.nodes())
            .map(|c| vec![true; topo.neighbors(c).len()])
            .collect()
    }

    #[test]
    fn neighbors_match_config_structure() {
        for kind in TopologyKind::ALL {
            for chips in [2usize, 4, 8, 16] {
                let cfg = cfg_for(kind, chips);
                let topo = Topology::new(&cfg);
                assert_eq!(topo.nodes(), chips);
                for chip in ChipId::all(chips) {
                    assert_eq!(topo.neighbors(chip), cfg.neighbor_list(chip).as_slice());
                }
            }
        }
    }

    #[test]
    fn ring_route_matches_legacy_direction_policy() {
        let ring = topology(TopologyKind::Ring, 4);
        let alive = all_alive(&ring);
        // Adjacent: shortest direction.
        assert_eq!(ring.route(ChipId(0), ChipId(1), &alive), Some(0));
        assert_eq!(ring.route(ChipId(0), ChipId(3), &alive), Some(1));
        // Opposite: even source clockwise, odd counter-clockwise.
        assert_eq!(ring.route(ChipId(0), ChipId(2), &alive), Some(0));
        assert_eq!(ring.route(ChipId(1), ChipId(3), &alive), Some(1));
        // Two chips: both directions reach the other chip; slot 0 wins.
        let ring = topology(TopologyKind::Ring, 2);
        let alive = all_alive(&ring);
        assert_eq!(ring.route(ChipId(0), ChipId(1), &alive), Some(0));
        assert_eq!(ring.route(ChipId(1), ChipId(0), &alive), Some(0));
    }

    #[test]
    fn ring_reroutes_long_way_and_detects_partition() {
        let ring = topology(TopologyKind::Ring, 4);
        let mut alive = all_alive(&ring);
        alive[0][0] = false; // 0 -> 1 dead
        assert_eq!(ring.route(ChipId(0), ChipId(1), &alive), Some(1));
        alive[0][1] = false; // 0 -> 3 dead too: 0 cannot transmit at all
        assert_eq!(ring.route(ChipId(0), ChipId(1), &alive), None);
    }

    #[test]
    fn full_routes_direct_and_detours_around_dead_link() {
        let topo = topology(TopologyKind::FullyConnected, 4);
        let mut alive = all_alive(&topo);
        // Direct: slot of dest in 0's neighbor list [1, 2, 3].
        assert_eq!(topo.route(ChipId(0), ChipId(2), &alive), Some(1));
        // Kill 0 -> 2 (slot 1 at chip 0): detour via first live neighbor.
        alive[0][1] = false;
        assert_eq!(topo.route(ChipId(0), ChipId(2), &alive), Some(0));
    }

    #[test]
    fn mesh_routes_shortest_and_reroutes() {
        // 2x2 mesh: 0 1 / 2 3. Chip 0 neighbors: [south=2, east=1].
        let topo = topology(TopologyKind::Mesh2D, 4);
        let mut alive = all_alive(&topo);
        assert_eq!(topo.neighbors(ChipId(0)), &[ChipId(2), ChipId(1)]);
        // Diagonal 0 -> 3: two equal 2-hop paths; BFS slot order picks
        // south first.
        assert_eq!(topo.route(ChipId(0), ChipId(3), &alive), Some(0));
        // Kill 0 -> 2: the east path remains.
        alive[0][0] = false;
        assert_eq!(topo.route(ChipId(0), ChipId(3), &alive), Some(1));
        assert_eq!(topo.route(ChipId(0), ChipId(2), &alive), Some(1));
        // Kill 0 -> 1 too: chip 0 is mute.
        alive[0][1] = false;
        assert_eq!(topo.route(ChipId(0), ChipId(2), &alive), None);
    }
}
