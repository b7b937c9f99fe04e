//! Inter-chip fabric topologies.
//!
//! [`Topology`] abstracts the structure of the inter-chip fabric — node
//! count, slot-ordered neighbor sets, per-link bandwidth/latency, and a
//! deterministic fault-aware `route` — so the packet-moving fabric
//! ([`crate::FabricNetwork`]) is topology-generic. Three implementations
//! ship: [`Ring`] (bit-exact reproduction of the original hard-wired
//! 4-chip ring, Table 3), [`FullyConnected`], and [`Mesh2D`]. The
//! structural facts (who neighbors whom, canonical link lists) come from
//! [`MachineConfig`] so every layer — fault validation, the engine's
//! degraded-link bandwidth factors, this fabric — agrees on the same
//! graph.

use mcgpu_types::{ChipId, MachineConfig, TopologyKind};

/// Per-chip, per-slot directed-link liveness: `alive[chip][slot]` is
/// whether chip `chip` can transmit on its `slot`-th outgoing link.
pub type LinkLiveness = [Vec<bool>];

/// The structure of an inter-chip fabric.
///
/// Slots are positions in a chip's ordered neighbor list; the fabric keeps
/// one directed [`mcgpu_types::Pipe`] per (chip, slot). `route` returns
/// the outgoing slot a packet should take for its next hop and must be
/// deterministic in its inputs — simulation reproducibility (and the
/// byte-exact golden suite) depends on it.
pub trait Topology: std::fmt::Debug + Send + Sync {
    /// Which topology this is.
    fn kind(&self) -> TopologyKind;

    /// Number of chips on the fabric.
    fn nodes(&self) -> usize;

    /// Slot-ordered neighbors of `chip`. A slot's position is stable for
    /// the lifetime of the fabric; a 2-chip ring has two slots both
    /// pointing at the other chip (parallel links).
    fn neighbors(&self, chip: ChipId) -> &[ChipId];

    /// Bandwidth of one directed link, GB/s (== bytes/cycle).
    fn link_gbs(&self) -> f64;

    /// Latency of one hop, cycles.
    fn link_latency(&self) -> u64;

    /// The outgoing slot at `from` for a packet destined to `dest`, given
    /// current link liveness, or `None` when failures have disconnected
    /// `dest` from `from`. Routing is a pure function of liveness, so the
    /// fabric tabulates it once per liveness change (see
    /// [`route_row`](Topology::route_row)) rather than per packet.
    fn route(&self, from: ChipId, dest: ChipId, alive: &LinkLiveness) -> Option<usize>;

    /// Fill `row[dest]` with [`route`](Topology::route)`(from, dest,
    /// alive)` for every chip `dest` (`row[from]` is `None`). The default
    /// calls `route` once per destination; breadth-first topologies
    /// override it with one [`bfs_row`](Topology::bfs_row) pass.
    fn route_row(&self, from: ChipId, alive: &LinkLiveness, row: &mut [Option<usize>]) {
        for dest in ChipId::all(self.nodes()) {
            row[dest.index()] = if dest == from {
                None
            } else {
                self.route(from, dest, alive)
            };
        }
    }

    /// Shortest-path next hops from `from` to every chip over live links,
    /// by one breadth-first pass expanding neighbors in slot order
    /// (deterministic): `row[c]` is the slot taken at `from` on the first
    /// shortest path that reaches `c`, or `None` when `c` is unreachable
    /// or is `from` itself. The routing policy for topologies without a
    /// closed-form one.
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

    /// One destination's entry of a fresh [`bfs_row`](Topology::bfs_row):
    /// the per-pair `route` of breadth-first topologies.
    fn bfs_route(&self, from: ChipId, dest: ChipId, alive: &LinkLiveness) -> Option<usize> {
        let mut row = vec![None; self.nodes()];
        self.bfs_row(from, alive, &mut row);
        row[dest.index()]
    }
}

/// Shared structural skeleton: precomputed slot-ordered neighbor lists
/// plus uniform link bandwidth/latency, all taken from [`MachineConfig`].
#[derive(Debug)]
struct Structure {
    chips: usize,
    neighbors: Vec<Vec<ChipId>>,
    link_gbs: f64,
    link_latency: u64,
}

impl Structure {
    fn from_config(cfg: &MachineConfig) -> Self {
        Structure {
            chips: cfg.chips,
            neighbors: ChipId::all(cfg.chips)
                .map(|c| cfg.neighbor_list(c))
                .collect(),
            link_gbs: cfg.interchip_pair_gbs,
            link_latency: cfg.link_latency,
        }
    }
}

/// The paper's ring (Table 3): slot 0 is clockwise (towards `chip + 1`),
/// slot 1 counter-clockwise. Routing reproduces the original hard-wired
/// behavior exactly: shortest path with even-source-goes-clockwise
/// tie-breaking, whole-path liveness check per direction, fall back to the
/// long way around, `None` on partition.
#[derive(Debug)]
pub struct Ring {
    s: Structure,
}

impl Ring {
    /// Build from `cfg` (`cfg.topology` need not be `Ring`; the structure
    /// is taken as a ring of `cfg.chips` chips).
    pub fn new(cfg: &MachineConfig) -> Self {
        let mut ring_cfg = cfg.clone();
        ring_cfg.topology = TopologyKind::Ring;
        Ring {
            s: Structure::from_config(&ring_cfg),
        }
    }

    /// The preferred (shortest-path) direction from `from` to `dest`:
    /// 0 = clockwise, 1 = counter-clockwise, ties broken clockwise for
    /// even-indexed sources to balance the two directions.
    fn preferred_dir(&self, from: ChipId, dest: ChipId) -> usize {
        let n = self.s.chips;
        let cw = (dest.index() + n - from.index()) % n;
        let ccw = n - cw;
        let clockwise = match cw.cmp(&ccw) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => from.index().is_multiple_of(2),
        };
        let next = if clockwise {
            (from.index() + 1) % n
        } else {
            (from.index() + n - 1) % n
        };
        // Map the chosen next-hop chip back to a slot the way the original
        // ring fabric did: anything landing on `from + 1` is slot 0. On a
        // 2-chip ring both directions reach the same chip, so everything
        // rides slot 0 — exactly the legacy behavior.
        if next == (from.index() + 1) % n {
            0
        } else {
            1
        }
    }

    /// Whether every directed link from `from` to `dest` going `dir` is
    /// alive.
    fn path_alive(&self, from: usize, dest: usize, dir: usize, alive: &LinkLiveness) -> bool {
        let n = self.s.chips;
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
    }
}

impl Topology for Ring {
    fn kind(&self) -> TopologyKind {
        TopologyKind::Ring
    }

    fn nodes(&self) -> usize {
        self.s.chips
    }

    fn neighbors(&self, chip: ChipId) -> &[ChipId] {
        &self.s.neighbors[chip.index()]
    }

    fn link_gbs(&self) -> f64 {
        self.s.link_gbs
    }

    fn link_latency(&self) -> u64 {
        self.s.link_latency
    }

    fn route(&self, from: ChipId, dest: ChipId, alive: &LinkLiveness) -> Option<usize> {
        let preferred = self.preferred_dir(from, dest);
        if self.path_alive(from.index(), dest.index(), preferred, alive) {
            return Some(preferred);
        }
        let other = 1 - preferred;
        if self.path_alive(from.index(), dest.index(), other, alive) {
            return Some(other);
        }
        None
    }
}

/// Every chip pair directly linked; routing is the direct link when alive,
/// else a BFS detour through an intermediate chip.
#[derive(Debug)]
pub struct FullyConnected {
    s: Structure,
}

impl FullyConnected {
    /// Build an all-to-all fabric over `cfg.chips` chips.
    pub fn new(cfg: &MachineConfig) -> Self {
        let mut fc_cfg = cfg.clone();
        fc_cfg.topology = TopologyKind::FullyConnected;
        FullyConnected {
            s: Structure::from_config(&fc_cfg),
        }
    }
}

impl Topology for FullyConnected {
    fn kind(&self) -> TopologyKind {
        TopologyKind::FullyConnected
    }

    fn nodes(&self) -> usize {
        self.s.chips
    }

    fn neighbors(&self, chip: ChipId) -> &[ChipId] {
        &self.s.neighbors[chip.index()]
    }

    fn link_gbs(&self) -> f64 {
        self.s.link_gbs
    }

    fn link_latency(&self) -> u64 {
        self.s.link_latency
    }

    fn route(&self, from: ChipId, dest: ChipId, alive: &LinkLiveness) -> Option<usize> {
        self.bfs_route(from, dest, alive)
    }

    fn route_row(&self, from: ChipId, alive: &LinkLiveness, row: &mut [Option<usize>]) {
        self.bfs_row(from, alive, row);
    }
}

/// A 2-D mesh: chips placed row-major on the most balanced
/// `rows x cols` grid (see [`MachineConfig::mesh_dims`]), slot order
/// north, south, west, east (absent edges skipped). Routing is BFS
/// shortest-path over live links, which reduces to deterministic
/// dimension-ordered-ish routing on a healthy mesh and reroutes around
/// failed links automatically.
#[derive(Debug)]
pub struct Mesh2D {
    s: Structure,
}

impl Mesh2D {
    /// Build the mesh fabric over `cfg.chips` chips.
    pub fn new(cfg: &MachineConfig) -> Self {
        let mut mesh_cfg = cfg.clone();
        mesh_cfg.topology = TopologyKind::Mesh2D;
        Mesh2D {
            s: Structure::from_config(&mesh_cfg),
        }
    }
}

impl Topology for Mesh2D {
    fn kind(&self) -> TopologyKind {
        TopologyKind::Mesh2D
    }

    fn nodes(&self) -> usize {
        self.s.chips
    }

    fn neighbors(&self, chip: ChipId) -> &[ChipId] {
        &self.s.neighbors[chip.index()]
    }

    fn link_gbs(&self) -> f64 {
        self.s.link_gbs
    }

    fn link_latency(&self) -> u64 {
        self.s.link_latency
    }

    fn route(&self, from: ChipId, dest: ChipId, alive: &LinkLiveness) -> Option<usize> {
        self.bfs_route(from, dest, alive)
    }

    fn route_row(&self, from: ChipId, alive: &LinkLiveness, row: &mut [Option<usize>]) {
        self.bfs_row(from, alive, row);
    }
}

/// Instantiate the topology selected by `cfg.topology`.
pub fn build_topology(cfg: &MachineConfig) -> Box<dyn Topology> {
    match cfg.topology {
        TopologyKind::Ring => Box::new(Ring::new(cfg)),
        TopologyKind::FullyConnected => Box::new(FullyConnected::new(cfg)),
        TopologyKind::Mesh2D => Box::new(Mesh2D::new(cfg)),
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

    fn all_alive(topo: &dyn Topology) -> Vec<Vec<bool>> {
        ChipId::all(topo.nodes())
            .map(|c| vec![true; topo.neighbors(c).len()])
            .collect()
    }

    #[test]
    fn neighbors_match_config_structure() {
        for kind in TopologyKind::ALL {
            for chips in [2usize, 4, 8, 16] {
                let cfg = cfg_for(kind, chips);
                let topo = build_topology(&cfg);
                assert_eq!(topo.kind(), kind);
                assert_eq!(topo.nodes(), chips);
                for chip in ChipId::all(chips) {
                    assert_eq!(topo.neighbors(chip), cfg.neighbor_list(chip).as_slice());
                }
            }
        }
    }

    #[test]
    fn ring_route_matches_legacy_direction_policy() {
        let cfg = cfg_for(TopologyKind::Ring, 4);
        let ring = Ring::new(&cfg);
        let alive = all_alive(&ring);
        // Adjacent: shortest direction.
        assert_eq!(ring.route(ChipId(0), ChipId(1), &alive), Some(0));
        assert_eq!(ring.route(ChipId(0), ChipId(3), &alive), Some(1));
        // Opposite: even source clockwise, odd counter-clockwise.
        assert_eq!(ring.route(ChipId(0), ChipId(2), &alive), Some(0));
        assert_eq!(ring.route(ChipId(1), ChipId(3), &alive), Some(1));
    }

    #[test]
    fn ring_reroutes_long_way_and_detects_partition() {
        let cfg = cfg_for(TopologyKind::Ring, 4);
        let ring = Ring::new(&cfg);
        let mut alive = all_alive(&ring);
        alive[0][0] = false; // 0 -> 1 dead
        assert_eq!(ring.route(ChipId(0), ChipId(1), &alive), Some(1));
        alive[0][1] = false; // 0 -> 3 dead too: 0 cannot transmit at all
        assert_eq!(ring.route(ChipId(0), ChipId(1), &alive), None);
    }

    #[test]
    fn full_routes_direct_and_detours_around_dead_link() {
        let cfg = cfg_for(TopologyKind::FullyConnected, 4);
        let topo = FullyConnected::new(&cfg);
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
        let cfg = cfg_for(TopologyKind::Mesh2D, 4);
        let topo = Mesh2D::new(&cfg);
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
