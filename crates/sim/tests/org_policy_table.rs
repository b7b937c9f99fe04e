//! Decision-table regression over the LLC organizations.
//!
//! Every (organization × coherence scheme) cell renders the organization's
//! four static decisions — route mode, remote fill action, kernel-boundary
//! action, and way split — as one row, and the whole table is compared
//! against a committed expectation. Any behavioral drift in an
//! organization shows up as a table diff, with both tables printed in
//! full.

use mcgpu_sim::LlcOrg;
use mcgpu_types::{CoherenceKind, LlcOrgKind, MachineConfig};
use sac::SacConfig;

/// Render one organization's decision row under `coherence`.
fn row(org: &LlcOrg, coherence: CoherenceKind) -> String {
    let ways = match org.way_split() {
        Some(w) => format!("{w} local"),
        None => "unpartitioned".to_string(),
    };
    format!(
        "{:12} {:9} route={:12} fill={:15} boundary={:21} ways={}",
        org.kind().label(),
        format!("{coherence:?}").to_lowercase(),
        org.route_mode().label(),
        format!("{:?}", org.remote_fill_action()),
        org.boundary_action(coherence).label(),
        ways,
    )
}

/// The committed decision table (16-way LLC, so the partitioned
/// organizations start at an 8-way local split). SAC rows reflect its
/// kernel-start memory-side mode; its SM-side decisions are checked by
/// `org::tests::sac_decides_like_the_side_it_runs` and the behavioral
/// tests in `organization_behaviors.rs`.
const EXPECTED: &[&str] = &[
    "memory-side  software  route=memory-side  fill=None            boundary=none                  ways=unpartitioned",
    "memory-side  hardware  route=memory-side  fill=None            boundary=drop-remote-replicas  ways=unpartitioned",
    "SM-side      software  route=sm-side      fill=FillLocalSlice  boundary=flush-all-dirty       ways=unpartitioned",
    "SM-side      hardware  route=sm-side      fill=FillLocalSlice  boundary=drop-remote-replicas  ways=unpartitioned",
    "static       software  route=tiered       fill=FillLocalSlice  boundary=flush-remote-dirty    ways=8 local",
    "static       hardware  route=tiered       fill=FillLocalSlice  boundary=drop-remote-replicas  ways=8 local",
    "dynamic      software  route=tiered       fill=FillLocalSlice  boundary=flush-remote-dirty    ways=8 local",
    "dynamic      hardware  route=tiered       fill=FillLocalSlice  boundary=drop-remote-replicas  ways=8 local",
    "SAC          software  route=memory-side  fill=None            boundary=none                  ways=unpartitioned",
    "SAC          hardware  route=memory-side  fill=None            boundary=drop-remote-replicas  ways=unpartitioned",
];

#[test]
fn decision_table_is_stable() {
    let cfg = MachineConfig::paper_baseline();
    assert_eq!(cfg.llc_assoc, 16, "the committed table assumes 16 ways");
    let mut actual = Vec::new();
    for kind in LlcOrgKind::ALL {
        for coherence in [CoherenceKind::Software, CoherenceKind::Hardware] {
            let mut cell = cfg.clone();
            cell.coherence = coherence;
            let org = LlcOrg::new(kind, &cell, SacConfig::for_machine(&cell))
                .expect("every organization builds on the paper baseline");
            actual.push(row(&org, coherence));
        }
    }
    assert_eq!(
        actual,
        EXPECTED,
        "organization decision table drifted\n-- actual --\n{}\n-- expected --\n{}",
        actual.join("\n"),
        EXPECTED.join("\n"),
    );
}
