//! Exactness of the indexed MSHR tables against the flat-scan tables they
//! replaced.
//!
//! `FlatMshrFile` and `FlatPendingFetches` below are test-only copies of
//! the cluster MSHR file and the slice pending-fetch table as they were
//! before the line index: a `Vec<(line, value)>` searched linearly, with
//! swap-remove deletion. Random operation sequences drive each indexed
//! table in lockstep with its flat copy. Lines come from a small domain,
//! so merges onto outstanding misses and swap-remove moves happen on most
//! steps. After every step each return value, `len`, `waiting` and the
//! entries themselves, in table order, must agree.

use crate::chip::PendingFetches;
use crate::cluster::MshrFile;
use crate::packet::{ReqEnvelope, ReqStage};
use mcgpu_types::{Address, ChipId, ClusterId, MemAccess, Request, RequestId};
use proptest::prelude::*;

/// The cluster MSHR file before the line index, kept as the reference.
#[derive(Debug, Default)]
struct FlatMshrFile {
    entries: Vec<(u64, u32)>,
}

impl FlatMshrFile {
    fn merge(&mut self, line: u64) -> bool {
        if let Some((_, merged)) = self.entries.iter_mut().find(|(l, _)| *l == line) {
            *merged += 1;
            true
        } else {
            false
        }
    }

    fn allocate(&mut self, line: u64) {
        assert!(!self.entries.iter().any(|(l, _)| *l == line));
        self.entries.push((line, 1));
    }

    fn retire(&mut self, line: u64) -> u32 {
        match self.entries.iter().position(|(l, _)| *l == line) {
            Some(i) => self.entries.swap_remove(i).1,
            None => 1,
        }
    }
}

/// The slice pending-fetch table before the line index, kept as the
/// reference.
#[derive(Debug, Default)]
struct FlatPendingFetches {
    entries: Vec<(u64, Vec<ReqEnvelope>)>,
}

impl FlatPendingFetches {
    fn contains(&self, line: u64) -> bool {
        self.entries.iter().any(|(l, _)| *l == line)
    }

    fn merge(&mut self, line: u64, env: ReqEnvelope) -> bool {
        if let Some((_, waiters)) = self.entries.iter_mut().find(|(l, _)| *l == line) {
            waiters.push(env);
            true
        } else {
            false
        }
    }

    fn begin(&mut self, line: u64) {
        assert!(!self.contains(line));
        self.entries.push((line, Vec::new()));
    }

    fn take(&mut self, line: u64) -> Option<Vec<ReqEnvelope>> {
        let i = self.entries.iter().position(|(l, _)| *l == line)?;
        Some(self.entries.swap_remove(i).1)
    }

    fn waiting(&self) -> usize {
        self.entries.iter().map(|(_, w)| w.len()).sum()
    }
}

/// One step of a random sequence: an operation selector and a line drawn
/// from a domain small enough that most lines are outstanding.
fn ops() -> impl Strategy<Value = Vec<(u8, u64)>> {
    proptest::collection::vec((0u8..16, 0u64..24), 1..800)
}

/// Spacings between the domain's lines: adjacent, a page apart, and far
/// enough apart that only high key bits differ.
fn stride() -> impl Strategy<Value = u64> {
    prop_oneof![Just(1u64), Just(4_096), Just(1 << 40)]
}

fn envelope(id: u64, line: u64) -> ReqEnvelope {
    ReqEnvelope {
        req: Request {
            id: RequestId(id),
            origin: ClusterId::new(ChipId((id % 4) as u8), (id % 8) as usize),
            access: MemAccess::read(Address::new(line.wrapping_mul(128))),
            home: ChipId(0),
        },
        stage: ReqStage::ToHomeSlice,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The cluster's protocol: a read miss merges onto its line's entry or
    /// allocates one while the file has room; a fill retires its line,
    /// outstanding or not.
    #[test]
    fn cluster_mshr_file_matches_the_flat_scan(
        limit in 1usize..20,
        stride in stride(),
        ops in ops(),
    ) {
        let mut indexed = MshrFile::with_capacity(limit);
        let mut flat = FlatMshrFile::default();
        for (step, &(op, l)) in ops.iter().enumerate() {
            let line = l.wrapping_mul(stride);
            match op {
                0..=7 => {
                    let merged = indexed.merge(line);
                    prop_assert_eq!(merged, flat.merge(line), "merge at step {}", step);
                    if !merged && flat.entries.len() < limit {
                        indexed.allocate(line);
                        flat.allocate(line);
                    }
                }
                _ => {
                    prop_assert_eq!(indexed.retire(line), flat.retire(line), "retire at step {}", step);
                }
            }
            prop_assert_eq!(indexed.len(), flat.entries.len(), "len at step {}", step);
            prop_assert_eq!(indexed.is_empty(), flat.entries.is_empty());
            prop_assert_eq!(indexed.entries(), &flat.entries[..], "entries at step {}", step);
        }
    }

    /// The slice's protocol: a miss is checked with `contains`, merges onto
    /// its line's fetch or begins one; a fill takes its line's waiters and
    /// recycles the list.
    #[test]
    fn slice_pending_fetches_match_the_flat_scan(
        stride in stride(),
        ops in ops(),
    ) {
        let mut indexed = PendingFetches::default();
        let mut flat = FlatPendingFetches::default();
        for (step, &(op, l)) in ops.iter().enumerate() {
            let line = l.wrapping_mul(stride);
            match op {
                0..=7 => {
                    prop_assert_eq!(indexed.contains(line), flat.contains(line), "contains at step {}", step);
                    let env = envelope(step as u64, line);
                    let merged = indexed.merge(line, env);
                    prop_assert_eq!(merged, flat.merge(line, env), "merge at step {}", step);
                    if !merged {
                        indexed.begin(line);
                        flat.begin(line);
                    }
                }
                _ => {
                    let taken = indexed.take(line);
                    prop_assert_eq!(&taken, &flat.take(line), "take at step {}", step);
                    if let Some(waiters) = taken {
                        indexed.recycle(waiters);
                    }
                }
            }
            prop_assert_eq!(indexed.waiting(), flat.waiting(), "waiting at step {}", step);
            prop_assert_eq!(indexed.is_empty(), flat.entries.is_empty());
            prop_assert_eq!(indexed.entries(), &flat.entries[..], "entries at step {}", step);
        }
    }
}
