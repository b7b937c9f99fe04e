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
//! checkpoint bytes must agree, and at random steps the indexed table is
//! replaced by its own `load_into` round trip, which must save back to the
//! same bytes and keep agreeing from there on.
//!
//! At the engine level, a run cut while a cluster's MSHR file is full must
//! resume byte-identically to the straight run.

use crate::chip::PendingFetches;
use crate::cluster::MshrFile;
use crate::engine::{SimBuilder, SimError, Simulator};
use crate::packet::{ReqEnvelope, ReqStage};
use mcgpu_trace::{generate, profiles, TraceParams};
use mcgpu_types::{
    Address, ChipId, ClusterId, Dec, Enc, LlcOrgKind, MachineConfig, MemAccess, ObsConfig, Request,
    RequestId,
};
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

    fn save(&self, e: &mut Enc) {
        e.put_seq_len(self.entries.len());
        for &(line, merged) in &self.entries {
            e.put_u64(line);
            e.put_u32(merged);
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

    fn save(&self, e: &mut Enc) {
        e.put_seq_len(self.entries.len());
        for (line, waiters) in &self.entries {
            e.put_u64(*line);
            e.put_seq_len(waiters.len());
            for w in waiters {
                w.save(e);
            }
        }
    }
}

fn bytes(save: impl FnOnce(&mut Enc)) -> Vec<u8> {
    let mut e = Enc::new();
    save(&mut e);
    e.into_bytes()
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
                8..=14 => {
                    prop_assert_eq!(indexed.retire(line), flat.retire(line), "retire at step {}", step);
                }
                _ => {
                    let saved = bytes(|e| indexed.save(e));
                    let mut restored = MshrFile::with_capacity(limit);
                    let mut d = Dec::new(&saved);
                    restored.load_into(&mut d, limit).expect("own snapshot loads");
                    d.finish().expect("snapshot fully consumed");
                    prop_assert_eq!(bytes(|e| restored.save(e)), saved, "round trip at step {}", step);
                    indexed = restored;
                }
            }
            prop_assert_eq!(indexed.len(), flat.entries.len(), "len at step {}", step);
            prop_assert_eq!(indexed.is_empty(), flat.entries.is_empty());
            prop_assert_eq!(bytes(|e| indexed.save(e)), bytes(|e| flat.save(e)), "bytes at step {}", step);
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
                8..=14 => {
                    let taken = indexed.take(line);
                    prop_assert_eq!(&taken, &flat.take(line), "take at step {}", step);
                    if let Some(waiters) = taken {
                        indexed.recycle(waiters);
                    }
                }
                _ => {
                    let saved = bytes(|e| indexed.save(e));
                    let mut restored = PendingFetches::default();
                    let mut d = Dec::new(&saved);
                    restored.load_into(&mut d).expect("own snapshot loads");
                    d.finish().expect("snapshot fully consumed");
                    prop_assert_eq!(bytes(|e| restored.save(e)), saved, "round trip at step {}", step);
                    indexed = restored;
                }
            }
            prop_assert_eq!(indexed.waiting(), flat.waiting(), "waiting at step {}", step);
            prop_assert_eq!(indexed.is_empty(), flat.entries.is_empty());
            prop_assert_eq!(bytes(|e| indexed.save(e)), bytes(|e| flat.save(e)), "bytes at step {}", step);
        }
    }
}

/// A cut taken while a cluster's MSHR file is full restores and resumes
/// byte-identically to the straight run. NN memory-side fills a third of
/// the clusters' files to their 256-entry limit by the cut; the cut is
/// asserted to land on a full file, so the case cannot silently stop
/// covering one.
#[test]
fn restore_with_a_full_mshr_file_matches_the_straight_run() {
    const CUT: u64 = 1_000;
    let cfg = MachineConfig::experiment_baseline();
    let params = TraceParams {
        total_accesses: 20_000,
        ..TraceParams::quick()
    };
    let wl = generate(&cfg, &profiles::by_name("NN").expect("profile"), &params);
    let build = |max_cycles: Option<u64>| {
        let mut b = SimBuilder::new(cfg.clone())
            .organization(LlcOrgKind::MemorySide)
            .observability(ObsConfig::trace());
        if let Some(max) = max_cycles {
            b = b.max_cycles(max);
        }
        b.build().expect("valid machine configuration")
    };
    // Run to completion; return the stats and obs report bytes.
    let finish = |mut sim: Simulator| {
        let stats = sim.run(&wl).expect("run completes");
        let obs = sim.take_obs_report().expect("observability is on");
        (stats.to_canonical_json(), obs.to_canonical_json())
    };
    let straight = finish(build(None));

    let mut victim = build(Some(CUT));
    assert!(
        matches!(victim.run(&wl), Err(SimError::CycleLimit { .. })),
        "run finished before the cut"
    );
    let full = victim
        .chips()
        .iter()
        .flat_map(|chip| &chip.clusters)
        .filter(|cl| cl.outstanding() == cfg.mshrs_per_cluster)
        .count();
    assert!(full > 0, "no cluster's MSHR file is full at cycle {CUT}");
    let snapshot = victim.checkpoint(&wl);

    let mut resumed = build(None);
    resumed.restore(&snapshot, &wl).expect("snapshot restores");
    assert_eq!(
        resumed.checkpoint(&wl),
        snapshot,
        "restore did not save back to the same bytes"
    );
    let (stats, obs) = finish(resumed);
    assert_eq!(stats, straight.0, "RunStats diverged");
    assert_eq!(obs, straight.1, "obs report diverged");
}
