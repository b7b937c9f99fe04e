//! Append-only JSONL run journal for crash-safe, resumable sweeps.
//!
//! Every sweep cell that finishes — successfully or quarantined — is
//! recorded as one JSON object per line, keyed by the cell's name and a
//! hash of everything that determines its result (machine configuration,
//! trace parameters, benchmark, organization). A later `--resume` run
//! replays completed cells whose key still matches and re-executes only
//! missing or quarantined ones; because the canonical `RunStats` JSON is
//! stored verbatim, a resumed sweep's output is byte-identical to an
//! uninterrupted run's.
//!
//! Durability: after every append the journal is rewritten through
//! [`mcgpu_types::fsio::atomic_write`] — tmp write, `fsync`, atomic
//! rename, parent-directory `fsync` — so a `SIGKILL` (or power loss) at
//! any instant leaves either the previous consistent file or the new one,
//! never a torn line at the point of the rename. A torn *tail* can still
//! exist if the kill lands inside the tmp write of a never-renamed file
//! from an older crash; [`Journal::open`] therefore stops at the first
//! malformed line and keeps every record before it. The fsio fail-point
//! tests below prove both halves of that contract.

use mcgpu_sim::RunStats;
use mcgpu_trace::TraceParams;
use mcgpu_types::fsio;
use mcgpu_types::json::{escape_into, parse, JsonValue};
use mcgpu_types::{JournalError, LlcOrgKind, MachineConfig};
use std::path::{Path, PathBuf};

/// How a journaled cell ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordOutcome {
    /// The cell completed; its canonical stats JSON is stored verbatim.
    Completed {
        /// Output of [`RunStats::to_canonical_json`].
        stats_json: String,
    },
    /// The cell exhausted its retries (or failed non-retryably).
    Quarantined {
        /// Machine-readable error class (`CellError::kind`).
        kind: String,
        /// Human-readable error message.
        error: String,
    },
}

/// One journal line.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// Cell name, unique within one sweep (e.g. `"SN/SAC"`).
    pub cell: String,
    /// [`cell_config_hash`] of the inputs that produced this outcome.
    pub config_hash: u64,
    /// The full canonical input description the hash was computed from
    /// (see [`cell_config_desc`]), stored alongside the 64-bit hash so a
    /// cache hit can verify it is not an FNV collision before replaying.
    /// `None` on records written before the field existed; such records
    /// match on hash alone (the pre-guard behaviour).
    pub config: Option<String>,
    /// Engine-mode token the cell ran under (`"cycle"` or `"fast"`), so a
    /// `--resume` refuses to mix fidelities within one journal. `None` on
    /// records written before every sweep stamped its mode (older figure
    /// and golden-sweep journals), which count as cycle mode.
    pub mode: Option<String>,
    /// Attempts executed before this outcome.
    pub attempts: u32,
    /// The outcome.
    pub outcome: RecordOutcome,
}

impl JournalRecord {
    /// Serialize as one JSONL line (no trailing newline).
    fn to_line(&self) -> String {
        let mut s = String::new();
        s.push_str("{\"cell\": \"");
        escape_into(&self.cell, &mut s);
        s.push_str("\", \"config_hash\": \"");
        s.push_str(&format!("{:016x}", self.config_hash));
        s.push('"');
        if let Some(config) = &self.config {
            s.push_str(", \"config\": \"");
            escape_into(config, &mut s);
            s.push('"');
        }
        if let Some(mode) = &self.mode {
            s.push_str(", \"mode\": \"");
            escape_into(mode, &mut s);
            s.push('"');
        }
        s.push_str(&format!(", \"attempts\": {}", self.attempts));
        match &self.outcome {
            RecordOutcome::Completed { stats_json } => {
                s.push_str(", \"outcome\": \"completed\", \"stats\": \"");
                escape_into(stats_json, &mut s);
                s.push_str("\"}");
            }
            RecordOutcome::Quarantined { kind, error } => {
                s.push_str(", \"outcome\": \"quarantined\", \"kind\": \"");
                escape_into(kind, &mut s);
                s.push_str("\", \"error\": \"");
                escape_into(error, &mut s);
                s.push_str("\"}");
            }
        }
        s
    }

    /// Parse one JSONL line.
    fn from_line(line: &str) -> Result<JournalRecord, JournalError> {
        let v = parse(line)?;
        fn strf<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, JournalError> {
            v.get(key)
                .and_then(JsonValue::as_str)
                .ok_or_else(|| JournalError::new(format!("missing string field `{key}`")))
        }
        let config_hash = u64::from_str_radix(strf(&v, "config_hash")?, 16)
            .map_err(|_| JournalError::new("config_hash is not a 64-bit hex value"))?;
        let attempts = v
            .get("attempts")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| JournalError::new("missing integer field `attempts`"))?
            as u32;
        let outcome = match strf(&v, "outcome")? {
            "completed" => RecordOutcome::Completed {
                stats_json: strf(&v, "stats")?.to_string(),
            },
            "quarantined" => RecordOutcome::Quarantined {
                kind: strf(&v, "kind")?.to_string(),
                error: strf(&v, "error")?.to_string(),
            },
            other => return Err(JournalError::new(format!("unknown outcome `{other}`"))),
        };
        Ok(JournalRecord {
            cell: strf(&v, "cell")?.to_string(),
            config_hash,
            config: v
                .get("config")
                .and_then(JsonValue::as_str)
                .map(str::to_string),
            mode: v
                .get("mode")
                .and_then(JsonValue::as_str)
                .map(str::to_string),
            attempts,
            outcome,
        })
    }

    /// The engine-mode token this record was produced under; records
    /// predating the two-tier engine are cycle-mode by definition.
    pub fn mode_token(&self) -> &str {
        self.mode.as_deref().unwrap_or("cycle")
    }

    /// The recorded stats, if this cell completed.
    ///
    /// # Errors
    /// [`JournalError`] if the stored canonical JSON no longer parses
    /// (e.g. the journal was edited by hand).
    pub fn stats(&self) -> Result<Option<RunStats>, JournalError> {
        match &self.outcome {
            RecordOutcome::Completed { stats_json } => RunStats::from_canonical_json(stats_json)
                .map(Some)
                .map_err(JournalError::from),
            RecordOutcome::Quarantined { .. } => Ok(None),
        }
    }
}

/// A sweep's run journal: in-memory records plus the on-disk JSONL file
/// they are persisted to.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    records: Vec<JournalRecord>,
}

impl Journal {
    /// Start a fresh journal at `path`, discarding any existing file.
    ///
    /// # Errors
    /// I/O errors creating the parent directory or the file.
    pub fn create(path: impl Into<PathBuf>) -> std::io::Result<Journal> {
        let journal = Journal {
            path: path.into(),
            records: Vec::new(),
        };
        journal.persist()?;
        Ok(journal)
    }

    /// Open an existing journal, tolerating a truncated tail: loading stops
    /// at the first malformed line and keeps every record before it. A
    /// missing file yields an empty journal.
    ///
    /// # Errors
    /// I/O errors reading the file (other than it not existing).
    pub fn open(path: impl Into<PathBuf>) -> std::io::Result<Journal> {
        let path = path.into();
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        let mut records = Vec::new();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match JournalRecord::from_line(line) {
                Ok(r) => records.push(r),
                // Truncated tail from an interrupted write: everything
                // after the first torn line is unreachable garbage.
                Err(_) => break,
            }
        }
        Ok(Journal { path, records })
    }

    /// All records, in append order.
    pub fn records(&self) -> &[JournalRecord] {
        &self.records
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The latest record for `cell`, provided it was produced by the same
    /// inputs (`config_hash` matches). A stale hash means the config or
    /// trace volume changed since the journal was written; such records
    /// are ignored so a resume never replays stats from a different
    /// experiment.
    pub fn lookup(&self, cell: &str, config_hash: u64) -> Option<&JournalRecord> {
        self.records
            .iter()
            .rev()
            .find(|r| r.cell == cell && r.config_hash == config_hash)
    }

    /// [`Journal::lookup`] with a collision guard: the record must also
    /// carry the *same canonical input description* as `config`. A 64-bit
    /// FNV hash can collide, and latest-wins lookup would then silently
    /// serve a different experiment's stats from the cache; verifying the
    /// full description turns that into a cache miss (the caller falls
    /// back to re-simulation). Records written before the `config` field
    /// existed carry no description and match on hash alone.
    pub fn lookup_verified(
        &self,
        cell: &str,
        config_hash: u64,
        config: &str,
    ) -> Option<&JournalRecord> {
        self.records.iter().rev().find(|r| {
            r.cell == cell
                && r.config_hash == config_hash
                && r.config.as_deref().is_none_or(|c| c == config)
        })
    }

    /// Append one record and persist the journal atomically.
    ///
    /// # Errors
    /// I/O errors writing the tmp file or renaming it into place.
    pub fn append(&mut self, record: JournalRecord) -> std::io::Result<()> {
        self.records.push(record);
        self.persist()
    }

    /// Write all lines through [`mcgpu_types::fsio::atomic_write`] (tmp
    /// write, `fsync`, atomic rename, directory `fsync`): a crash at any
    /// instant leaves either the previous consistent file or the new one.
    fn persist(&self) -> std::io::Result<()> {
        if let Some(dir) = self.path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut text = String::new();
        for r in &self.records {
            text.push_str(&r.to_line());
            text.push('\n');
        }
        fsio::atomic_write(&self.path, text.as_bytes())
    }
}

/// FNV-1a 64-bit hash.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Canonical description of everything that determines a cell's result:
/// the machine configuration, the trace parameters, the benchmark name and
/// the LLC organization (all via their `Debug` forms, which cover every
/// field). [`cell_config_hash`] is the FNV-1a-64 of this string; the
/// string itself is stored in each [`JournalRecord`] so
/// [`Journal::lookup_verified`] can reject hash collisions.
pub fn cell_config_desc(
    cfg: &MachineConfig,
    params: &TraceParams,
    bench: &str,
    org: LlcOrgKind,
) -> String {
    format!("{cfg:?}|{params:?}|{bench}|{org:?}")
}

/// Hash of [`cell_config_desc`], used to invalidate journal records when
/// any input changes (and, with the stored description, to guard against
/// collisions on cache hits).
pub fn cell_config_hash(
    cfg: &MachineConfig,
    params: &TraceParams,
    bench: &str,
    org: LlcOrgKind,
) -> u64 {
    fnv1a_64(cell_config_desc(cfg, params, bench, org).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcgpu_types::fsio::FailPoint;

    fn completed(cell: &str, hash: u64, json: &str) -> JournalRecord {
        JournalRecord {
            cell: cell.to_string(),
            config_hash: hash,
            config: Some(format!("desc-{hash:x}")),
            mode: None,
            attempts: 1,
            outcome: RecordOutcome::Completed {
                stats_json: json.to_string(),
            },
        }
    }

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sac-journal-{name}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn append_reload_round_trips() {
        let path = tmp_path("roundtrip");
        let mut j = Journal::create(&path).unwrap();
        j.append(completed("SN/SAC", 0xdead_beef, "{\n  \"cycles\": 12\n"))
            .unwrap();
        j.append(JournalRecord {
            cell: "CFD/dynamic".to_string(),
            config_hash: 7,
            config: None,
            mode: None,
            attempts: 3,
            outcome: RecordOutcome::Quarantined {
                kind: "deadlock".to_string(),
                error: "no forward progress for 1000 cycles".to_string(),
            },
        })
        .unwrap();
        let back = Journal::open(&path).unwrap();
        assert_eq!(back.records(), j.records());
        assert_eq!(
            back.lookup("SN/SAC", 0xdead_beef),
            Some(&j.records()[0]),
            "lookup finds the record under its exact key"
        );
        assert_eq!(
            back.lookup("SN/SAC", 0xdead_beee),
            None,
            "a stale config hash must not replay"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn verified_lookup_rejects_a_hash_collision() {
        let path = tmp_path("collision");
        let mut j = Journal::create(&path).unwrap();
        // Two distinct experiments whose descriptions hash identically
        // (simulated collision: same stored hash, different description).
        let mut rec = completed("SN/SAC", 0x1234, "{\"cycles\": 1\n");
        rec.config = Some("experiment-A".to_string());
        j.append(rec).unwrap();

        let back = Journal::open(&path).unwrap();
        assert!(
            back.lookup_verified("SN/SAC", 0x1234, "experiment-A")
                .is_some(),
            "matching description replays"
        );
        assert!(
            back.lookup_verified("SN/SAC", 0x1234, "experiment-B")
                .is_none(),
            "a colliding hash with a different description must miss the \
             cache and fall back to re-simulation"
        );
        // Hash-only lookup still sees the record (resume compatibility).
        assert!(back.lookup("SN/SAC", 0x1234).is_some());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn verified_lookup_accepts_legacy_records_without_config() {
        let path = tmp_path("legacy");
        let mut j = Journal::create(&path).unwrap();
        j.append(JournalRecord {
            cell: "a".to_string(),
            config_hash: 5,
            config: None,
            mode: None,
            attempts: 1,
            outcome: RecordOutcome::Completed {
                stats_json: "{}".to_string(),
            },
        })
        .unwrap();
        // A pre-guard record carries no description; it matches on hash
        // alone, exactly as it did before the field existed.
        let back = Journal::open(&path).unwrap();
        assert!(back.lookup_verified("a", 5, "anything").is_some());
        // And its line contains no config field at all.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.contains("\"config\""), "line: {text}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn config_desc_round_trips_through_the_journal() {
        let cfg = MachineConfig::experiment_baseline();
        let params = TraceParams::quick();
        let desc = cell_config_desc(&cfg, &params, "SN", LlcOrgKind::Sac);
        let path = tmp_path("desc-roundtrip");
        let mut j = Journal::create(&path).unwrap();
        j.append(JournalRecord {
            cell: "SN/SAC".to_string(),
            config_hash: fnv1a_64(desc.as_bytes()),
            config: Some(desc.clone()),
            mode: None,
            attempts: 1,
            outcome: RecordOutcome::Completed {
                stats_json: "{}".to_string(),
            },
        })
        .unwrap();
        let back = Journal::open(&path).unwrap();
        assert_eq!(back.records()[0].config.as_deref(), Some(desc.as_str()));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_tail_keeps_earlier_records() {
        let path = tmp_path("truncated");
        let mut j = Journal::create(&path).unwrap();
        j.append(completed("a", 1, "{}")).unwrap();
        j.append(completed("b", 2, "{}")).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // Cut the second line in half, as a crash mid-write would.
        let first_len = text.lines().next().unwrap().len();
        std::fs::write(&path, &text[..first_len + 1 + (text.len() - first_len) / 2]).unwrap();
        let back = Journal::open(&path).unwrap();
        assert_eq!(back.records().len(), 1);
        assert_eq!(back.records()[0].cell, "a");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_opens_empty() {
        let j = Journal::open(tmp_path("nonexistent")).unwrap();
        assert!(j.records().is_empty());
    }

    #[test]
    fn injected_write_failures_leave_the_previous_journal_readable() {
        // The atomicity contract under the fsio fault shim: whichever step
        // of the durable write dies, the on-disk journal still parses and
        // still holds every previously appended record.
        let path = tmp_path("failpoints");
        let mut j = Journal::create(&path).unwrap();
        j.append(completed("a", 1, "{}")).unwrap();
        for point in [FailPoint::ShortWrite, FailPoint::Fsync, FailPoint::Rename] {
            fsio::inject_failure(Some(point));
            let err = j
                .append(completed("b", 2, "{}"))
                .expect_err("armed fail point must surface as an I/O error");
            assert!(err.to_string().contains("injected"), "{point:?}: {err}");
            let back = Journal::open(&path).unwrap();
            assert_eq!(back.records().len(), 1, "{point:?}");
            assert_eq!(back.records()[0].cell, "a", "{point:?}");
            // The in-memory record from the failed append is still queued;
            // drop it so each fail point starts from the same state.
            j.records.pop();
        }
        // With the hook disarmed the next append goes through and the tmp
        // debris from the short write is renamed away.
        j.append(completed("b", 2, "{}")).unwrap();
        let back = Journal::open(&path).unwrap();
        assert_eq!(back.records().len(), 2);
        assert!(!fsio::tmp_path(&path).exists());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn config_hash_tracks_every_input() {
        let cfg = MachineConfig::experiment_baseline();
        let params = TraceParams::quick();
        let h = cell_config_hash(&cfg, &params, "SN", LlcOrgKind::Sac);
        assert_eq!(h, cell_config_hash(&cfg, &params, "SN", LlcOrgKind::Sac));
        assert_ne!(h, cell_config_hash(&cfg, &params, "SN", LlcOrgKind::SmSide));
        assert_ne!(h, cell_config_hash(&cfg, &params, "CFD", LlcOrgKind::Sac));
        let mut cfg2 = cfg.clone();
        cfg2.watchdog_cycles += 1;
        assert_ne!(h, cell_config_hash(&cfg2, &params, "SN", LlcOrgKind::Sac));
        let params2 = TraceParams {
            total_accesses: params.total_accesses + 1,
            ..params
        };
        assert_ne!(h, cell_config_hash(&cfg, &params2, "SN", LlcOrgKind::Sac));
    }
}
