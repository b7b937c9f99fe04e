//! Engine execution modes: the two tiers of the two-tier engine.
//!
//! The simulator can evaluate a (configuration × benchmark × organization)
//! cell at two fidelities:
//!
//! * **`cycle`** — the cycle-stepped (optionally event-skipping) engine.
//!   Ground truth: every queue, credit and cache is modeled per cycle.
//! * **`fast`** — the analytic locality estimator built on the EAB model.
//!   No cycle simulation at all: per-kernel reuse/sharing profiles are
//!   extracted from the trace once and pushed through closed-form capacity
//!   and bandwidth formulas. Orders of magnitude faster; accuracy is
//!   cross-validated against the cycle engine by the `crossval` binary and
//!   pinned in `expectations/crossval.json`.
//!
//! Mode selection mirrors the LLC-organization registry: CLI tokens are
//! validated against [`ENGINE_MODES`] up front, `--list-modes` prints the
//! table, and journal records are stamped with the mode so a resumed sweep
//! cannot silently mix fidelities.

/// How a simulation cell is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineMode {
    /// Cycle-stepped simulation (ground truth).
    #[default]
    Cycle,
    /// Analytic locality estimation (no cycle simulation).
    Fast,
}

/// One engine mode's registry entry: how the CLI names it and what it is.
#[derive(Debug, Clone, Copy)]
pub struct ModeDescriptor {
    /// The mode.
    pub mode: EngineMode,
    /// Canonical CLI token (`--mode <token>`).
    pub token: &'static str,
    /// One-line description for `--list-modes`.
    pub summary: &'static str,
}

/// All engine modes, in fidelity order. CLI parsing and `--list-modes`
/// quote this table, so a new mode needs only a row here and an engine
/// entry point.
pub const ENGINE_MODES: [ModeDescriptor; 2] = [
    ModeDescriptor {
        mode: EngineMode::Cycle,
        token: "cycle",
        summary: "cycle-accurate simulation (ground truth)",
    },
    ModeDescriptor {
        mode: EngineMode::Fast,
        token: "fast",
        summary: "analytic EAB/locality estimator (no cycle simulation; cross-validated)",
    },
];

impl EngineMode {
    /// Every mode, in registry order.
    pub const ALL: [EngineMode; 2] = [EngineMode::Cycle, EngineMode::Fast];

    /// The registry row for this mode.
    pub fn descriptor(self) -> &'static ModeDescriptor {
        ENGINE_MODES
            .iter()
            .find(|d| d.mode == self)
            .expect("every engine mode is registered")
    }

    /// Canonical CLI token (also the journal stamp).
    pub fn token(self) -> &'static str {
        self.descriptor().token
    }

    /// Resolve a CLI token to its mode.
    pub fn from_token(token: &str) -> Option<EngineMode> {
        ENGINE_MODES
            .iter()
            .find(|d| d.token == token)
            .map(|d| d.mode)
    }

    /// Every registered CLI token, in registry order — the vocabulary
    /// quoted by unknown-mode errors.
    pub fn tokens() -> Vec<&'static str> {
        ENGINE_MODES.iter().map(|d| d.token).collect()
    }
}

impl std::fmt::Display for EngineMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_mode_once() {
        assert_eq!(ENGINE_MODES.len(), EngineMode::ALL.len());
        for mode in EngineMode::ALL {
            assert_eq!(mode.descriptor().mode, mode);
            assert_eq!(EngineMode::from_token(mode.token()), Some(mode));
        }
    }

    #[test]
    fn unknown_tokens_are_rejected() {
        assert_eq!(EngineMode::from_token("warp-speed"), None);
        assert_eq!(EngineMode::from_token(""), None);
        assert_eq!(EngineMode::tokens(), vec!["cycle", "fast"]);
    }

    #[test]
    fn default_is_cycle() {
        assert_eq!(EngineMode::default(), EngineMode::Cycle);
    }
}
