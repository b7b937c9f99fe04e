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
//! Mode selection mirrors the LLC organizations': CLI tokens are validated
//! against [`EngineMode::from_token`] up front, `--list-modes` prints every
//! mode's token and summary, and journal records are stamped with the mode
//! so a resumed sweep cannot silently mix fidelities.

/// How a simulation cell is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineMode {
    /// Cycle-stepped simulation (ground truth).
    #[default]
    Cycle,
    /// Analytic locality estimation (no cycle simulation).
    Fast,
}

impl EngineMode {
    /// Every mode, in fidelity order.
    pub const ALL: [EngineMode; 2] = [EngineMode::Cycle, EngineMode::Fast];

    /// Canonical CLI token (`--mode <token>`, also the journal stamp).
    pub fn token(self) -> &'static str {
        match self {
            EngineMode::Cycle => "cycle",
            EngineMode::Fast => "fast",
        }
    }

    /// One-line description for `--list-modes`.
    pub fn summary(self) -> &'static str {
        match self {
            EngineMode::Cycle => "cycle-accurate simulation (ground truth)",
            EngineMode::Fast => {
                "analytic EAB/locality estimator (no cycle simulation; cross-validated)"
            }
        }
    }

    /// Resolve a CLI token to its mode.
    pub fn from_token(token: &str) -> Option<EngineMode> {
        EngineMode::ALL.into_iter().find(|m| m.token() == token)
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
    fn every_mode_token_round_trips() {
        for mode in EngineMode::ALL {
            assert_eq!(EngineMode::from_token(mode.token()), Some(mode));
        }
    }

    #[test]
    fn unknown_tokens_are_rejected() {
        assert_eq!(EngineMode::from_token("warp-speed"), None);
        assert_eq!(EngineMode::from_token(""), None);
    }

    #[test]
    fn default_is_cycle() {
        assert_eq!(EngineMode::default(), EngineMode::Cycle);
    }
}
