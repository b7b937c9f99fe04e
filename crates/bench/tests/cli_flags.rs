//! Command-line hygiene of every `sac-bench` binary: a flag the binary
//! does not read, and an environment value that does not parse, exit 2
//! before any work starts, naming the offending flag or variable, so a
//! misspelt or retired option is never silently ignored. `sacsim`'s
//! organization and mode listings and its unknown-token errors are pinned
//! byte for byte.

use std::process::{Command, Output};

/// `(name, path)` of the package binary `name`.
macro_rules! bin {
    ($name:literal) => {
        ($name, env!(concat!("CARGO_BIN_EXE_", $name)))
    };
}

/// Every binary of the package.
const BINARIES: [(&str, &str); 15] = [
    bin!("ablation_profile_window"),
    bin!("ablation_theta"),
    bin!("bench_baseline"),
    bin!("crossval"),
    bin!("fig12_time_varying"),
    bin!("fig13_input_sets"),
    bin!("fig14_sensitivity"),
    bin!("fig15_scaleout"),
    bin!("figcheck"),
    bin!("golden_sweep"),
    bin!("overhead_report"),
    bin!("resilience_report"),
    bin!("sacsim"),
    bin!("table03_config"),
    bin!("table04_workloads"),
];

fn run(exe: &str, args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(exe)
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("spawn binary")
}

/// Assert `out` is a usage failure: exit 2, nothing on stdout, and
/// `needle` named on stderr.
fn assert_rejected(what: &str, out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
    assert!(out.stdout.is_empty(), "{what} printed before rejecting");
    assert!(
        stderr.contains(needle),
        "{what}: `{needle}` not in {stderr}"
    );
}

#[test]
fn every_binary_rejects_an_unknown_flag() {
    for (name, exe) in BINARIES {
        let out = run(exe, &["--no-such-flag"], &[]);
        assert_rejected(name, &out, "--no-such-flag");
    }
}

/// Flags other binaries take are rejected where they would be ignored:
/// Fig. 13 runs the cycle engine only, fast mode ignores the SAC
/// parameters the ablations vary, the resilience report keeps no journal,
/// and the closed-form tables read no flag at all.
#[test]
fn flags_a_binary_would_ignore_are_rejected() {
    let cases: [((&str, &str), &[&str], &str); 8] = [
        (bin!("fig13_input_sets"), &["--mode", "fast"], "--mode"),
        (bin!("ablation_theta"), &["--mode", "fast"], "--mode"),
        (bin!("ablation_profile_window"), &["--mode=fast"], "--mode"),
        (bin!("resilience_report"), &["--journal", "j"], "--journal"),
        (
            bin!("resilience_report"),
            &["--quick", "--resume", "j"],
            "--resume",
        ),
        (bin!("table03_config"), &["--quick"], "--quick"),
        (bin!("crossval"), &["--reprot", "x.json"], "--reprot"),
        (bin!("figcheck"), &["--reprot", "x.json"], "--reprot"),
    ];
    for ((name, exe), args, flag) in cases {
        assert_rejected(&format!("{name} {args:?}"), &run(exe, args, &[]), flag);
    }
}

#[test]
fn unparsable_environment_values_exit_2() {
    let sacsim = bin!("sacsim").1;
    let args = ["--bench", "SN", "--accesses", "15000"];
    for (var, value) in [
        ("MCGPU_WATCHDOG_CYCLES", "1k"),
        ("MCGPU_JOBS", "1k"),
        ("MCGPU_JOBS", "one"),
    ] {
        let out = run(sacsim, &args, &[(var, value)]);
        assert_rejected(&format!("{var}={value}"), &out, var);
    }
}

/// `sacsim --list-orgs` and `--list-modes`, byte for byte.
#[test]
fn sacsim_lists_every_organization_and_mode() {
    let sacsim = bin!("sacsim").1;
    let cases: [(&str, &str); 2] = [
        (
            "--list-orgs",
            "token    label        summary\n\
             mem      memory-side  baseline: slices cache the local partition's data for all chips\n\
             sm       SM-side      two-NoC SM-side: slices cache whatever the local SMs access\n\
             static   static       L1.5 static split: half the ways local, half remote\n\
             dynamic  dynamic      dynamic way split adapting to local-memory vs inter-chip pressure\n\
             sac      SAC          SAC: per-kernel memory-side/SM-side choice driven by the EAB model\n",
        ),
        (
            "--list-modes",
            "token    summary\n\
             cycle    cycle-accurate simulation (ground truth)\n\
             fast     analytic EAB/locality estimator (no cycle simulation; cross-validated)\n",
        ),
    ];
    for (flag, expected) in cases {
        let out = run(sacsim, &[flag], &[]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), expected, "{flag}");
    }
}

/// An unknown `--org` or `--mode` exits 2 naming every known token.
#[test]
fn sacsim_names_every_token_on_an_unknown_org_or_mode() {
    let sacsim = bin!("sacsim").1;
    let cases: [(&[&str], &str); 2] = [
        (
            &["--org", "bogus"],
            "unknown organization bogus; known: mem (memory-side), sm (SM-side), \
             static (static), dynamic (dynamic), sac (SAC), or `all` (see --list-orgs)\n",
        ),
        (
            &["--mode", "bogus"],
            "error: unknown engine mode `bogus`; known modes: cycle, fast (see --list-modes)\n",
        ),
    ];
    for (args, expected) in cases {
        let out = run(sacsim, args, &[]);
        assert_rejected(&format!("{args:?}"), &out, "bogus");
        assert_eq!(String::from_utf8_lossy(&out.stderr), expected, "{args:?}");
    }
}
