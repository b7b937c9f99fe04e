//! Ablation: the profiling window length (§3.2; the paper uses 2K cycles at
//! full scale and found longer/periodic profiling unnecessary). On the
//! scaled machine the transient covers more of the window, so the default
//! is stretched (see `SacConfig::for_machine`).

use mcgpu_trace::{generate, profiles, Workload};
use mcgpu_types::LlcOrgKind;
use sac::SacConfig;
use sac_bench::{collect_outcomes, exit_on_quarantine, sweep, Attempt, SimCell};
use std::sync::Arc;

const SUBSET: [&str; 4] = ["SN", "RN", "SRAD", "LUD"];
const WINDOWS: [u64; 5] = [1_000, 2_000, 4_000, 8_000, 16_000];

fn main() {
    let cfg = sac_bench::experiment_config();
    let params = sac_bench::trace_params();

    // Fan trace generation out per benchmark, then every run — the
    // memory-side baseline and each window variant — out independently.
    let workloads: Vec<Arc<Workload>> = sweep::map(SUBSET.to_vec(), |name| {
        let p = profiles::by_name(name).expect("profile");
        Arc::new(generate(&cfg, &p, &params))
    });
    let jobs: Vec<(usize, Option<u64>)> = (0..SUBSET.len())
        .flat_map(|b| std::iter::once((b, None)).chain(WINDOWS.iter().map(move |&w| (b, Some(w)))))
        .collect();
    // Each (benchmark, window) cell runs isolated with bounded retries: a
    // failing variant is quarantined and reported without discarding the
    // rest of the ablation grid.
    let outcomes = sweep::map_isolated(jobs.clone(), |&(b, window), n| {
        let cell = match window {
            None => SimCell::new(&cfg, &workloads[b], LlcOrgKind::MemorySide),
            Some(profile_window) => SimCell {
                sac: Some(SacConfig {
                    profile_window,
                    ..SacConfig::for_machine(&cfg)
                }),
                ..SimCell::new(&cfg, &workloads[b], LlcOrgKind::Sac)
            },
        };
        cell.attempt(Attempt::cycle(n))
    });
    let stats = exit_on_quarantine(collect_outcomes(outcomes, |i| {
        let (b, window) = jobs[i];
        format!("{}/window={:?}", SUBSET[b], window)
    }));

    let per_bench = WINDOWS.len() + 1;
    println!(
        "{:6} {:>8} | {:>8} {:>10} | modes",
        "bench", "window", "speedup", "ovh cycles"
    );
    for (b, name) in SUBSET.iter().enumerate() {
        let mem = &stats[b * per_bench];
        for (wi, &window) in WINDOWS.iter().enumerate() {
            let s = &stats[b * per_bench + 1 + wi];
            let modes: String = s
                .sac_history
                .iter()
                .map(|k| {
                    if k.mode == sac::LlcMode::SmSide {
                        'S'
                    } else {
                        'M'
                    }
                })
                .collect();
            println!(
                "{:6} {:>8} | {:>8.2} {:>10} | [{}]",
                name,
                window,
                s.speedup_over(mem),
                s.overhead_cycles,
                modes
            );
        }
        println!();
    }
}
