//! Ablation: the EAB decision threshold θ (the paper fixes θ = 5% and omits
//! the sensitivity analysis for space). Sweeps θ and reports SAC's speedup
//! and decisions on a mixed subset.

use mcgpu_trace::{generate, profiles, Workload};
use mcgpu_types::LlcOrgKind;
use sac::SacConfig;
use sac_bench::{collect_outcomes, exit_on_quarantine, sweep, Attempt, SimCell};
use std::sync::Arc;

const SUBSET: [&str; 4] = ["SN", "CFD", "SRAD", "GEMM"];
const THETAS: [f64; 5] = [0.0, 0.05, 0.2, 0.5, 2.0];

fn main() {
    let cfg = sac_bench::experiment_config();
    let params = sac_bench::trace_params();
    let base_sac = SacConfig::for_machine(&cfg);

    // Fan trace generation out per benchmark, then every run — the
    // memory-side baseline and each θ variant — out independently.
    let workloads: Vec<Arc<Workload>> = sweep::map(SUBSET.to_vec(), |name| {
        let p = profiles::by_name(name).expect("profile");
        Arc::new(generate(&cfg, &p, &params))
    });
    let jobs: Vec<(usize, Option<f64>)> = (0..SUBSET.len())
        .flat_map(|b| std::iter::once((b, None)).chain(THETAS.iter().map(move |&t| (b, Some(t)))))
        .collect();
    // Each (benchmark, theta) cell runs isolated with bounded retries: a
    // failing variant is quarantined and reported without discarding the
    // rest of the ablation grid.
    let outcomes = sweep::map_isolated(jobs.clone(), |&(b, theta), n| {
        let cell = match theta {
            None => SimCell::new(&cfg, &workloads[b], LlcOrgKind::MemorySide),
            Some(theta) => SimCell {
                sac: Some(SacConfig { theta, ..base_sac }),
                ..SimCell::new(&cfg, &workloads[b], LlcOrgKind::Sac)
            },
        };
        cell.attempt(Attempt::cycle(n))
    });
    let stats = exit_on_quarantine(collect_outcomes(outcomes, |i| {
        let (b, theta) = jobs[i];
        format!("{}/theta={:?}", SUBSET[b], theta)
    }));

    let per_bench = THETAS.len() + 1;
    println!("{:6} {:>6} | {:>8} | modes", "bench", "theta", "speedup");
    for (b, name) in SUBSET.iter().enumerate() {
        let mem = &stats[b * per_bench];
        for (ti, &theta) in THETAS.iter().enumerate() {
            let s = &stats[b * per_bench + 1 + ti];
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
                "{:6} {:>6.2} | {:>8.2} | [{}]",
                name,
                theta,
                s.speedup_over(mem),
                modes
            );
        }
        println!();
    }
    println!("(a huge theta forces memory-side everywhere; theta=0 removes the");
    println!(" coherence-cost guard band. The paper's 5% is a balanced default.)");
}
