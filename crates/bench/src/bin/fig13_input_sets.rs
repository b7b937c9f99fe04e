//! Regenerates Fig. 13: input-set sensitivity. For SP benchmarks the input
//! is scaled x8 ... /4; for MP benchmarks x4 ... /32. SAC should follow the
//! crossover: large inputs make replication thrash (memory-side wins),
//! small inputs make replication fit (SM-side wins).
//!
//! `--json PATH` additionally writes the figure's structured data as a
//! canonical `mcgpu-figdata-v1` document; `--journal PATH` / `--resume
//! PATH` are the standard journaled-sweep flags. The figure runs on the
//! cycle engine only, so there is no `--mode`.

use sac_bench::figdata::{emit, Fig13Data};
use sac_bench::{reject_unknown_flags, SweepOptions};

fn main() {
    reject_unknown_flags(&["--quick", "--jobs", "--journal", "--resume", "--json"]);
    let cfg = sac_bench::experiment_config();
    let base = sac_bench::trace_params();
    emit(&Fig13Data::collect(&cfg, &base, &SweepOptions::from_args()));
}
