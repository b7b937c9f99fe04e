//! Lockstep test: a `MemoryPartition` that visits only its active DRAM
//! channels against a copy forced to visit every channel.
//!
//! The copy calls `wake_all` before every tick, pop and query, so its
//! active set is always full and every loop walks every channel — the
//! partition as it was before the active set. Both run side by side under
//! bursts of reads, writes and writebacks separated by quiet stretches,
//! so channels fill, drain, go dormant and wake again, with `throttle`
//! and `fail_channel` mid-run. On every cycle `next_event`, the completed
//! requests in order and the counters must agree. Each case ends by
//! ticking both until they are empty, comparing every completion.

use mcgpu_mem::{DramRequest, MemoryPartition};
use mcgpu_types::{Address, ChipId, ClusterId, LineAddr, MemAccess, Request, RequestId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The partition's counters.
fn counters(mp: &MemoryPartition) -> (u64, u64, u64, usize, usize) {
    (
        mp.served_reads(),
        mp.served_writes(),
        mp.accepted_bytes(),
        mp.pending_requests(),
        mp.live_channels(),
    )
}

fn request(id: u64, line: u64, write: bool) -> DramRequest {
    let addr = Address::new(line * 128);
    DramRequest {
        request: Request {
            id: RequestId(id),
            origin: ClusterId::new(ChipId(0), (id % 8) as usize),
            access: if write {
                MemAccess::write(addr)
            } else {
                MemAccess::read(addr)
            },
            home: ChipId(0),
        },
        from_local_slice: !id.is_multiple_of(3),
        slice: id.is_multiple_of(2).then_some((id % 4) as u16),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn partition_matches_a_visit_all_copy(
        channels in 1usize..70,
        channel_gbs in 4.0f64..64.0,
        latency in 0u64..150,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let new = || MemoryPartition::new(channels, channel_gbs, latency, 128);
        let mut active = new();
        let mut all = new();
        let mut next_id = 0u64;
        let mut now = 0u64;
        while now < 800 || !all.is_empty() {
            prop_assert!(now < 1_000_000, "not drained by cycle {}", now);
            let sends = if now < 800 && (now / 80).is_multiple_of(2) { rng.gen_range(0..4u32) } else { 0 };
            for _ in 0..sends {
                let line = rng.gen_range(0..4_096u64);
                if rng.gen_bool(0.2) {
                    active.push_writeback(LineAddr(line));
                    all.push_writeback(LineAddr(line));
                } else {
                    let dreq = request(next_id, line, rng.gen_bool(0.3));
                    active.push(dreq);
                    all.push(dreq);
                    next_id += 1;
                }
            }
            if rng.gen_bool(0.01) {
                let factor = rng.gen_range(0.1..1.5);
                active.throttle(factor);
                all.throttle(factor);
            }
            if rng.gen_bool(0.005) {
                let channel = rng.gen_range(0..channels);
                prop_assert_eq!(active.fail_channel(channel), all.fail_channel(channel));
            }
            all.wake_all();
            prop_assert_eq!(active.next_event(now), all.next_event(now), "next_event at cycle {}", now);
            active.tick(now);
            all.wake_all();
            all.tick(now);
            let (mut done_active, mut done_all) = (Vec::new(), Vec::new());
            active.pop_ready_into(now, &mut done_active);
            all.wake_all();
            all.pop_ready_into(now, &mut done_all);
            prop_assert_eq!(done_active, done_all, "completions at cycle {}", now);
            prop_assert_eq!(active.is_empty(), all.is_empty(), "is_empty at cycle {}", now);
            prop_assert_eq!(active.len(), all.len());
            prop_assert_eq!(counters(&active), counters(&all), "counters at cycle {}", now);
            now += 1;
        }
        prop_assert!(active.is_empty(), "active copy still holds requests");
    }
}
