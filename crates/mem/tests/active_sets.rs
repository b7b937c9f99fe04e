//! Lockstep test: a `MemoryPartition` that visits only its active DRAM
//! channels against a copy forced to visit every channel.
//!
//! The copy calls `wake_all` before every tick, pop and query, so its
//! active set is always full and every loop walks every channel — the
//! partition as it was before the active set. Both run side by side under
//! bursts of reads, writes and writebacks separated by quiet stretches,
//! so channels fill, drain, go dormant and wake again, with `throttle`
//! and `fail_channel` mid-run. On every cycle `next_event`, the completed
//! requests in order, the counters and the checkpoint bytes must agree.
//! At random cycles the active partition is replaced by its own
//! `load_into` round trip, which must save back to the same bytes and keep
//! agreeing from there on.

use mcgpu_mem::{DramRequest, MemoryPartition};
use mcgpu_types::{Address, ChipId, ClusterId, Dec, Enc, LineAddr, MemAccess, Request, RequestId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn save(mp: &MemoryPartition) -> Vec<u8> {
    let mut e = Enc::new();
    mp.save(&mut e);
    e.into_bytes()
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
        for now in 0..800u64 {
            let sends = if (now / 80) % 2 == 0 { rng.gen_range(0..4u32) } else { 0 };
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
            prop_assert_eq!(save(&active), save(&all), "bytes at cycle {}", now);
            if rng.gen_bool(0.02) {
                let bytes = save(&active);
                let mut restored = new();
                let mut d = Dec::new(&bytes);
                restored.load_into(&mut d).expect("own snapshot loads");
                d.finish().expect("snapshot fully consumed");
                prop_assert_eq!(save(&restored), bytes, "round trip at cycle {}", now);
                active = restored;
            }
        }
    }
}
