//! Lockstep test: a `Crossbar` that visits only its active ports against
//! a copy forced to visit every port.
//!
//! The copy calls `wake_all` before every tick, pop and query, so its
//! active set is always full and every loop walks every port — the
//! crossbar as it was before the active set. Both run side by side under
//! bursts of random traffic separated by quiet stretches, so ports fill,
//! drain, go dormant and wake again. On every cycle `try_push` outcomes,
//! `next_event`, every pop and the checkpoint bytes must agree, whether
//! the pops come port by port at random, from a walk over
//! `next_active_port`, or from `pop_all_ready_into`. At random cycles the
//! active crossbar is replaced by its own `load_with` round trip, which
//! must save back to the same bytes and keep agreeing from there on. (The
//! fabric's active links are covered by `fabric_reference.rs`, whose
//! reference visits every link.)

use mcgpu_noc::Crossbar;
use mcgpu_types::{Dec, Enc};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn save(x: &Crossbar<u32>) -> Vec<u8> {
    let mut e = Enc::new();
    x.save_with(&mut e, |e, &p| e.put_u32(p));
    e.into_bytes()
}

fn round_trip(x: &Crossbar<u32>) -> Crossbar<u32> {
    let bytes = save(x);
    let mut d = Dec::new(&bytes);
    let restored = Crossbar::load_with(&mut d, |d| d.get_u32()).expect("own snapshot loads");
    d.finish().expect("snapshot fully consumed");
    assert_eq!(save(&restored), bytes, "round trip changed the bytes");
    restored
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn crossbar_matches_a_visit_all_copy(
        ports in 1usize..70,
        port_gbs in 4.0f64..128.0,
        bisection_gbs in 8.0f64..512.0,
        latency in 0u64..30,
        depth in 1usize..6,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut active: Crossbar<u32> = Crossbar::new(ports, port_gbs, bisection_gbs, latency, depth);
        let mut all: Crossbar<u32> = Crossbar::new(ports, port_gbs, bisection_gbs, latency, depth);
        let mut next_item = 0u32;
        for now in 0..800u64 {
            // Bursts on a few hot ports, then quiet stretches.
            let sends = if (now / 60) % 2 == 0 { rng.gen_range(0..5u32) } else { 0 };
            for _ in 0..sends {
                let port = rng.gen_range(0..ports.min(8));
                let port = if rng.gen_bool(0.5) { port } else { rng.gen_range(0..ports) };
                let bytes = [16u64, 48, 144][rng.gen_range(0..3usize)];
                all.wake_all();
                prop_assert_eq!(
                    active.try_push(port, next_item, bytes),
                    all.try_push(port, next_item, bytes),
                    "try_push to port {} at cycle {}", port, now
                );
                next_item += 1;
            }
            all.wake_all();
            prop_assert_eq!(active.next_event(now), all.next_event(now), "next_event at cycle {}", now);
            active.tick(now);
            all.wake_all();
            all.tick(now);
            let mode = rng.gen_range(0..3u32);
            if mode < 2 {
                // Drain every active port: walking `next_active_port`, or
                // in one call.
                let mut walked = Vec::new();
                if mode == 0 {
                    let mut from = 0;
                    while let Some(port) = active.next_active_port(from) {
                        from = port + 1;
                        while let Some(item) = active.pop_ready(port, now) {
                            walked.push(item);
                        }
                    }
                } else {
                    active.pop_all_ready_into(now, &mut walked);
                }
                let mut everywhere = Vec::new();
                for port in 0..ports {
                    all.wake_all();
                    while let Some(item) = all.pop_ready(port, now) {
                        everywhere.push(item);
                    }
                }
                prop_assert_eq!(walked, everywhere, "drained pops at cycle {}", now);
            } else {
                // Partial pops that leave items behind.
                for port in 0..ports {
                    while rng.gen_bool(0.6) {
                        all.wake_all();
                        let popped = active.pop_ready(port, now);
                        prop_assert_eq!(popped, all.pop_ready(port, now), "pop at port {}, cycle {}", port, now);
                        if popped.is_none() {
                            break;
                        }
                    }
                }
            }
            prop_assert_eq!(active.is_empty(), all.is_empty(), "is_empty at cycle {}", now);
            prop_assert_eq!(active.len(), all.len());
            prop_assert_eq!(save(&active), save(&all), "bytes at cycle {}", now);
            if rng.gen_bool(0.02) {
                active = round_trip(&active);
            }
        }
    }
}
