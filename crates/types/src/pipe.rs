//! A bandwidth- and latency-limited FIFO pipe.
//!
//! [`Pipe`] is the single queueing primitive every bandwidth-limited resource
//! in the simulator is built from: NoC ports, inter-chip links, LLC slice
//! ports and DRAM channels. Items enter a bounded waiting queue, start
//! "transmission" when the [`BandwidthBudget`]
//! admits their size, and become available `latency` cycles later.

use crate::budget::BandwidthBudget;
use std::collections::VecDeque;

/// A FIFO with a per-cycle byte budget and a fixed traversal latency.
///
/// # Example
/// ```
/// use mcgpu_types::pipe::Pipe;
///
/// // 16 B/cycle, 10-cycle latency, queue of 4 entries.
/// let mut link: Pipe<&str> = Pipe::new(16.0, 10, Some(4));
/// link.try_push("hello", 16).unwrap();
/// for now in 0..=10 {
///     link.tick(now);
///     if let Some(msg) = link.pop_ready(now) {
///         assert_eq!(msg, "hello");
///         assert!(now >= 10);
///     }
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Pipe<T> {
    budget: BandwidthBudget,
    latency: u64,
    capacity: Option<usize>,
    waiting: VecDeque<(T, u64)>,
    in_flight: VecDeque<(u64, T)>,
}

impl<T> Pipe<T> {
    /// Create a pipe with `rate` bytes/cycle, `latency` cycles and an
    /// optional waiting-queue bound (`None` = unbounded).
    pub fn new(rate: f64, latency: u64, capacity: Option<usize>) -> Self {
        Pipe {
            budget: BandwidthBudget::new(rate),
            latency,
            capacity,
            waiting: VecDeque::new(),
            in_flight: VecDeque::new(),
        }
    }

    /// Create a pipe that is latency-only (unlimited bandwidth).
    pub fn latency_only(latency: u64) -> Self {
        Pipe {
            budget: BandwidthBudget::unlimited(),
            latency,
            capacity: None,
            waiting: VecDeque::new(),
            in_flight: VecDeque::new(),
        }
    }

    /// Enqueue an item of `bytes` size.
    ///
    /// # Errors
    /// Returns the item back if the waiting queue is full (backpressure).
    pub fn try_push(&mut self, item: T, bytes: u64) -> Result<(), T> {
        if let Some(cap) = self.capacity {
            if self.waiting.len() >= cap {
                return Err(item);
            }
        }
        self.waiting.push_back((item, bytes));
        Ok(())
    }

    /// Whether a push would currently succeed.
    pub fn can_push(&self) -> bool {
        self.capacity.is_none_or(|cap| self.waiting.len() < cap)
    }

    /// Advance one cycle: replenish bandwidth and start transmitting queued
    /// items whose bytes fit. Call exactly once per cycle with the current
    /// cycle number.
    pub fn tick(&mut self, now: u64) {
        self.budget.refill();
        while let Some(&(_, bytes)) = self.waiting.front() {
            if !self.budget.try_consume(bytes) {
                break;
            }
            let (item, _) = self.waiting.pop_front().expect("front checked");
            self.in_flight.push_back((now + self.latency, item));
        }
    }

    /// Pop the next item whose latency has elapsed, if any.
    pub fn pop_ready(&mut self, now: u64) -> Option<T> {
        match self.in_flight.front() {
            Some(&(ready, _)) if ready <= now => self.in_flight.pop_front().map(|(_, t)| t),
            _ => None,
        }
    }

    /// Items still waiting to start transmission.
    pub fn queued(&self) -> usize {
        self.waiting.len()
    }

    /// Items in flight (transmitted, latency not yet elapsed).
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Whether the pipe holds no items at all.
    pub fn is_empty(&self) -> bool {
        self.waiting.is_empty() && self.in_flight.is_empty()
    }

    /// Total items inside the pipe.
    pub fn len(&self) -> usize {
        self.waiting.len() + self.in_flight.len()
    }

    /// The configured bandwidth in bytes/cycle.
    pub fn rate(&self) -> f64 {
        self.budget.rate()
    }

    /// Rescale the pipe's bandwidth at runtime (fault injection). Queued
    /// and in-flight items are unaffected; only the admission rate of
    /// future items changes. A rate of `0.0` stalls the pipe's waiting
    /// queue entirely while still delivering what is already in flight.
    pub fn set_rate(&mut self, rate: f64) {
        self.budget.set_rate(rate);
    }

    /// Drain every item (used when reconfiguring; items are returned in
    /// queue order, in-flight first).
    pub fn drain(&mut self) -> Vec<T> {
        let mut out: Vec<T> = self.in_flight.drain(..).map(|(_, t)| t).collect();
        out.extend(self.waiting.drain(..).map(|(t, _)| t));
        out
    }

    /// Iterate over every item inside the pipe (in-flight first, then
    /// waiting), without disturbing state. Used by conservation audits to
    /// classify queue contents.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.in_flight
            .iter()
            .map(|(_, t)| t)
            .chain(self.waiting.iter().map(|(t, _)| t))
    }

    /// The next cycle after `now` at which this pipe can change state or
    /// hand out an item: `now + 1` while items wait for bandwidth or the
    /// budget is still refilling, the head's ready cycle when only
    /// in-flight items remain, and `u64::MAX` when the pipe is
    /// [dormant](Pipe::is_dormant). For every cycle strictly between `now`
    /// and the returned one, [`tick`](Pipe::tick) leaves the state
    /// bit-for-bit unchanged and [`pop_ready`](Pipe::pop_ready) returns
    /// `None` — the per-pipe contract behind the engine's next-event
    /// skipping.
    #[inline]
    pub fn next_event(&self, now: u64) -> u64 {
        if !self.waiting.is_empty() || !self.budget.refill_is_noop() {
            return now + 1;
        }
        self.in_flight
            .front()
            .map_or(u64::MAX, |&(ready, _)| ready.max(now + 1))
    }

    /// Whether the pipe is empty and its budget saturated: every
    /// [`tick`](Pipe::tick) and [`pop_ready`](Pipe::pop_ready) is a no-op
    /// until a push or a [`set_rate`](Pipe::set_rate), and
    /// [`next_event`](Pipe::next_event) reports `u64::MAX`. Owners of many
    /// pipes skip their dormant ones ([`ActiveSet`](crate::ActiveSet)).
    #[inline]
    pub fn is_dormant(&self) -> bool {
        self.in_flight.is_empty() && self.waiting.is_empty() && self.budget.refill_is_noop()
    }

    /// Serialize the full pipe state (budget, latency, capacity, both
    /// queues) into a checkpoint payload, encoding each item with `f`.
    pub fn save_with(
        &self,
        e: &mut crate::ckpt::Enc,
        mut f: impl FnMut(&mut crate::ckpt::Enc, &T),
    ) {
        self.budget.save(e);
        e.put_u64(self.latency);
        match self.capacity {
            None => e.put_bool(false),
            Some(cap) => {
                e.put_bool(true);
                e.put_usize(cap);
            }
        }
        e.put_seq_len(self.waiting.len());
        for (item, bytes) in &self.waiting {
            f(e, item);
            e.put_u64(*bytes);
        }
        e.put_seq_len(self.in_flight.len());
        for (ready, item) in &self.in_flight {
            e.put_u64(*ready);
            f(e, item);
        }
    }

    /// Deserialize a pipe saved by [`Pipe::save_with`], decoding each item
    /// with `f`.
    ///
    /// # Errors
    /// Returns a decode error on truncated or malformed input.
    pub fn load_with(
        d: &mut crate::ckpt::Dec<'_>,
        mut f: impl FnMut(&mut crate::ckpt::Dec<'_>) -> crate::ckpt::CkptResult<T>,
    ) -> crate::ckpt::CkptResult<Self> {
        let budget = BandwidthBudget::load(d)?;
        let latency = d.get_u64()?;
        let capacity = if d.get_bool()? {
            Some(d.get_usize()?)
        } else {
            None
        };
        let n = d.get_seq_len()?;
        let mut waiting = VecDeque::with_capacity(n);
        for _ in 0..n {
            let item = f(d)?;
            let bytes = d.get_u64()?;
            waiting.push_back((item, bytes));
        }
        let n = d.get_seq_len()?;
        let mut in_flight = VecDeque::with_capacity(n);
        for _ in 0..n {
            let ready = d.get_u64()?;
            let item = f(d)?;
            in_flight.push_back((ready, item));
        }
        Ok(Pipe {
            budget,
            latency,
            capacity,
            waiting,
            in_flight,
        })
    }
}

/// The earliest of `events` (next-event cycles reported at `now`),
/// stopping at the first one equal to `now + 1`: nothing can be sooner,
/// so a busy component ends the scan without visiting the rest. Returns
/// `u64::MAX` for an empty iterator.
#[inline]
pub fn earliest_event(now: u64, events: impl IntoIterator<Item = u64>) -> u64 {
    let mut earliest = u64::MAX;
    for e in events {
        earliest = earliest.min(e);
        if earliest <= now + 1 {
            break;
        }
    }
    earliest
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bytes(p: &Pipe<u32>) -> Vec<u8> {
        let mut e = crate::ckpt::Enc::new();
        p.save_with(&mut e, |e, &x| e.put_u32(x));
        e.into_bytes()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `next_event` is never late: under random traffic, at random
        /// cycles, ticking and popping every cycle before the reported
        /// event pops nothing and leaves the saved bytes unchanged.
        #[test]
        fn next_event_is_never_late(
            rate in prop_oneof![Just(0.0), 0.5f64..64.0, Just(f64::INFINITY)],
            latency in 0u64..40,
            capacity in prop_oneof![Just(None), (1usize..6).prop_map(Some)],
            seed in any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let mut p: Pipe<u32> = if rate.is_infinite() {
                Pipe::latency_only(latency)
            } else {
                Pipe::new(rate, latency, capacity)
            };
            let mut now = 0u64;
            let mut next_item = 0u32;
            for _ in 0..40 {
                // A burst of traffic, then a quiet stretch whose first
                // event the pipe must predict.
                for _ in 0..rng.gen_range(1..30u32) {
                    now += 1;
                    for _ in 0..rng.gen_range(0..3u32) {
                        let _ = p.try_push(next_item, rng.gen_range(1..300u64));
                        next_item += 1;
                    }
                    if rng.gen_bool(0.05) {
                        p.set_rate(rate.min(1e6) * rng.gen_range(0.0..1.0));
                    }
                    p.tick(now);
                    while rng.gen_bool(0.7) && p.pop_ready(now).is_some() {}
                }
                let event = p.next_event(now);
                prop_assert!(event > now);
                prop_assert_eq!(p.is_dormant(), event == u64::MAX);
                let before = bytes(&p);
                let horizon = event.min(now + 2_000);
                for t in now + 1..horizon {
                    p.tick(t);
                    prop_assert_eq!(p.pop_ready(t), None, "popped before event {}", event);
                    prop_assert_eq!(&bytes(&p), &before, "state moved before event {}", event);
                }
                now = horizon - 1;
            }
        }
    }

    #[test]
    fn next_event_reports_each_regime() {
        let mut p: Pipe<u32> = Pipe::new(16.0, 10, None);
        // Fresh: empty, but the budget starts one cycle below its cap.
        assert_eq!(p.next_event(0), 1);
        for now in 1..=4 {
            p.tick(now);
        }
        assert_eq!(p.next_event(4), u64::MAX, "empty and saturated");
        p.try_push(7, 16).unwrap();
        assert_eq!(p.next_event(4), 5, "an item waits for bandwidth");
        p.tick(5);
        // Sent at 5, ready at 15. The send left the budget 16 B below its
        // cap, so it refills on the next cycle.
        assert_eq!(p.next_event(5), 6);
        for now in 6..=8 {
            p.tick(now);
        }
        assert_eq!(
            p.next_event(8),
            15,
            "only in flight: the head's ready cycle"
        );
        assert_eq!(p.next_event(20), 21, "an overdue head pops next cycle");
    }

    #[test]
    fn earliest_event_stops_at_the_next_cycle() {
        assert_eq!(earliest_event(10, [30, 20, 40]), 20);
        assert_eq!(earliest_event(10, std::iter::empty()), u64::MAX);
        let mut visited = 0;
        let e = earliest_event(10, [50, 11, 12].into_iter().inspect(|_| visited += 1));
        assert_eq!((e, visited), (11, 2));
    }

    #[test]
    fn respects_latency() {
        let mut p: Pipe<u32> = Pipe::new(100.0, 5, None);
        p.try_push(42, 10).unwrap();
        p.tick(0);
        for now in 0..5 {
            assert_eq!(p.pop_ready(now), None, "at {now}");
        }
        assert_eq!(p.pop_ready(5), Some(42));
        assert!(p.is_empty());
    }

    #[test]
    fn respects_bandwidth() {
        // 10 B/cycle, packets of 100 B: one packet starts roughly every 10
        // cycles.
        let mut p: Pipe<u32> = Pipe::new(10.0, 0, None);
        for i in 0..10 {
            p.try_push(i, 100).unwrap();
        }
        let mut done = Vec::new();
        for now in 0..100 {
            p.tick(now);
            while let Some(x) = p.pop_ready(now) {
                done.push((now, x));
            }
        }
        assert_eq!(done.len(), 10);
        // The last packet cannot complete before ~90 cycles.
        assert!(done.last().unwrap().0 >= 85, "{:?}", done.last());
        // FIFO order preserved.
        let order: Vec<u32> = done.iter().map(|&(_, x)| x).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn backpressure_on_full_queue() {
        let mut p: Pipe<u32> = Pipe::new(1.0, 0, Some(2));
        assert!(p.try_push(1, 8).is_ok());
        assert!(p.try_push(2, 8).is_ok());
        assert_eq!(p.try_push(3, 8), Err(3));
        assert!(!p.can_push());
        p.tick(0); // starts transmitting item 1
        assert!(p.can_push());
    }

    #[test]
    fn latency_only_is_unthrottled() {
        let mut p: Pipe<u32> = Pipe::latency_only(3);
        for i in 0..1000 {
            p.try_push(i, 1 << 20).unwrap();
        }
        p.tick(0);
        assert_eq!(p.in_flight(), 1000);
        let mut n = 0;
        while p.pop_ready(3).is_some() {
            n += 1;
        }
        assert_eq!(n, 1000);
    }

    #[test]
    fn drain_returns_everything() {
        let mut p: Pipe<u32> = Pipe::new(8.0, 10, None);
        p.try_push(1, 8).unwrap();
        p.try_push(2, 8).unwrap();
        p.tick(0);
        p.try_push(3, 8).unwrap();
        let all = p.drain();
        assert_eq!(all.len(), 3);
        assert!(p.is_empty());
    }

    #[test]
    fn iter_sees_in_flight_and_waiting() {
        let mut p: Pipe<u32> = Pipe::new(8.0, 10, None);
        p.try_push(1, 8).unwrap();
        p.tick(0); // 1 goes in flight
        p.try_push(2, 8).unwrap();
        let seen: Vec<u32> = p.iter().copied().collect();
        assert_eq!(seen, vec![1, 2]);
        assert_eq!(p.len(), 2); // non-destructive
    }
}
