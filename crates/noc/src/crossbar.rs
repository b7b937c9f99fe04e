//! Output-queued crossbar with a bisection-bandwidth cap.

use mcgpu_types::{earliest_event, ActiveSet, BandwidthBudget, Pipe};

/// An output-queued crossbar: every output port is a bandwidth- and
/// latency-limited FIFO, and a chip-wide bisection budget caps the total
/// bytes that may be injected per cycle across all ports.
///
/// This is the standard first-order model of a concentrated (hierarchical)
/// crossbar: internal contention shows up as the bisection cap, per-output
/// contention as the port queues. See the [crate docs](crate) for an
/// example.
///
/// Ticks, pops of every port and next-event queries visit only the ports
/// that are not [dormant](Pipe::is_dormant), so their cost follows the
/// traffic rather than the port count.
#[derive(Debug, Clone)]
pub struct Crossbar<T> {
    outputs: Vec<Pipe<T>>,
    /// Ports that may not be dormant: a push adds its port, a tick that
    /// leaves a port dormant removes it. Derived, never serialized.
    active: ActiveSet,
    bisection: BandwidthBudget,
    injected_bytes: u64,
    rejected: u64,
}

impl<T> Crossbar<T> {
    /// Create a crossbar with `ports` output ports of `port_gbs` GB/s each,
    /// a total `bisection_gbs` injection cap, a per-hop `latency`, and a
    /// per-port queue depth of `queue_depth` packets.
    ///
    /// # Panics
    /// Panics if `ports` is zero.
    pub fn new(
        ports: usize,
        port_gbs: f64,
        bisection_gbs: f64,
        latency: u64,
        queue_depth: usize,
    ) -> Self {
        assert!(ports > 0);
        Crossbar {
            outputs: (0..ports)
                .map(|_| Pipe::new(port_gbs, latency, Some(queue_depth)))
                .collect(),
            active: ActiveSet::full(ports),
            bisection: BandwidthBudget::new(bisection_gbs),
            injected_bytes: 0,
            rejected: 0,
        }
    }

    /// Number of output ports.
    pub fn ports(&self) -> usize {
        self.outputs.len()
    }

    /// Try to inject `item` of `bytes` towards output `port`.
    ///
    /// # Errors
    /// Returns the item back when either the bisection budget for this cycle
    /// is exhausted or the port queue is full; the caller must retry next
    /// cycle (backpressure).
    ///
    /// # Panics
    /// Panics if `port` is out of range.
    pub fn try_push(&mut self, port: usize, item: T, bytes: u64) -> Result<(), T> {
        if !self.outputs[port].can_push() {
            self.rejected += 1;
            return Err(item);
        }
        if !self.bisection.try_consume(bytes) {
            self.rejected += 1;
            return Err(item);
        }
        self.injected_bytes += bytes;
        self.active.insert(port);
        self.outputs[port].try_push(item, bytes) // cannot happen: can_push checked
    }

    /// Whether output `port` can currently accept a packet (ignoring the
    /// bisection budget).
    pub fn can_push(&self, port: usize) -> bool {
        self.outputs[port].can_push()
    }

    /// Advance one cycle.
    pub fn tick(&mut self, now: u64) {
        self.bisection.refill();
        let outputs = &mut self.outputs;
        self.active.retain(|port| {
            let out = &mut outputs[port];
            out.tick(now);
            !out.is_dormant()
        });
    }

    /// Pop the next delivered packet at output `port`, if any.
    pub fn pop_ready(&mut self, port: usize, now: u64) -> Option<T> {
        self.outputs[port].pop_ready(now)
    }

    /// Pop every delivered packet, port by port in port order, onto `out`:
    /// what [`pop_ready`](Crossbar::pop_ready) on every port until it
    /// returns `None` would yield, visiting only the active ports.
    pub fn pop_all_ready_into(&mut self, now: u64, out: &mut Vec<T>) {
        for port in self.active.iter() {
            out.extend(std::iter::from_fn(|| self.outputs[port].pop_ready(now)));
        }
    }

    /// The lowest port at or after `from` that is not known to be dormant:
    /// walking from port 0 visits every port [`pop_ready`] can deliver
    /// from, in port order. Every other port pops nothing.
    ///
    /// [`pop_ready`]: Crossbar::pop_ready
    pub fn next_active_port(&self, from: usize) -> Option<usize> {
        self.active.next_from(from)
    }

    /// Mark every port active. Visiting a dormant port is a no-op, so
    /// this never changes results; the differential tests call it every
    /// cycle to make the crossbar visit every port.
    pub fn wake_all(&mut self) {
        self.active.fill();
    }

    /// Total packets currently inside the crossbar.
    pub fn len(&self) -> usize {
        self.outputs.iter().map(|o| o.len()).sum()
    }

    /// Whether the crossbar holds no packets.
    pub fn is_empty(&self) -> bool {
        self.active.iter().all(|port| self.outputs[port].is_empty())
    }

    /// Total bytes accepted since construction.
    pub fn injected_bytes(&self) -> u64 {
        self.injected_bytes
    }

    /// Number of rejected (back-pressured) injection attempts.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// The next cycle after `now` at which ticking or popping this
    /// crossbar can change state: `now + 1` while the bisection budget
    /// refills, else the earliest [`Pipe::next_event`] over the output
    /// ports (`u64::MAX` when the crossbar is empty and saturated).
    pub fn next_event(&self, now: u64) -> u64 {
        if !self.bisection.refill_is_noop() {
            return now + 1;
        }
        earliest_event(
            now,
            self.active
                .iter()
                .map(|port| self.outputs[port].next_event(now)),
        )
    }

    /// Drain all packets (LLC reconfiguration drains in-flight traffic).
    pub fn drain(&mut self) -> Vec<T> {
        self.outputs.iter_mut().flat_map(|o| o.drain()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// Everything the crossbar's future depends on, as text (`f64`'s
    /// `Debug` form round-trips). The active set is derived and left out.
    fn state(x: &Crossbar<u32>) -> String {
        format!(
            "{:?}",
            (&x.outputs, &x.bisection, x.injected_bytes, x.rejected)
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `next_event` is never late: after random bursts of traffic,
        /// ticking and popping every port on every cycle before the
        /// reported event pops nothing and leaves the crossbar's state
        /// unchanged.
        #[test]
        fn next_event_is_never_late(
            ports in 1usize..6,
            port_gbs in 4.0f64..128.0,
            bisection_gbs in 8.0f64..256.0,
            latency in 0u64..30,
            depth in 1usize..6,
            seed in any::<u64>(),
        ) {
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let mut x: Crossbar<u32> = Crossbar::new(ports, port_gbs, bisection_gbs, latency, depth);
            let mut now = 0u64;
            let mut next_item = 0u32;
            for _ in 0..30 {
                for _ in 0..rng.gen_range(1..25u32) {
                    now += 1;
                    for _ in 0..rng.gen_range(0..4u32) {
                        let port = rng.gen_range(0..ports);
                        let _ = x.try_push(port, next_item, [16u64, 48, 144][rng.gen_range(0..3usize)]);
                        next_item += 1;
                    }
                    x.tick(now);
                    for port in 0..ports {
                        while rng.gen_bool(0.6) && x.pop_ready(port, now).is_some() {}
                    }
                }
                let event = x.next_event(now);
                prop_assert!(event > now);
                let before = state(&x);
                let horizon = event.min(now + 2_000);
                for t in now + 1..horizon {
                    x.tick(t);
                    for port in 0..ports {
                        prop_assert_eq!(x.pop_ready(port, t), None, "popped before event {}", event);
                    }
                    prop_assert_eq!(&state(&x), &before, "state moved before event {}", event);
                }
                now = horizon - 1;
            }
        }
    }

    #[test]
    fn delivers_after_latency_to_right_port() {
        let mut x: Crossbar<u32> = Crossbar::new(3, 64.0, 1024.0, 7, 8);
        x.try_push(2, 99, 16).unwrap();
        x.tick(0);
        for now in 0..7 {
            assert!(x.pop_ready(2, now).is_none());
        }
        assert!(x.pop_ready(0, 7).is_none());
        assert!(x.pop_ready(1, 7).is_none());
        assert_eq!(x.pop_ready(2, 7), Some(99));
    }

    #[test]
    fn bisection_caps_total_injection() {
        // 4 ports x 1000 B/cy each but only 100 B/cy bisection.
        let mut x: Crossbar<u32> = Crossbar::new(4, 1000.0, 100.0, 0, 64);
        let mut accepted = 0;
        for now in 0..10 {
            x.tick(now);
            for i in 0..40 {
                if x.try_push((i % 4) as usize, i, 100).is_ok() {
                    accepted += 1;
                }
            }
        }
        // 10 cycles x 100 B/cy = ~1000 B => ~10 packets of 100 B.
        assert!((8..=14).contains(&accepted), "accepted {accepted}");
        assert!(x.rejected() > 0);
    }

    #[test]
    fn port_queue_backpressure() {
        let mut x: Crossbar<u32> = Crossbar::new(1, 0.0, 1e9, 0, 2);
        // Port bandwidth is zero: nothing ever drains, queue fills at 2.
        x.tick(0);
        assert!(x.try_push(0, 1, 8).is_ok());
        assert!(x.try_push(0, 2, 8).is_ok());
        assert_eq!(x.try_push(0, 3, 8), Err(3));
        assert!(!x.can_push(0));
        assert_eq!(x.len(), 2);
    }

    #[test]
    fn drain_empties() {
        let mut x: Crossbar<u32> = Crossbar::new(2, 64.0, 1024.0, 10, 8);
        x.try_push(0, 1, 16).unwrap();
        x.try_push(1, 2, 16).unwrap();
        x.tick(0);
        let drained = x.drain();
        assert_eq!(drained.len(), 2);
        assert!(x.is_empty());
    }
}
