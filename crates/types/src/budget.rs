//! Per-cycle bandwidth accounting.
//!
//! Every bandwidth-limited resource in the simulator (NoC port, LLC slice,
//! DRAM channel, inter-chip link) is modelled with a [`BandwidthBudget`]: a
//! credit counter that is replenished by `rate` bytes every cycle (fractional
//! rates are supported) and consumed when a packet is transferred. Credit is
//! capped at a small multiple of the rate so that an idle resource cannot
//! bank unbounded bandwidth and later burst.

/// A replenishing byte-credit counter modelling a fixed-bandwidth resource.
///
/// # Example
/// ```
/// use mcgpu_types::BandwidthBudget;
///
/// // A 64 B/cycle link (one cycle of credit is available immediately).
/// let mut link = BandwidthBudget::new(64.0);
/// assert!(link.try_consume(64));
/// assert!(!link.try_consume(1)); // exhausted this cycle
/// link.refill();
/// assert!(link.try_consume(32));
/// ```
#[derive(Debug, Clone)]
pub struct BandwidthBudget {
    rate: f64,
    credit: f64,
    cap: f64,
}

/// How many cycles' worth of credit a budget may bank while idle.
///
/// A cap of a few cycles lets a large packet (several flits) that straddles a
/// cycle boundary go through without modelling sub-packet flits, while still
/// preventing unbounded bursts.
const CAP_CYCLES: f64 = 4.0;

impl BandwidthBudget {
    /// Create a budget replenished by `rate` bytes per cycle.
    ///
    /// # Panics
    /// Panics if `rate` is not finite or is negative.
    pub fn new(rate: f64) -> Self {
        assert!(rate.is_finite() && rate >= 0.0, "invalid bandwidth rate");
        // Start with one cycle of credit so a resource can accept traffic in
        // the cycle it is created (before its first refill).
        BandwidthBudget {
            rate,
            credit: rate,
            cap: rate * CAP_CYCLES,
        }
    }

    /// An unlimited budget (used for point-to-point connections the paper
    /// assumes are never the bottleneck, e.g. LLC slice to its own memory
    /// controller).
    pub fn unlimited() -> Self {
        BandwidthBudget {
            rate: f64::INFINITY,
            credit: f64::INFINITY,
            cap: f64::INFINITY,
        }
    }

    /// The configured rate in bytes per cycle.
    #[inline]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Change the replenish rate at runtime (fault injection: link lane
    /// drops, DRAM thermal throttle). Banked credit is clamped to the new
    /// cap so a downgraded resource cannot burst at its old speed; a
    /// negative credit (packet tail in transit) is preserved.
    ///
    /// # Panics
    /// Panics if `rate` is not finite or is negative.
    pub fn set_rate(&mut self, rate: f64) {
        assert!(rate.is_finite() && rate >= 0.0, "invalid bandwidth rate");
        self.rate = rate;
        self.cap = rate * CAP_CYCLES;
        self.credit = self.credit.min(self.cap);
    }

    /// Replenish one cycle's worth of credit. Call exactly once per cycle.
    #[inline]
    pub fn refill(&mut self) {
        self.credit = (self.credit + self.rate).min(self.cap);
    }

    /// Try to consume `bytes` of credit; returns `true` on success.
    ///
    /// A transfer is allowed when *any* positive credit is available and then
    /// drives the credit negative, which models a packet whose tail occupies
    /// the next cycle(s) — standard token-bucket link modelling. This keeps
    /// large packets (128 B lines on a 54 B/cycle DRAM channel) flowing at
    /// exactly the configured average rate.
    #[inline]
    pub fn try_consume(&mut self, bytes: u64) -> bool {
        if self.credit > 0.0 {
            self.credit -= bytes as f64;
            true
        } else {
            false
        }
    }

    /// Current credit (may be negative while a packet tail drains).
    #[inline]
    pub fn credit(&self) -> f64 {
        self.credit
    }

    /// Whether a transfer could start this cycle.
    #[inline]
    pub fn available(&self) -> bool {
        self.credit > 0.0
    }

    /// Whether a [`refill`](Self::refill) would leave the credit bit-for-bit
    /// unchanged. This is the saturation test of next-event skipping: once
    /// a budget's credit has climbed to its cap (a handful of cycles after
    /// its last transfer), further refills are no-ops and the cycles
    /// between can be skipped without perturbing checkpointed state.
    /// Compared on exact bit patterns because budget credits serialize
    /// bit-exactly into `mcgpu-ckpt-v1` snapshots.
    #[inline]
    pub fn refill_is_noop(&self) -> bool {
        ((self.credit + self.rate).min(self.cap)).to_bits() == self.credit.to_bits()
    }

    /// Serialize into a checkpoint payload (exact bit patterns — a
    /// negative or infinite credit round-trips unchanged).
    pub fn save(&self, e: &mut crate::ckpt::Enc) {
        e.put_f64(self.rate);
        e.put_f64(self.credit);
        e.put_f64(self.cap);
    }

    /// Deserialize from a checkpoint payload.
    ///
    /// # Errors
    /// Returns a decode error on truncated input.
    pub fn load(d: &mut crate::ckpt::Dec<'_>) -> crate::ckpt::CkptResult<Self> {
        Ok(BandwidthBudget {
            rate: d.get_f64()?,
            credit: d.get_f64()?,
            cap: d.get_f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sustained_rate_is_respected() {
        // 10 B/cycle budget moving 128 B packets: over 1280 cycles exactly
        // ~100 packets should fit.
        let mut b = BandwidthBudget::new(10.0);
        let mut sent = 0u32;
        for _ in 0..1280 {
            b.refill();
            if b.try_consume(128) {
                sent += 1;
            }
        }
        assert!((99..=101).contains(&sent), "sent {sent}");
    }

    #[test]
    fn credit_is_capped() {
        let mut b = BandwidthBudget::new(8.0);
        for _ in 0..1000 {
            b.refill();
        }
        assert!(b.credit() <= 8.0 * CAP_CYCLES + 1e-9);
    }

    #[test]
    fn zero_rate_never_allows() {
        let mut b = BandwidthBudget::new(0.0);
        for _ in 0..10 {
            b.refill();
            assert!(!b.try_consume(1));
        }
    }

    #[test]
    fn unlimited_always_allows() {
        let mut b = BandwidthBudget::unlimited();
        for _ in 0..10 {
            assert!(b.try_consume(1 << 30));
        }
        b.refill();
        assert!(b.available());
    }

    #[test]
    fn fractional_rate_accumulates() {
        // 0.5 B/cycle: a 1 B packet every 2 cycles.
        let mut b = BandwidthBudget::new(0.5);
        let mut sent = 0;
        for _ in 0..100 {
            b.refill();
            if b.try_consume(1) {
                sent += 1;
            }
        }
        assert!((49..=51).contains(&sent), "sent {sent}");
    }
}
