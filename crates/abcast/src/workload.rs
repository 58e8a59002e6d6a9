//! Workload generation helpers shared by all protocol experiments.
//!
//! The paper drives protocols two ways: *open loop* (proposers submit at a
//! configured aggregate rate — the throughput experiments of ch. 3/5) and
//! *closed loop* (a fixed number of clients each with one outstanding
//! command — the latency/throughput curves of ch. 4). [`Pacer`] implements
//! the paced open-loop side and lives here because the ordering
//! protocols' own drivers use it; everything else client-side (keyed
//! generators, Poisson arrivals, sessions) lives in the `workload`
//! crate, which re-exports `Pacer` as part of the unified client tier.

use simnet::time::{Dur, Time};

/// Open-loop pacing: converts a target rate (bytes per second) and message
/// size into a stream of send deadlines. Sends are batched into bursts of
/// `burst` messages to model application-level batching (timer-driven
/// senders emit several packets back to back, which is what makes
/// multi-sender ip-multicast lossy — Fig. 3.3).
#[derive(Clone, Debug)]
pub struct Pacer {
    msg_bytes: u32,
    burst: u32,
    interval: Dur,
    next_due: Time,
    stop_at: Time,
}

impl Pacer {
    /// Creates a pacer emitting `rate_bps` bits per second of `msg_bytes`
    /// messages, `burst` messages per wakeup.
    ///
    /// # Panics
    /// Panics if `rate_bps`, `msg_bytes`, or `burst` is zero.
    pub fn new(rate_bps: u64, msg_bytes: u32, burst: u32) -> Pacer {
        assert!(rate_bps > 0 && msg_bytes > 0 && burst > 0, "pacer parameters must be positive");
        let bits_per_burst = msg_bytes as u64 * 8 * burst as u64;
        let interval = Dur::nanos(bits_per_burst.saturating_mul(1_000_000_000) / rate_bps);
        Pacer { msg_bytes, burst, interval, next_due: Time::ZERO, stop_at: Time::MAX }
    }

    /// Stops emitting messages at `at` (workloads with a bounded duration).
    pub fn stop_at(&mut self, at: Time) {
        self.stop_at = at;
    }

    /// Message size in bytes.
    pub fn msg_bytes(&self) -> u32 {
        self.msg_bytes
    }

    /// Messages per burst.
    pub fn burst(&self) -> u32 {
        self.burst
    }

    /// Interval between bursts.
    pub fn interval(&self) -> Dur {
        self.interval
    }

    /// Changes the target rate, keeping message size and burst.
    pub fn set_rate(&mut self, rate_bps: u64) {
        assert!(rate_bps > 0, "rate must be positive");
        let bits_per_burst = self.msg_bytes as u64 * 8 * self.burst as u64;
        self.interval = Dur::nanos(bits_per_burst.saturating_mul(1_000_000_000) / rate_bps);
    }

    /// Number of messages due at `now`, advancing the internal deadline.
    /// Call on every timer tick; send the returned count of messages and
    /// re-arm the timer for [`Pacer::interval`].
    pub fn due(&mut self, now: Time) -> u32 {
        if now >= self.stop_at {
            return 0;
        }
        let mut due = 0;
        while self.next_due <= now {
            due += self.burst;
            self.next_due += self.interval;
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pacer_hits_target_rate() {
        // 80 Mbps of 1 KB messages = 10_000 msgs/s.
        let mut p = Pacer::new(80_000_000, 1000, 1);
        let mut sent = 0u64;
        let mut t = Time::ZERO;
        while t < Time::from_secs(1) {
            sent += p.due(t) as u64;
            t += p.interval();
        }
        assert!((9_900..=10_100).contains(&sent), "sent {sent}");
    }

    #[test]
    fn bursts_are_grouped() {
        let mut p = Pacer::new(8_000_000, 1000, 8);
        // First wakeup at time zero yields one full burst.
        assert_eq!(p.due(Time::ZERO), 8);
        // Nothing more due until the next interval.
        assert_eq!(p.due(Time::ZERO + Dur::nanos(p.interval().as_nanos() - 1)), 0);
        assert_eq!(p.due(Time::ZERO + p.interval()), 8);
    }

    #[test]
    fn due_catches_up_after_stall() {
        let mut p = Pacer::new(8_000_000, 1000, 1);
        let five = Time::ZERO + p.interval() * 5;
        // Waking late yields all missed messages.
        assert_eq!(p.due(five), 6); // t=0..5 inclusive
    }

    #[test]
    fn set_rate_changes_interval() {
        let mut p = Pacer::new(8_000_000, 1000, 1);
        let i1 = p.interval();
        p.set_rate(16_000_000);
        assert_eq!(p.interval() * 2, i1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = Pacer::new(0, 1000, 1);
    }
}
