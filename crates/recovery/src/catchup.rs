//! The decided-instance suffix retained for catch-up.
//!
//! A recovery-enabled process keeps every decided batch at or above its
//! own checkpoint watermark in a [`DecidedCache`] (a dense
//! `paxos::window::Window`, trimmed by the same watermark that trims
//! the vote log). A restarted peer asks for the suffix starting at its
//! recovered watermark; the cache serves it in bounded chunks. A peer
//! that has fallen below the cache's base cannot be served
//! incrementally — it first receives the owner's checkpoint (a state
//! transfer of `state_bytes` on the wire) and resumes from that
//! watermark instead.

use paxos::msg::InstanceId;
use paxos::window::Window;
use simnet::time::Dur;

/// Decided instances served per catch-up reply.
pub const CATCHUP_CHUNK: usize = 64;
/// Period of a learner's catch-up tick: the retry of an unanswered
/// request, and how long a delivery gap must last before catch-up
/// re-enters.
pub const CATCHUP_RETRY: Dur = Dur::millis(100);

/// Decided batches retained above the checkpoint watermark.
#[derive(Default)]
pub struct DecidedCache<V> {
    win: Window<V>,
    /// One past the highest decided instance recorded.
    horizon: InstanceId,
}

impl<V: Clone> DecidedCache<V> {
    /// Creates an empty cache.
    pub fn new() -> DecidedCache<V> {
        DecidedCache { win: Window::new(), horizon: InstanceId(0) }
    }

    /// Records a decided instance.
    pub fn record(&mut self, instance: InstanceId, value: V) {
        if instance >= self.win.base() {
            self.win.insert(instance, value);
        }
        if instance.next() > self.horizon {
            self.horizon = instance.next();
        }
    }

    /// Lowest instance still retained (the trim watermark).
    pub fn base(&self) -> InstanceId {
        self.win.base()
    }

    /// One past the highest decided instance recorded.
    pub fn horizon(&self) -> InstanceId {
        self.horizon
    }

    /// Retained entries (memory accounting).
    pub fn len(&self) -> usize {
        self.win.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.win.is_empty()
    }

    /// Drops entries strictly below `watermark` (rides the checkpoint).
    pub fn trim_below(&mut self, watermark: InstanceId) {
        self.win.advance_base(watermark);
    }

    /// Serves a catch-up request: up to `max` contiguous decided
    /// instances starting at `next` (which callers must first clamp to
    /// [`DecidedCache::base`] after any snapshot transfer). Stops at the
    /// first gap — instances decide in order here, so a gap means the
    /// requester has reached the live frontier.
    pub fn serve(&self, next: InstanceId, max: usize) -> Vec<(InstanceId, V)> {
        let mut out = Vec::new();
        let mut i = next.max(self.win.base());
        while out.len() < max && i < self.horizon {
            match self.win.get(i) {
                Some(v) => out.push((i, v.clone())),
                None => break,
            }
            i = i.next();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serves_contiguous_suffix_in_chunks() {
        let mut c: DecidedCache<u64> = DecidedCache::new();
        for i in 0..10 {
            c.record(InstanceId(i), i * 10);
        }
        assert_eq!(c.horizon(), InstanceId(10));
        let chunk = c.serve(InstanceId(4), 3);
        assert_eq!(chunk, vec![(InstanceId(4), 40), (InstanceId(5), 50), (InstanceId(6), 60)]);
        let rest = c.serve(InstanceId(7), 100);
        assert_eq!(rest.len(), 3);
    }

    #[test]
    fn trim_rides_the_checkpoint_watermark() {
        let mut c: DecidedCache<u64> = DecidedCache::new();
        for i in 0..10 {
            c.record(InstanceId(i), i);
        }
        c.trim_below(InstanceId(6));
        assert_eq!(c.base(), InstanceId(6));
        assert_eq!(c.len(), 4);
        // A request below the base is clamped: the caller pairs it with
        // a checkpoint transfer covering the trimmed prefix.
        let served = c.serve(InstanceId(2), 100);
        assert_eq!(served.first().map(|&(i, _)| i), Some(InstanceId(6)));
    }

    #[test]
    fn stops_at_gaps() {
        let mut c: DecidedCache<u64> = DecidedCache::new();
        c.record(InstanceId(0), 0);
        c.record(InstanceId(2), 2);
        assert_eq!(c.serve(InstanceId(0), 10), vec![(InstanceId(0), 0)]);
    }
}
