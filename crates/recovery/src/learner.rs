//! One learner's checkpoint and catch-up state machine, shared by
//! U-Ring and M-Ring: [`LearnerRecovery`] decides, and the ring — owner
//! of the delivery window, the dedup filter and the messages — acts.

use paxos::msg::InstanceId;
use simnet::prelude::*;

use crate::app::RecoveredApp;
use crate::checkpoint::Checkpointer;
use crate::stable::{Checkpoint, StableHandle};

/// Checkpoint metadata bytes when no service snapshot is attached.
const CKPT_META_BYTES: u64 = 4096;

/// What the ring does after a catch-up reply or tick.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CatchupStep {
    /// Nothing (a duplicate reply; if still behind, the tick asks again).
    Wait,
    /// Send a catch-up request from the delivery point.
    Ask,
    /// A gap outlived a tick: count `rec.gap_catchups`, then as `Ask`.
    Reenter,
    /// Caught up: `rec.ttr` is the time since catch-up began, then.
    Done(Time),
}

/// Checkpoint and catch-up state of one learner (module docs).
pub struct LearnerRecovery<V> {
    /// The node's stable store.
    pub store: StableHandle<V>,
    ckpt: Option<Checkpointer<V>>,
    app: Option<Box<dyn RecoveredApp>>,
    /// Values delivered over all incarnations (a checkpoint's `log_pos`).
    delivered_count: u64,
    /// Since when bulk catch-up has been fetching the backlog, if it is.
    catching_up: Option<Time>,
    /// Where delivery stood at the previous tick, if behind a gap then
    /// (one the ring's own repair may still close before the next).
    last_gap: Option<InstanceId>,
}

impl<V> LearnerRecovery<V> {
    /// Recovery over `store`, checkpointing `app` every `interval`
    /// instances (0 = never) under the host's `ckpt_token` timer kind.
    pub fn new(
        store: StableHandle<V>,
        interval: u64,
        ckpt_token: u64,
        app: Option<Box<dyn RecoveredApp>>,
    ) -> LearnerRecovery<V> {
        let ckpt = (interval > 0).then(|| Checkpointer::new(store.clone(), interval, ckpt_token));
        LearnerRecovery { store, ckpt, app, delivered_count: 0, catching_up: None, last_gap: None }
    }

    /// Whether bulk catch-up is fetching the backlog.
    pub fn catching_up(&self) -> bool {
        self.catching_up.is_some()
    }

    /// A respawned learner resumes, with catching up to do, from its
    /// durable checkpoint: the ring installs its watermark and marks.
    pub fn resume(&mut self) -> Checkpoint {
        let cp = Checkpointer::recover(&self.store).unwrap_or_default();
        self.install(&cp);
        self.catching_up = Some(Time::ZERO); // `start` stamps it
        cp
    }

    fn install(&mut self, cp: &Checkpoint) {
        self.delivered_count = cp.log_pos;
        if let Some(app) = self.app.as_mut() {
            app.restore(cp.state.as_ref());
        }
    }

    /// Start-up: true if the ring must ask now (and count `rec.restarts`).
    pub fn start(&mut self, now: Time) -> bool {
        self.catching_up = self.catching_up.map(|_| now);
        self.catching_up()
    }

    /// One fresh value reached the application.
    pub fn delivered(&mut self, proposer: u64, seq: u64, bytes: u32) {
        self.delivered_count += 1;
        if let Some(app) = self.app.as_mut() {
            app.apply(proposer, seq, bytes);
        }
    }

    /// Starts a checkpoint at delivery position `next` when one is due;
    /// only then does `dedup` export the exactly-once marks.
    pub fn maybe_checkpoint(
        &mut self,
        next: InstanceId,
        dedup: impl FnOnce() -> (Vec<u64>, Vec<(u64, u64)>),
        ctx: &mut Ctx,
    ) {
        let Some(ckpt) = self.ckpt.as_mut().filter(|c| c.due(next)) else { return };
        let (marks, parked) = dedup();
        let app = &mut self.app;
        let snap = || app.as_mut().map_or((CKPT_META_BYTES, None), |a| a.snapshot());
        ckpt.maybe_checkpoint(next, self.delivered_count, marks, parked, snap, ctx);
    }

    /// Commits a completed checkpoint write: the watermark to trim below.
    pub fn on_ckpt_token(&mut self, payload: u64) -> Option<InstanceId> {
        self.ckpt.as_mut()?.on_token(payload)
    }

    /// State transfer: adopts `cp` if catching up and it is ahead of the
    /// delivery point `next`; on true the ring jumps there (and counts).
    pub fn adopt(&mut self, cp: &Checkpoint, next: InstanceId) -> bool {
        let ahead = self.catching_up() && cp.watermark > next;
        if ahead {
            self.install(cp);
        }
        ahead
    }

    /// A reply of `got` instances was applied: delivery stands at `next`
    /// and the responder knew decisions up to `upto`.
    pub fn chunk_applied(&mut self, got: u64, next: InstanceId, upto: InstanceId) -> CatchupStep {
        match self.catching_up {
            Some(since) if next >= upto => {
                self.catching_up = None;
                CatchupStep::Done(since)
            }
            Some(_) if got > 0 => CatchupStep::Ask,
            _ => CatchupStep::Wait,
        }
    }

    /// The periodic tick: delivery stands at `next`, `stuck` when
    /// decisions are buffered above an undelivered gap.
    pub fn tick(&mut self, next: InstanceId, stuck: bool, now: Time) -> CatchupStep {
        if self.catching_up() {
            return CatchupStep::Ask;
        }
        let seen_before = self.last_gap.take() == Some(next);
        if stuck && seen_before {
            self.catching_up = Some(now);
            return CatchupStep::Reenter;
        }
        self.last_gap = stuck.then_some(next);
        CatchupStep::Wait
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stable::stable;
    use std::any::Any;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    /// Counts `restore` calls.
    struct Restores(Arc<AtomicU32>);
    impl RecoveredApp for Restores {
        fn apply(&mut self, _proposer: u64, _seq: u64, _bytes: u32) {}
        fn snapshot(&mut self) -> (u64, Option<Arc<dyn Any + Send + Sync>>) {
            (1, None)
        }
        fn restore(&mut self, _state: Option<&Arc<dyn Any + Send + Sync>>) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn at(w: u64) -> Checkpoint {
        Checkpoint { watermark: InstanceId(w), log_pos: 10 * w, ..Checkpoint::default() }
    }

    /// A learner resumed from a durable checkpoint at instance 4, and
    /// how often its service state was restored.
    fn resumed() -> (LearnerRecovery<u32>, Arc<AtomicU32>) {
        let (store, restores) = (stable(), Arc::new(AtomicU32::new(0)));
        store.lock().unwrap().checkpoint = Some(at(4));
        let mut lr = LearnerRecovery::new(store, 0, 0, Some(Box::new(Restores(restores.clone()))));
        assert_eq!(lr.resume().log_pos, 40);
        assert!(lr.start(Time::from_millis(10)), "a resumed learner asks at start-up");
        (lr, restores)
    }

    #[test]
    fn a_gap_must_outlive_a_tick_before_catch_up_re_enters() {
        let mut lr: LearnerRecovery<u32> = LearnerRecovery::new(stable(), 0, 0, None);
        assert!(!lr.start(Time::ZERO), "a fresh learner has nothing to fetch");
        let (now, i) = (Time::from_millis(100), InstanceId);
        assert_eq!(lr.tick(i(5), true, now), CatchupStep::Wait, "first sighting");
        assert_eq!(lr.tick(i(6), true, now), CatchupStep::Wait, "delivery moved: another gap");
        assert_eq!(lr.tick(i(6), false, now), CatchupStep::Wait);
        assert_eq!(lr.tick(i(6), true, now), CatchupStep::Wait, "the closed gap was forgotten");
        assert_eq!(lr.tick(i(6), true, now), CatchupStep::Reenter);
        assert!(lr.catching_up());
        assert_eq!(lr.tick(i(6), true, now), CatchupStep::Ask);
        assert_eq!(lr.chunk_applied(1, i(7), i(7)), CatchupStep::Done(now), "since the re-entry");
    }

    #[test]
    fn ttr_is_recorded_once_and_a_duplicate_reply_is_ignored() {
        let (mut lr, _) = resumed();
        let (started, i) = (Time::from_millis(10), InstanceId);
        assert_eq!(lr.chunk_applied(64, i(68), i(100)), CatchupStep::Ask);
        assert_eq!(lr.chunk_applied(0, i(68), i(100)), CatchupStep::Wait, "not served");
        assert_eq!(lr.chunk_applied(32, i(100), i(100)), CatchupStep::Done(started));
        assert_eq!(lr.chunk_applied(32, i(100), i(100)), CatchupStep::Wait, "duplicate");
        assert!(!lr.catching_up() && !lr.adopt(&at(200), i(100)));
    }

    #[test]
    fn a_checkpoint_is_adopted_only_if_ahead_of_delivery() {
        let (mut lr, restores) = resumed();
        assert_eq!(restores.load(Ordering::Relaxed), 1, "resume restored the durable one");
        assert!(!lr.adopt(&at(4), InstanceId(4)), "the peer is not ahead");
        assert!(!lr.adopt(&at(3), InstanceId(4)));
        assert_eq!(restores.load(Ordering::Relaxed), 1);
        assert!(lr.adopt(&at(5), InstanceId(4)));
        assert_eq!(restores.load(Ordering::Relaxed), 2);
    }
}
