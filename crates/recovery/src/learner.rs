//! A recovery-enabled learner's checkpoint and catch-up state machine,
//! shared by U-Ring and M-Ring.
//!
//! [`LearnerRecovery`] owns what both rings keep per learner — the
//! stable store, the checkpointer, the service hook, the delivered-value
//! count, and where catch-up stands — and decides; the ring owns its
//! delivery window, its dedup filter, whom it asks and over which
//! message, and does what the returned step says.

use paxos::msg::InstanceId;
use simnet::prelude::*;

use crate::app::RecoveredApp;
use crate::checkpoint::Checkpointer;
use crate::stable::{Checkpoint, StableHandle};

/// Decided instances served per catch-up reply.
pub const CATCHUP_CHUNK: usize = 64;
/// Period of the catch-up tick: the retry of an unanswered request, and
/// how long a delivery gap must last before catch-up re-enters.
pub const CATCHUP_RETRY: Dur = Dur::millis(100);
/// Checkpoint metadata bytes when no service snapshot is attached.
const CKPT_META_BYTES: u64 = 4096;

/// What a catch-up reply leaves to do ([`LearnerRecovery::chunk_applied`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CatchupStep {
    /// Reached the responder's horizon, this long after catch-up began
    /// (the `rec.ttr` sample); the live flow takes over.
    Done(Dur),
    /// The chunk helped and more is there: ask for the next one.
    AskMore,
    /// Nothing to do: not catching up (a retry's duplicate reply), or
    /// the responder could not serve — the tick re-asks.
    Wait,
}

/// What the periodic catch-up tick asks for ([`LearnerRecovery::tick`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CatchupTick {
    /// Delivering, or a gap seen for the first time.
    Idle,
    /// Still catching up: re-send the request.
    Retry,
    /// A gap outlived a full tick: catch-up re-entered, send a request
    /// (and count `rec.gap_catchups`).
    Reenter,
}

/// Checkpoint and catch-up state of one learner (module docs).
pub struct LearnerRecovery<V> {
    store: StableHandle<V>,
    ckpt: Option<Checkpointer<V>>,
    app: Option<Box<dyn RecoveredApp>>,
    /// Values delivered across all incarnations (a checkpoint's
    /// `log_pos`).
    delivered_count: u64,
    catching_up: bool,
    catchup_started: Time,
    /// Delivery position at the previous tick if it was stuck behind a
    /// gap then. A gap the ring's own repair has not closed a tick later
    /// (the peer was itself recovering, the acceptors collected the
    /// instance) goes back to catch-up.
    last_gap: Option<InstanceId>,
}

impl<V> LearnerRecovery<V> {
    /// Recovery over `store`, checkpointing every `checkpoint_interval`
    /// delivered instances (0 = never) under the host actor's
    /// `ckpt_token` timer kind, snapshotting `app`.
    pub fn new(
        store: StableHandle<V>,
        checkpoint_interval: u64,
        ckpt_token: u64,
        app: Option<Box<dyn RecoveredApp>>,
    ) -> LearnerRecovery<V> {
        LearnerRecovery {
            ckpt: (checkpoint_interval > 0)
                .then(|| Checkpointer::new(store.clone(), checkpoint_interval, ckpt_token)),
            store,
            app,
            delivered_count: 0,
            catching_up: false,
            catchup_started: Time::ZERO,
            last_gap: None,
        }
    }

    /// The node's stable store.
    pub fn store(&self) -> &StableHandle<V> {
        &self.store
    }

    /// Whether bulk catch-up is fetching the backlog.
    pub fn catching_up(&self) -> bool {
        self.catching_up
    }

    /// A respawned learner resumes from its durable checkpoint (the
    /// empty one if none was taken) and has catching up to do. The ring
    /// installs the returned watermark and dedup marks.
    pub fn resume(&mut self) -> Checkpoint {
        let cp = Checkpointer::recover(&self.store).unwrap_or_default();
        self.install(&cp);
        self.catching_up = true;
        cp
    }

    fn install(&mut self, cp: &Checkpoint) {
        self.delivered_count = cp.log_pos;
        if let Some(app) = self.app.as_mut() {
            app.restore(cp.state.as_ref());
        }
    }

    /// The start-up kick: true when the ring must send the first
    /// catch-up request (and count `rec.restarts`).
    pub fn start(&mut self, now: Time) -> bool {
        if self.catching_up {
            self.catchup_started = now;
        }
        self.catching_up
    }

    /// One fresh value was delivered to the application.
    pub fn delivered(&mut self, proposer: u64, seq: u64, bytes: u32) {
        self.delivered_count += 1;
        if let Some(app) = self.app.as_mut() {
            app.apply(proposer, seq, bytes);
        }
    }

    /// Starts a checkpoint at delivery position `next_deliver` when one
    /// is due; `dedup` exports the exactly-once marks only then.
    pub fn maybe_checkpoint(
        &mut self,
        next_deliver: InstanceId,
        dedup: impl FnOnce() -> (Vec<u64>, Vec<(u64, u64)>),
        ctx: &mut Ctx,
    ) {
        let Some(ckpt) = self.ckpt.as_mut() else { return };
        if !ckpt.due(next_deliver) {
            return;
        }
        let (marks, parked) = dedup();
        let app = &mut self.app;
        let snap = || app.as_mut().map_or((CKPT_META_BYTES, None), |a| a.snapshot());
        ckpt.maybe_checkpoint(next_deliver, self.delivered_count, marks, parked, snap, ctx);
    }

    /// A checkpoint write completed: commits it and returns its
    /// watermark, below which the ring may trim (count
    /// `rec.checkpoints`).
    pub fn on_ckpt_token(&mut self, payload: u64) -> Option<InstanceId> {
        self.ckpt.as_mut()?.on_token(payload)
    }

    /// State transfer: adopts a peer's checkpoint if this learner is
    /// catching up and `cp` is ahead of its delivery point. On true the
    /// ring jumps its window and dedup marks to `cp` (and counts
    /// `rec.state_transfers` / `rec.transfer_bytes`).
    pub fn adopt(&mut self, cp: &Checkpoint, next_deliver: InstanceId) -> bool {
        let ahead = self.catching_up && cp.watermark > next_deliver;
        if ahead {
            self.install(cp);
        }
        ahead
    }

    /// A catch-up reply with `got` instances was applied, delivery now
    /// stands at `next` and the responder knew decisions up to `upto`.
    pub fn chunk_applied(
        &mut self,
        got: u64,
        next: InstanceId,
        upto: InstanceId,
        now: Time,
    ) -> CatchupStep {
        if !self.catching_up {
            CatchupStep::Wait
        } else if next >= upto {
            self.catching_up = false;
            CatchupStep::Done(now.since(self.catchup_started))
        } else if got > 0 {
            CatchupStep::AskMore
        } else {
            CatchupStep::Wait
        }
    }

    /// The periodic tick, with delivery at `next` and `stuck` when
    /// decisions are buffered above an undelivered gap.
    pub fn tick(&mut self, next: InstanceId, stuck: bool, now: Time) -> CatchupTick {
        if self.catching_up {
            return CatchupTick::Retry;
        }
        let seen_before = self.last_gap.take() == Some(next);
        if stuck && seen_before {
            self.catching_up = true;
            self.catchup_started = now;
            return CatchupTick::Reenter;
        }
        if stuck {
            self.last_gap = Some(next);
        }
        CatchupTick::Idle
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

    fn at(watermark: u64) -> Checkpoint {
        Checkpoint {
            watermark: InstanceId(watermark),
            log_pos: 10 * watermark,
            ..Checkpoint::default()
        }
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
        assert_eq!(lr.tick(i(5), true, now), CatchupTick::Idle, "first sighting");
        assert_eq!(lr.tick(i(6), true, now), CatchupTick::Idle, "delivery moved: another gap");
        assert_eq!(lr.tick(i(6), false, now), CatchupTick::Idle);
        assert_eq!(lr.tick(i(6), true, now), CatchupTick::Idle, "the closed gap was forgotten");
        assert_eq!(lr.tick(i(6), true, now), CatchupTick::Reenter);
        assert!(lr.catching_up());
        assert_eq!(lr.tick(i(6), true, now), CatchupTick::Retry);
        let done = lr.chunk_applied(1, i(7), i(7), now + Dur::millis(3));
        assert_eq!(done, CatchupStep::Done(Dur::millis(3)), "timed from the re-entry");
    }

    #[test]
    fn ttr_is_recorded_once_and_a_duplicate_reply_is_ignored() {
        let (mut lr, _) = resumed();
        let (t, i) = (Time::from_millis, InstanceId);
        assert_eq!(lr.chunk_applied(64, i(68), i(100), t(20)), CatchupStep::AskMore);
        assert_eq!(lr.chunk_applied(0, i(68), i(100), t(30)), CatchupStep::Wait, "not served");
        assert_eq!(lr.chunk_applied(32, i(100), i(100), t(50)), CatchupStep::Done(Dur::millis(40)));
        assert_eq!(lr.chunk_applied(32, i(100), i(100), t(60)), CatchupStep::Wait, "duplicate");
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
