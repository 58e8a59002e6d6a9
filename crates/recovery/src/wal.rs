//! The acceptor vote log: the one place a vote becomes a disk write, for
//! both rings.
//!
//! Write-ahead discipline: an acceptor may only vote (send its Phase 2B
//! / forward the combined 2A-2B) once the vote is durable, so that a
//! restarted acceptor can never contradict a vote a quorum may have
//! counted. [`VoteLog`] pays for appended votes through the simulated
//! disk and hands each back — via [`VoteLog::on_token`], with the round
//! its write carried — when its `DiskDone` fires; only then does it
//! enter the [`StableHandle`], and only then should the caller vote.
//! [`StorageMode`] has four modes (§3.3.5, §3.5.5, ch. 5). Write-behind
//! (`AsyncDisk`) throttles a ring to its disks but is *not*
//! write-ahead: a vote can be counted before it is durable, so a
//! respawned acceptor may forget it, and recovery refuses the mode
//! ([`StorageMode::writes_ahead`]).

use std::collections::VecDeque;

use simnet::prelude::*;
use simnet::time::Dur;

use paxos::msg::{InstanceId, Round};

use crate::stable::StableHandle;

/// Device write unit the vote writer coalesces appends into (§3.5.5).
const DISK_UNIT: u32 = 32 * 1024;

/// How far behind the device may fall before a write-behind vote waits.
const WRITE_BEHIND_LAG: Dur = Dur::millis(20);

/// Token payloads (56-bit space) of the group-commit flush timer and the
/// write-behind release timer; flush completions count up from 0.
const FLUSH_TIMER: u64 = (1u64 << 56) - 1;
const RELEASE_TIMER: u64 = FLUSH_TIMER - 1;

/// How acceptors persist their votes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum StorageMode {
    /// No write; the vote leaves at once. Assumes a majority of
    /// acceptors never fails simultaneously. Network/CPU bound.
    #[default]
    InMemory,
    /// One coalesced device write per vote (32 KB device operations,
    /// like the paper's writer thread); the vote leaves once it is
    /// written. Disk bound, ~270 Mbps on the modelled SSD.
    SyncDisk,
    /// Group commit: appends accumulate, and one device write commits
    /// them every `interval`, or as soon as `max_bytes` are pending —
    /// fewer operations for up to `interval` more vote latency.
    GroupDisk {
        /// Flush timer period.
        interval: Dur,
        /// Pending-byte threshold that forces an immediate flush.
        max_bytes: u32,
    },
    /// Write-behind: each vote is written and leaves at once, unless
    /// the device lags by more than 20 ms; then it leaves once the work
    /// queued ahead of its write is down to 20 ms.
    AsyncDisk,
}

impl StorageMode {
    /// Whether a vote is durable before it leaves — what recovery needs.
    pub fn writes_ahead(self) -> bool {
        matches!(self, StorageMode::SyncDisk | StorageMode::GroupDisk { .. })
    }
}

/// One vote: its instance, the round it was cast at, and its value.
pub type VoteEntry<V> = (InstanceId, Round, V);

/// The acceptor vote log. `token_kind` is the host actor's timer
/// namespace (top byte) under which the log's disk completions and
/// timers arrive; the host routes every token of that kind to
/// [`VoteLog::on_token`].
pub struct VoteLog<V> {
    store: StableHandle<V>,
    mode: StorageMode,
    token_kind: u64,
    /// Appended, not yet submitted to the device (group mode only).
    pending: Vec<VoteEntry<V>>,
    pending_bytes: u32,
    /// Submitted flushes awaiting their `DiskDone`, FIFO (the simulated
    /// disk is a single queue, so completions arrive in issue order).
    inflight: VecDeque<(u64, Vec<VoteEntry<V>>)>,
    next_flush: u64,
    timer_armed: bool,
    /// Write-behind votes waiting for the device to catch up, each with
    /// the instant it may leave (non-decreasing: the disk is FIFO).
    held: VecDeque<(Time, VoteEntry<V>)>,
}

impl<V: Clone> VoteLog<V> {
    /// Creates a vote log writing through `store`.
    pub fn new(store: StableHandle<V>, mode: StorageMode, token_kind: u64) -> VoteLog<V> {
        VoteLog {
            store,
            mode,
            token_kind,
            pending: Vec::new(),
            pending_bytes: 0,
            inflight: VecDeque::new(),
            next_flush: 0,
            timer_armed: false,
            held: VecDeque::new(),
        }
    }

    /// Appends a vote. Returns whether the caller may vote at once;
    /// otherwise it must not act on the vote until [`VoteLog::on_token`]
    /// hands it back.
    pub fn append(
        &mut self,
        instance: InstanceId,
        round: Round,
        value: V,
        bytes: u32,
        ctx: &mut Ctx,
    ) -> bool {
        match self.mode {
            StorageMode::InMemory => true,
            StorageMode::SyncDisk => {
                let token = self.issue(vec![(instance, round, value)]);
                ctx.disk_write_coalesced(bytes, DISK_UNIT, token);
                false
            }
            StorageMode::GroupDisk { interval, max_bytes } => {
                self.pending_bytes += bytes;
                self.pending.push((instance, round, value));
                if self.pending_bytes >= max_bytes {
                    self.flush(ctx);
                } else if !self.timer_armed {
                    self.timer_armed = true;
                    ctx.set_timer(interval, TimerToken(self.token_kind | FLUSH_TIMER));
                }
                false
            }
            StorageMode::AsyncDisk => {
                let token = self.issue(vec![(instance, round, value.clone())]);
                ctx.disk_write_coalesced(bytes, DISK_UNIT, token);
                let lag = ctx.disk_backlog();
                if lag <= WRITE_BEHIND_LAG {
                    return true;
                }
                let wait = lag - WRITE_BEHIND_LAG;
                self.held.push_back((ctx.now() + wait, (instance, round, value)));
                ctx.set_timer(wait, TimerToken(self.token_kind | RELEASE_TIMER));
                false
            }
        }
    }

    /// Queues `group` as the next device write; returns the write's
    /// completion token.
    fn issue(&mut self, group: Vec<VoteEntry<V>>) -> TimerToken {
        let id = self.next_flush;
        self.next_flush += 1;
        self.inflight.push_back((id, group));
        TimerToken(self.token_kind | id)
    }

    /// Submits the pending group to the device as one write.
    fn flush(&mut self, ctx: &mut Ctx) {
        if self.pending.is_empty() {
            return;
        }
        let (group, bytes) = (std::mem::take(&mut self.pending), self.pending_bytes.max(1));
        self.pending_bytes = 0;
        ctx.disk_write(bytes, self.issue(group));
    }

    /// Handles a token of this log's kind and returns the votes the
    /// caller may now act on, in append order, each with the round it
    /// was appended at: a disk completion commits its flush to the
    /// stable store (and, writing ahead, releases it); a flush-timer
    /// tick submits the pending group; a release tick lets through the
    /// write-behind votes whose wait is over.
    pub fn on_token(&mut self, payload: u64, ctx: &mut Ctx) -> Vec<VoteEntry<V>> {
        if payload == FLUSH_TIMER {
            self.timer_armed = false;
            self.flush(ctx);
            return Vec::new();
        }
        if payload == RELEASE_TIMER {
            let mut due = Vec::new();
            while self.held.front().is_some_and(|h| h.0 <= ctx.now()) {
                due.push(self.held.pop_front().expect("checked front").1);
            }
            return due;
        }
        // Completions arrive in issue order on a healthy node, but a
        // crash drops the completion events that were in flight while
        // the node was down: those flushes never report back, and the
        // first completion after recovery belongs to a *later* flush.
        // Skipped entries are treated as lost before reaching the
        // platter — their votes never become durable and the
        // coordinator's re-proposal path re-votes them. A completion
        // with no matching entry (a leftover from a replaced
        // incarnation) is ignored.
        let Some(k) = self.inflight.iter().position(|e| e.0 == payload) else {
            return Vec::new();
        };
        self.inflight.drain(..k);
        let (_, group) = self.inflight.pop_front().expect("found above");
        let mut store = self.store.lock().unwrap();
        for (instance, round, value) in &group {
            store.votes.insert(*instance, (*round, value.clone()));
        }
        // Written behind, each vote has left already or waits in `held`.
        if self.mode.writes_ahead() {
            group
        } else {
            Vec::new()
        }
    }

    /// Whether the durable log holds `instance`'s vote at `round`. A vote
    /// durable at an older round does not count: a re-proposal under a
    /// new round must be written again before the acceptor votes for it.
    pub fn holds(&self, instance: InstanceId, round: Round) -> bool {
        self.store.lock().unwrap().votes.get(&instance).is_some_and(|&(r, _)| r == round)
    }

    /// Whether the vote appended for `instance` at `round` may be acted
    /// on: durable when writing ahead, past the device-lag wait when
    /// writing behind.
    pub fn released(&self, instance: InstanceId, round: Round) -> bool {
        match self.mode {
            StorageMode::InMemory => true,
            StorageMode::AsyncDisk => {
                !self.held.iter().any(|(_, v)| (v.0, v.1) == (instance, round))
            }
            _ => self.holds(instance, round),
        }
    }

    /// Drops durable votes below `upto` (the ring's GC watermark).
    pub fn trim_below(&self, upto: InstanceId) {
        self.store.lock().unwrap().trim_votes_below(upto);
    }

    /// The durable log contents, for replay into a fresh acceptor
    /// (`paxos::acceptor::Acceptor::restore`).
    pub fn replay(&self) -> (Round, Vec<VoteEntry<V>>) {
        let store = self.store.lock().unwrap();
        let votes = store.votes.iter().map(|(&i, (r, v))| (i, *r, v.clone())).collect::<Vec<_>>();
        (store.promised, votes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stable::stable;
    use simnet::config::SimConfig;
    use simnet::sim::{Actor, Envelope, Sim};
    use std::sync::Arc;
    use std::sync::Mutex;

    const KIND: u64 = 9 << 56;

    /// Appends `n` votes on start and records when each may leave.
    struct Logger {
        wal: VoteLog<u32>,
        n: u64,
        released: Arc<Mutex<Vec<(u64, Time)>>>,
    }

    impl Actor for Logger {
        fn on_start(&mut self, ctx: &mut Ctx) {
            for i in 0..self.n {
                if self.wal.append(InstanceId(i), Round::new(1, 0), i as u32, 8192, ctx) {
                    self.released.lock().unwrap().push((i, ctx.now()));
                }
            }
        }
        fn on_message(&mut self, _env: &Envelope, _ctx: &mut Ctx) {}
        fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
            for (i, _, _) in self.wal.on_token(token.0 & !(0xff << 56), ctx) {
                self.released.lock().unwrap().push((i.0, ctx.now()));
            }
        }
    }

    fn run(mode: StorageMode, n: u64) -> (Vec<(u64, Time)>, StableHandle<u32>) {
        let store = stable();
        let released = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new(SimConfig::default());
        sim.add_node(Box::new(Logger {
            wal: VoteLog::new(store.clone(), mode, KIND),
            n,
            released: released.clone(),
        }));
        sim.run_to_idle();
        let d = released.lock().unwrap().clone();
        (d, store)
    }

    #[test]
    fn sync_mode_releases_votes_in_order_after_disk_time() {
        let (durable, store) = run(StorageMode::SyncDisk, 4);
        assert_eq!(durable.len(), 4);
        assert_eq!(durable.iter().map(|&(i, _)| i).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        // Each 8 KB append pays its coalesced share of the device op.
        let per = SimConfig::default().disk_write_time_coalesced(8192, DISK_UNIT);
        assert_eq!(durable[0].1, Time::ZERO + per);
        assert!(durable[3].1 > durable[0].1);
        assert_eq!(store.lock().unwrap().votes.len(), 4);
    }

    #[test]
    fn group_mode_commits_the_group_in_one_operation() {
        let interval = Dur::millis(1);
        let (durable, store) = run(StorageMode::GroupDisk { interval, max_bytes: 1024 * 1024 }, 4);
        assert_eq!(durable.len(), 4);
        // Nothing is durable before the flush timer fires.
        assert!(durable[0].1 >= Time::ZERO + interval);
        // One device write commits the whole group: all four release at
        // the same completion time.
        assert!(durable.iter().all(|&(_, t)| t == durable[0].1));
        assert_eq!(store.lock().unwrap().votes.len(), 4);
    }

    #[test]
    fn group_mode_flushes_early_at_byte_threshold() {
        let mode = StorageMode::GroupDisk { interval: Dur::secs(10), max_bytes: 16 * 1024 };
        let (durable, _) = run(mode, 4);
        // 8 KB appends hit the 16 KB threshold at the second append: two
        // flushes of two votes each, both long before the 10 s timer.
        assert_eq!(durable.len(), 4);
        assert!(durable[3].1 < Time::ZERO + Dur::secs(1));
    }

    /// Write-behind: a vote whose write queues behind less than 20 ms of
    /// device work leaves at once; past that it is handed back once the
    /// work ahead of its write is down to 20 ms. Every write still
    /// reaches the stable store.
    #[test]
    fn write_behind_releases_at_once_under_the_lag_and_throttles_above_it() {
        let (released, store) = run(StorageMode::AsyncDisk, 200);
        let per = SimConfig::default().disk_write_time_coalesced(8192, DISK_UNIT);
        let under = (WRITE_BEHIND_LAG.as_nanos() / per.as_nanos()) as usize;
        assert_eq!(released.len(), 200);
        for &(i, at) in &released {
            // The backlog after appending vote `i` is its own write's
            // completion time.
            let done = Time::ZERO + per * (i + 1);
            if (i as usize) < under {
                assert_eq!(at, Time::ZERO, "vote {i} under the lag leaves at once");
            } else {
                assert_eq!(at, Time(done.0 - WRITE_BEHIND_LAG.0), "vote {i} waits for the disk");
            }
        }
        assert!(under > 0 && under < 200, "both sides of the lag are exercised");
        assert_eq!(store.lock().unwrap().votes.len(), 200);
    }

    #[test]
    fn crash_before_completion_loses_exactly_the_unflushed_votes() {
        // Issue 4 sync appends, crash the node before any DiskDone fires:
        // the stable store must contain nothing.
        let store = stable();
        let released = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new(SimConfig::default());
        let n = sim.add_node(Box::new(Logger {
            wal: VoteLog::new(store.clone(), StorageMode::SyncDisk, KIND),
            n: 4,
            released: released.clone(),
        }));
        sim.run_until(Time::ZERO + Dur::micros(100)); // first write needs ~600 us
        sim.set_node_up(n, false);
        sim.run_to_idle();
        assert!(released.lock().unwrap().is_empty());
        assert!(store.lock().unwrap().votes.is_empty(), "nothing durable before DiskDone");
    }

    #[test]
    fn holds_only_the_durable_round() {
        let (_, store) = run(StorageMode::SyncDisk, 2);
        let wal: VoteLog<u32> = VoteLog::new(store, StorageMode::SyncDisk, KIND);
        assert!(wal.holds(InstanceId(1), Round::new(1, 0)));
        assert!(!wal.holds(InstanceId(1), Round::new(2, 1)), "an older round's vote");
        assert!(!wal.holds(InstanceId(2), Round::new(1, 0)), "never written");
    }

    #[test]
    fn replay_returns_durable_state() {
        let (_, store) = run(StorageMode::SyncDisk, 3);
        store.lock().unwrap().log_promise(Round::new(2, 1));
        let wal: VoteLog<u32> = VoteLog::new(store, StorageMode::SyncDisk, KIND);
        let (promised, votes) = wal.replay();
        assert_eq!(promised, Round::new(2, 1));
        assert_eq!(votes.len(), 3);
        let a = paxos::acceptor::Acceptor::restore(promised, votes);
        assert_eq!(a.rnd(), Round::new(2, 1));
        assert_eq!(a.vote(InstanceId(2)).unwrap().v_val, 2);
    }
}
