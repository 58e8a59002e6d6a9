//! The acceptor write-ahead vote log.
//!
//! Write-ahead discipline: an acceptor may only vote (send its Phase 2B
//! / forward the combined 2A-2B) once the vote is durable, so that a
//! restarted acceptor can never contradict a vote a quorum may have
//! counted. [`VoteLog`] buffers appended votes, pays for them through
//! the simulated disk, and hands them back to the caller — via
//! [`VoteLog::on_token`] — when the corresponding `DiskDone` fires;
//! only then does the entry enter the [`StableHandle`] and only then
//! should the caller vote.
//!
//! Two commit modes (§3.5.5):
//!
//! * [`LogMode::Sync`] — one coalesced device write per vote
//!   (`disk_write_coalesced`, amortizing the per-operation latency over
//!   `disk_unit`-sized appends exactly like the paper's writer thread).
//!   Lowest latency added per vote; the disk sustains ~270 Mbps of
//!   32 KB-batched votes in the default calibration.
//! * [`LogMode::Group`] — group commit: appends accumulate and a single
//!   device write (`disk_write`) commits the whole group when the flush
//!   timer fires or the group reaches `max_bytes`. One operation
//!   latency is paid per *group*, trading a bounded extra vote latency
//!   (up to the flush interval) for fewer device operations.

use simnet::prelude::*;
use simnet::time::Dur;

use paxos::msg::{InstanceId, Round};

use crate::stable::StableHandle;
use crate::FLUSH_TIMER;

/// How the vote log commits appended votes to the device.
#[derive(Clone, Copy, Debug)]
pub enum LogMode {
    /// One coalesced device write per vote; the vote is released when
    /// its own write completes.
    Sync,
    /// Group commit: flush at most every `interval`, or as soon as
    /// `max_bytes` of votes are pending.
    Group {
        /// Flush timer period.
        interval: Dur,
        /// Pending-byte threshold that forces an immediate flush.
        max_bytes: u32,
    },
}

/// One vote awaiting durability.
struct PendingVote<V> {
    instance: InstanceId,
    round: Round,
    value: V,
    bytes: u32,
}

/// The write-ahead acceptor log. `token_kind` is the host actor's timer
/// namespace (top byte) under which the log's disk completions and
/// flush timers arrive; the host routes every token of that kind to
/// [`VoteLog::on_token`].
pub struct VoteLog<V> {
    store: StableHandle<V>,
    mode: LogMode,
    disk_unit: u32,
    token_kind: u64,
    /// Appended, not yet submitted to the device (group mode only).
    pending: Vec<PendingVote<V>>,
    pending_bytes: u32,
    /// Submitted flushes awaiting their `DiskDone`, FIFO (the simulated
    /// disk is a single queue, so completions arrive in issue order).
    inflight: std::collections::VecDeque<(u64, Vec<PendingVote<V>>)>,
    next_flush: u64,
    timer_armed: bool,
}

impl<V: Clone> VoteLog<V> {
    /// Creates a vote log writing through `store`.
    pub fn new(
        store: StableHandle<V>,
        mode: LogMode,
        disk_unit: u32,
        token_kind: u64,
    ) -> VoteLog<V> {
        VoteLog {
            store,
            mode,
            disk_unit,
            token_kind,
            pending: Vec::new(),
            pending_bytes: 0,
            inflight: std::collections::VecDeque::new(),
            next_flush: 0,
            timer_armed: false,
        }
    }

    /// Appends a vote. The caller must *not* act on it until
    /// [`VoteLog::on_token`] returns it as durable.
    pub fn append(
        &mut self,
        instance: InstanceId,
        round: Round,
        value: V,
        bytes: u32,
        ctx: &mut Ctx,
    ) {
        let entry = PendingVote { instance, round, value, bytes: bytes.max(1) };
        match self.mode {
            LogMode::Sync => {
                let id = self.next_flush;
                self.next_flush += 1;
                ctx.disk_write_coalesced(
                    entry.bytes,
                    self.disk_unit,
                    TimerToken(self.token_kind | id),
                );
                self.inflight.push_back((id, vec![entry]));
            }
            LogMode::Group { interval, max_bytes } => {
                self.pending_bytes += entry.bytes;
                self.pending.push(entry);
                if self.pending_bytes >= max_bytes {
                    self.flush(ctx);
                } else if !self.timer_armed {
                    self.timer_armed = true;
                    ctx.set_timer(interval, TimerToken(self.token_kind | FLUSH_TIMER));
                }
            }
        }
    }

    /// Submits the pending group to the device as one write.
    fn flush(&mut self, ctx: &mut Ctx) {
        if self.pending.is_empty() {
            return;
        }
        let id = self.next_flush;
        self.next_flush += 1;
        let group = std::mem::take(&mut self.pending);
        ctx.disk_write(self.pending_bytes.max(1), TimerToken(self.token_kind | id));
        self.pending_bytes = 0;
        self.inflight.push_back((id, group));
    }

    /// Handles a token of this log's kind: a flush-timer tick submits
    /// the pending group; a disk completion commits its flush to the
    /// stable store and returns the now-durable votes, in append order —
    /// the caller votes on each.
    pub fn on_token(&mut self, payload: u64, ctx: &mut Ctx) -> Vec<(InstanceId, Round, V)> {
        if payload == FLUSH_TIMER {
            self.timer_armed = false;
            self.flush(ctx);
            return Vec::new();
        }
        let Some(&(front_id, _)) = self.inflight.front() else {
            return Vec::new();
        };
        // Completions arrive in issue order on a healthy node, but a
        // crash drops the completion events that were in flight while
        // the node was down: those flushes never report back, and the
        // first completion after recovery belongs to a *later* flush.
        // Skipped entries are treated as lost before reaching the
        // platter — their votes never become durable and the
        // coordinator's re-proposal path re-votes them. A completion
        // with no matching entry (a leftover from a replaced
        // incarnation) is ignored.
        if front_id != payload {
            match self.inflight.iter().position(|e| e.0 == payload) {
                Some(k) => {
                    for _ in 0..k {
                        self.inflight.pop_front();
                    }
                }
                None => return Vec::new(),
            }
        }
        let (_, group) = self.inflight.pop_front().expect("checked front");
        let mut store = self.store.lock().unwrap();
        let mut durable = Vec::with_capacity(group.len());
        for e in group {
            store.votes.insert(e.instance, (e.round, e.value.clone()));
            durable.push((e.instance, e.round, e.value));
        }
        durable
    }

    /// Whether the durable log holds `instance`'s vote at `round`. A vote
    /// durable at an older round does not count: a re-proposal under a
    /// new round must be written again before the acceptor votes for it.
    pub fn holds(&self, instance: InstanceId, round: Round) -> bool {
        self.store.lock().unwrap().votes.get(&instance).is_some_and(|&(r, _)| r == round)
    }

    /// The durable log contents, for replay into a fresh acceptor
    /// (`paxos::acceptor::Acceptor::restore`).
    pub fn replay(&self) -> (Round, Vec<(InstanceId, Round, V)>) {
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
    use simnet::time::Time;
    use std::sync::Arc;
    use std::sync::Mutex;

    const KIND: u64 = 9 << 56;

    /// Appends `n` votes on start and records when each becomes durable.
    struct Logger {
        wal: VoteLog<u32>,
        n: u64,
        durable: Arc<Mutex<Vec<(u64, Time)>>>,
    }

    impl Actor for Logger {
        fn on_start(&mut self, ctx: &mut Ctx) {
            for i in 0..self.n {
                self.wal.append(InstanceId(i), Round::new(1, 0), i as u32, 8192, ctx);
            }
        }
        fn on_message(&mut self, _env: &Envelope, _ctx: &mut Ctx) {}
        fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
            for (i, _, _) in self.wal.on_token(token.0 & !(0xff << 56), ctx) {
                self.durable.lock().unwrap().push((i.0, ctx.now()));
            }
        }
    }

    fn run(mode: LogMode, n: u64) -> (Vec<(u64, Time)>, StableHandle<u32>) {
        let store = stable();
        let durable = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new(SimConfig::default());
        sim.add_node(Box::new(Logger {
            wal: VoteLog::new(store.clone(), mode, 32 * 1024, KIND),
            n,
            durable: durable.clone(),
        }));
        sim.run_to_idle();
        let d = durable.lock().unwrap().clone();
        (d, store)
    }

    #[test]
    fn sync_mode_releases_votes_in_order_after_disk_time() {
        let (durable, store) = run(LogMode::Sync, 4);
        assert_eq!(durable.len(), 4);
        assert_eq!(durable.iter().map(|&(i, _)| i).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        // Each 8 KB append pays its coalesced share of the device op.
        let per = SimConfig::default().disk_write_time_coalesced(8192, 32 * 1024);
        assert_eq!(durable[0].1, Time::ZERO + per);
        assert!(durable[3].1 > durable[0].1);
        assert_eq!(store.lock().unwrap().votes.len(), 4);
    }

    #[test]
    fn group_mode_commits_the_group_in_one_operation() {
        let interval = Dur::millis(1);
        let (durable, store) = run(LogMode::Group { interval, max_bytes: 1024 * 1024 }, 4);
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
        let (durable, _) = run(LogMode::Group { interval: Dur::secs(10), max_bytes: 16 * 1024 }, 4);
        // 8 KB appends hit the 16 KB threshold at the second append: two
        // flushes of two votes each, both long before the 10 s timer.
        assert_eq!(durable.len(), 4);
        assert!(durable[3].1 < Time::ZERO + Dur::secs(1));
    }

    #[test]
    fn crash_before_completion_loses_exactly_the_unflushed_votes() {
        // Issue 4 sync appends, crash the node before any DiskDone fires:
        // the stable store must contain nothing.
        let store = stable();
        let durable = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new(SimConfig::default());
        let n = sim.add_node(Box::new(Logger {
            wal: VoteLog::new(store.clone(), LogMode::Sync, 32 * 1024, KIND),
            n: 4,
            durable: durable.clone(),
        }));
        sim.run_until(Time::ZERO + Dur::micros(100)); // first write needs ~600 us
        sim.set_node_up(n, false);
        sim.run_to_idle();
        assert!(durable.lock().unwrap().is_empty());
        assert!(store.lock().unwrap().votes.is_empty(), "nothing durable before DiskDone");
    }

    #[test]
    fn holds_only_the_durable_round() {
        let (_, store) = run(LogMode::Sync, 2);
        let wal: VoteLog<u32> = VoteLog::new(store, LogMode::Sync, 32 * 1024, KIND);
        assert!(wal.holds(InstanceId(1), Round::new(1, 0)));
        assert!(!wal.holds(InstanceId(1), Round::new(2, 1)), "an older round's vote");
        assert!(!wal.holds(InstanceId(2), Round::new(1, 0)), "never written");
    }

    #[test]
    fn replay_returns_durable_state() {
        let (_, store) = run(LogMode::Sync, 3);
        store.lock().unwrap().log_promise(Round::new(2, 1));
        let wal: VoteLog<u32> = VoteLog::new(store, LogMode::Sync, 32 * 1024, KIND);
        let (promised, votes) = wal.replay();
        assert_eq!(promised, Round::new(2, 1));
        assert_eq!(votes.len(), 3);
        let a = paxos::acceptor::Acceptor::restore(promised, votes);
        assert_eq!(a.rnd(), Round::new(2, 1));
        assert_eq!(a.vote(InstanceId(2)).unwrap().v_val, 2);
    }
}
