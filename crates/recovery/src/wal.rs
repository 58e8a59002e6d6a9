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
//!
//! [`StorageMode`] has three modes. Under `SyncDisk` the log commits
//! groups on the device's clock, as §3.5.5's writer thread batches
//! votes: a vote appended while the log has no write of its own in
//! flight is written at once; one appended while a write is in flight
//! joins the group written, as one operation of the votes' summed
//! bytes, the instant that write completes. So a lone vote on an idle
//! device pays a whole operation (390 µs plus transfer): nothing shares
//! it. Groups are not capped at §3.5.5's 32 KB unit: what queues during
//! one write bounds them, and splitting one would only charge a backlog
//! more operations, so a loaded log drains toward the device's transfer
//! rate. Write-behind (`AsyncDisk`) throttles a ring to its disks but is
//! *not* write-ahead: a vote can be counted before it is durable, so a
//! respawned acceptor may forget it, and recovery refuses the mode
//! ([`StorageMode::writes_ahead`]).

use std::collections::VecDeque;

use simnet::prelude::*;
use simnet::time::Dur;

use paxos::msg::{InstanceId, Round};

use crate::stable::StableHandle;

/// The §3.5.5 device unit; a write-behind append pays its share of the op.
const DISK_UNIT: u32 = 32 * 1024;

/// How far behind the device may fall before a write-behind vote waits.
const WRITE_BEHIND_LAG: Dur = Dur::millis(20);

/// Token payload (56-bit space) of the write-behind release timer;
/// write completions count up from 0.
const RELEASE_TIMER: u64 = (1u64 << 56) - 1;

/// How acceptors persist their votes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum StorageMode {
    /// No write; the vote leaves at once. Assumes a majority of
    /// acceptors never fails simultaneously. Network/CPU bound.
    #[default]
    InMemory,
    /// Group commit on the device's clock (module docs): a vote leaves
    /// once the write that carried it is durable. Disk bound.
    SyncDisk,
    /// Write-behind: each vote is written and leaves at once, unless
    /// the device lags by more than 20 ms; then it leaves once the work
    /// queued ahead of its write is down to 20 ms.
    AsyncDisk,
}

impl StorageMode {
    /// Whether a vote is durable before it leaves — what recovery needs.
    pub fn writes_ahead(self) -> bool {
        self == StorageMode::SyncDisk
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
    /// Appended while the log's last write was in flight: the next group.
    pending: Vec<VoteEntry<V>>,
    pending_bytes: u32,
    /// Submitted writes awaiting their `DiskDone`, FIFO (the simulated
    /// disk is a single queue, so completions arrive in issue order).
    inflight: VecDeque<(u64, Vec<VoteEntry<V>>)>,
    next_flush: u64,
    /// When the log's last group write completes; past it, the log has
    /// no write in flight, or a crash dropped that write's completion.
    busy_until: Time,
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
            busy_until: Time::ZERO,
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
                self.pending_bytes += bytes;
                self.pending.push((instance, round, value));
                self.flush(ctx);
                false
            }
            StorageMode::AsyncDisk => {
                let token = self.issue(vec![(instance, round, value.clone())], ctx);
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
    fn issue(&mut self, group: Vec<VoteEntry<V>>, ctx: &mut Ctx) -> TimerToken {
        let id = self.next_flush;
        self.next_flush += 1;
        self.inflight.push_back((id, group));
        ctx.counter_add("rec.wal_writes", 1);
        TimerToken(self.token_kind | id)
    }

    /// Writes the pending group as one device operation, unless the
    /// log's last write is still in flight. Past `busy_until` with a
    /// write still listed, a crash dropped its completion: waiting for
    /// it would wedge the log.
    fn flush(&mut self, ctx: &mut Ctx) {
        if self.pending.is_empty() || ctx.now() < self.busy_until {
            return;
        }
        let (group, bytes) = (std::mem::take(&mut self.pending), self.pending_bytes.max(1));
        self.pending_bytes = 0;
        let token = self.issue(group, ctx);
        ctx.disk_write(bytes, token);
        // The disk is FIFO: this write completes when its queue drains.
        self.busy_until = ctx.now() + ctx.disk_backlog();
    }

    /// Handles a token of this log's kind and returns the votes the
    /// caller may now act on, in append order, each with the round it
    /// was appended at: a disk completion commits its write to the
    /// stable store (and, writing ahead, releases it and writes the next
    /// group); a release tick lets through the write-behind votes whose
    /// wait is over.
    pub fn on_token(&mut self, payload: u64, ctx: &mut Ctx) -> Vec<VoteEntry<V>> {
        if payload == RELEASE_TIMER {
            let mut due = Vec::new();
            while self.held.front().is_some_and(|h| h.0 <= ctx.now()) {
                due.push(self.held.pop_front().expect("checked front").1);
            }
            return due;
        }
        // Completions arrive in issue order on a healthy node, but a
        // crash drops the completion events that were in flight while
        // the node was down: those writes never report back, and the
        // first completion after recovery belongs to a *later* write.
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
        let durable = group.iter().map(|(i, r, v)| (*i, (*r, v.clone())));
        self.store.lock().unwrap().votes.extend(durable);
        self.flush(ctx);
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
            StorageMode::SyncDisk => self.holds(instance, round),
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
    /// The `Logger`'s own timer: append one more vote.
    const LATER: u64 = 8 << 56;

    type Released = Arc<Mutex<Vec<(u64, Time)>>>;

    /// Appends `n` votes on start (and one more at `later`, if set) and
    /// records when each may leave and how many writes remain in flight.
    struct Logger {
        wal: VoteLog<u32>,
        n: u64,
        later: Option<Dur>,
        released: Released,
        inflight: Arc<Mutex<usize>>,
    }

    impl Logger {
        fn append(&mut self, i: u64, ctx: &mut Ctx) {
            if self.wal.append(InstanceId(i), Round::new(1, 0), i as u32, 8192, ctx) {
                self.released.lock().unwrap().push((i, ctx.now()));
            }
        }
    }

    impl Actor for Logger {
        fn on_start(&mut self, ctx: &mut Ctx) {
            for i in 0..self.n {
                self.append(i, ctx);
            }
            if let Some(later) = self.later {
                ctx.set_timer(later, TimerToken(LATER));
            }
        }
        fn on_message(&mut self, _env: &Envelope, _ctx: &mut Ctx) {}
        fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
            if token.0 == LATER {
                self.append(self.n, ctx);
                return;
            }
            for (i, _, _) in self.wal.on_token(token.0 & !(0xff << 56), ctx) {
                self.released.lock().unwrap().push((i.0, ctx.now()));
            }
            *self.inflight.lock().unwrap() = self.wal.inflight.len();
        }
    }

    /// A simulation with one `Logger` over a fresh store.
    fn logger(mode: StorageMode, n: u64, later: Option<Dur>) -> (Sim, NodeId, Released, Logged) {
        let store = stable();
        let released = Released::default();
        let inflight = Arc::new(Mutex::new(0));
        let mut sim = Sim::new(SimConfig::default());
        let node = sim.add_node(Box::new(Logger {
            wal: VoteLog::new(store.clone(), mode, KIND),
            n,
            later,
            released: released.clone(),
            inflight: inflight.clone(),
        }));
        (sim, node, released, Logged { store, inflight })
    }

    /// What a `Logger` leaves behind: its stable store, and how many
    /// writes its log had in flight after the last completion.
    struct Logged {
        store: StableHandle<u32>,
        inflight: Arc<Mutex<usize>>,
    }

    fn run(mode: StorageMode, n: u64) -> (Vec<(u64, Time)>, StableHandle<u32>) {
        let (mut sim, _, released, logged) = logger(mode, n, None);
        sim.run_to_idle();
        let d = released.lock().unwrap().clone();
        (d, logged.store)
    }

    fn write_time(bytes: u32) -> Dur {
        SimConfig::default().disk_write_time(bytes)
    }

    /// Nothing shares a lone vote's write, so it pays a whole device
    /// operation, not a share of a 32 KB unit.
    #[test]
    fn a_lone_vote_on_an_idle_device_pays_one_whole_write() {
        let (durable, store) = run(StorageMode::SyncDisk, 1);
        assert_eq!(durable, vec![(0, Time::ZERO + write_time(8192))]);
        assert_eq!(store.lock().unwrap().votes.len(), 1);
    }

    /// The first vote goes out alone; the three appended while it is in
    /// flight leave together, in order, when the one write that carries
    /// them completes — an operation of their summed bytes.
    #[test]
    fn sync_mode_releases_votes_in_order_after_disk_time() {
        let (mut sim, node, released, logged) = logger(StorageMode::SyncDisk, 4, None);
        sim.run_to_idle();
        let durable = released.lock().unwrap().clone();
        let first = Time::ZERO + write_time(8192);
        let group = first + write_time(3 * 8192);
        assert_eq!(durable, vec![(0, first), (1, group), (2, group), (3, group)]);
        assert_eq!(sim.metrics().counter(node, "rec.wal_writes"), 2);
        assert_eq!(sim.metrics().counter(node, "disk.written_bytes"), 4 * 8192);
        assert_eq!(logged.store.lock().unwrap().votes.len(), 4);
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
        let (mut sim, n, released, logged) = logger(StorageMode::SyncDisk, 4, None);
        sim.run_until(Time::ZERO + Dur::micros(100)); // the first write needs ~540 us
        sim.set_node_up(n, false);
        sim.run_to_idle();
        assert!(released.lock().unwrap().is_empty());
        assert!(logged.store.lock().unwrap().votes.is_empty(), "nothing durable before DiskDone");
    }

    /// A node that goes down with a write in flight and comes back with
    /// its state never hears that write complete. The next append must
    /// not wait for it: it goes out with the group that queued behind
    /// the lost write, is released when that write completes, and the
    /// lost write is written off.
    #[test]
    fn a_completion_lost_to_a_crash_does_not_wedge_the_log() {
        let later = Dur::millis(5);
        let (mut sim, n, released, logged) = logger(StorageMode::SyncDisk, 2, Some(later));
        sim.run_until(Time::ZERO + Dur::micros(100));
        sim.set_node_up(n, false); // vote 0 is being written, vote 1 waits
        sim.run_until(Time::ZERO + Dur::millis(2));
        sim.set_node_up(n, true);
        sim.run_to_idle();
        let done = Time::ZERO + later + write_time(2 * 8192);
        assert_eq!(*released.lock().unwrap(), vec![(1, done), (2, done)]);
        let votes = &logged.store.lock().unwrap().votes;
        assert!(!votes.contains_key(&InstanceId(0)), "the lost write never became durable");
        assert_eq!(votes.len(), 2);
        assert_eq!(*logged.inflight.lock().unwrap(), 0, "the lost write is written off");
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
