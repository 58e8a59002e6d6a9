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
//! The log commits groups on the device's clock, as §3.5.5's writer
//! thread batches votes: a vote appended while the log has no write of
//! its own in flight is written at once; one appended while a write is
//! in flight joins the group written, as one operation of the votes'
//! summed bytes, the instant that write completes. So a lone vote on an
//! idle device pays a whole operation (390 µs plus transfer): nothing
//! shares it. Groups are not capped at §3.5.5's 32 KB unit: what queues
//! during one write bounds them, and splitting one would only charge a
//! backlog more operations, so a loaded log drains toward the device's
//! transfer rate.

use std::collections::VecDeque;

use simnet::prelude::*;

use paxos::msg::{InstanceId, Round};

use crate::stable::StableHandle;

/// How acceptors persist their votes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum StorageMode {
    /// No log: the vote leaves at once. Assumes a majority of acceptors
    /// never fails simultaneously. Network/CPU bound.
    #[default]
    InMemory,
    /// The vote log (module docs): a vote leaves once the group write
    /// that carried it is durable. Disk bound; what recovery needs.
    SyncDisk,
}

/// One vote: its instance, the round it was cast at, and its value.
pub type VoteEntry<V> = (InstanceId, Round, V);

/// The acceptor vote log. `token_kind` is the host actor's timer
/// namespace (top byte) under which the log's disk completions arrive;
/// the host routes every token of that kind to [`VoteLog::on_token`].
pub struct VoteLog<V> {
    store: StableHandle<V>,
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
}

impl<V: Clone> VoteLog<V> {
    /// Creates a vote log writing through `store`.
    pub fn new(store: StableHandle<V>, token_kind: u64) -> VoteLog<V> {
        VoteLog {
            store,
            token_kind,
            pending: Vec::new(),
            pending_bytes: 0,
            inflight: VecDeque::new(),
            next_flush: 0,
            busy_until: Time::ZERO,
        }
    }

    /// Appends a vote. The caller must not act on it until
    /// [`VoteLog::on_token`] hands it back.
    pub fn append(
        &mut self,
        instance: InstanceId,
        round: Round,
        value: V,
        bytes: u32,
        ctx: &mut Ctx,
    ) {
        self.pending_bytes += bytes;
        self.pending.push((instance, round, value));
        self.flush(ctx);
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
        let id = self.next_flush;
        self.next_flush += 1;
        self.inflight.push_back((id, group));
        ctx.counter_add("rec.wal_writes", 1);
        ctx.disk_write(bytes, TimerToken(self.token_kind | id));
        // The disk is FIFO: this write completes when its queue drains.
        self.busy_until = ctx.now() + ctx.disk_backlog();
    }

    /// Handles a disk completion of this log's kind: commits its write
    /// to the stable store, writes the next group, and returns the
    /// written votes, which the caller may now act on, in append order,
    /// each with the round it was appended at.
    pub fn on_token(&mut self, payload: u64, ctx: &mut Ctx) -> Vec<VoteEntry<V>> {
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
        group
    }

    /// Whether the durable log holds `instance`'s vote at `round`. A vote
    /// durable at an older round does not count: a re-proposal under a
    /// new round must be written again before the acceptor votes for it.
    pub fn holds(&self, instance: InstanceId, round: Round) -> bool {
        self.store.lock().unwrap().votes.get(&instance).is_some_and(|&(r, _)| r == round)
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
    use proptest::prelude::*;
    use std::sync::{Arc, Mutex};

    const KIND: u64 = 9 << 56;
    /// The `Logger`'s own timers: append its `k`-th later vote.
    const LATER: u64 = 8 << 56;
    const KIND_MASK: u64 = 0xff << 56;

    /// The round vote `i` is cast at (varied, so "at its round" bites).
    fn round_of(i: u64) -> Round {
        Round::new(1 + i % 3, 0)
    }

    /// What a `Logger` saw its log do, shared with the test.
    #[derive(Default)]
    struct Journal {
        /// Each append: instance and when.
        appended: Vec<(u64, Time)>,
        /// Each vote handed back: instance and when.
        released: Vec<(u64, Time)>,
        /// Votes handed back at another round than their own, or that
        /// the stable store did not hold at their round.
        unheld: Vec<u64>,
        /// The votes in the log's writes in flight after its last event.
        inflight: Vec<u64>,
    }

    type Shared = Arc<Mutex<Journal>>;

    /// Appends `n` 8 KB votes (instances `0..n`) on start, then the
    /// `k`-th of `later` — (delay from start, bytes) — as instance
    /// `n + k` when its timer fires, and journals what its log does.
    struct Logger {
        wal: VoteLog<u32>,
        n: u64,
        later: Vec<(Dur, u32)>,
        journal: Shared,
    }

    impl Logger {
        fn append(&mut self, i: u64, bytes: u32, ctx: &mut Ctx) {
            self.wal.append(InstanceId(i), round_of(i), i as u32, bytes, ctx);
            let mut j = self.journal.lock().unwrap();
            j.appended.push((i, ctx.now()));
            j.inflight = self.in_flight();
        }

        fn in_flight(&self) -> Vec<u64> {
            self.wal.inflight.iter().flat_map(|(_, g)| g.iter().map(|v| v.0 .0)).collect()
        }
    }

    impl Actor for Logger {
        fn on_start(&mut self, ctx: &mut Ctx) {
            for i in 0..self.n {
                self.append(i, 8192, ctx);
            }
            for (k, &(at, _)) in self.later.iter().enumerate() {
                ctx.set_timer(at, TimerToken(LATER | k as u64));
            }
        }
        fn on_message(&mut self, _env: &Envelope, _ctx: &mut Ctx) {}
        fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
            let payload = token.0 & !KIND_MASK;
            if token.0 & KIND_MASK == LATER {
                let bytes = self.later[payload as usize].1;
                self.append(self.n + payload, bytes, ctx);
                return;
            }
            let back = self.wal.on_token(payload, ctx);
            let mut j = self.journal.lock().unwrap();
            for (i, r, _) in back {
                j.released.push((i.0, ctx.now()));
                if r != round_of(i.0) || !self.wal.holds(i, r) {
                    j.unheld.push(i.0);
                }
            }
            j.inflight = self.in_flight();
        }
    }

    /// A simulation with one `Logger` over a fresh store.
    fn logger(n: u64, later: &[(Dur, u32)]) -> (Sim, NodeId, Shared, StableHandle<u32>) {
        let store = stable();
        let journal = Shared::default();
        let mut sim = Sim::new(SimConfig::default());
        let node = sim.add_node(Box::new(Logger {
            wal: VoteLog::new(store.clone(), KIND),
            n,
            later: later.to_vec(),
            journal: journal.clone(),
        }));
        (sim, node, journal, store)
    }

    fn run(n: u64) -> (Vec<(u64, Time)>, StableHandle<u32>) {
        let (mut sim, _, journal, store) = logger(n, &[]);
        sim.run_to_idle();
        let released = journal.lock().unwrap().released.clone();
        (released, store)
    }

    fn write_time(bytes: u32) -> Dur {
        SimConfig::default().disk_write_time(bytes)
    }

    /// Nothing shares a lone vote's write, so it pays a whole device
    /// operation, not a share of a 32 KB unit.
    #[test]
    fn a_lone_vote_on_an_idle_device_pays_one_whole_write() {
        let (durable, store) = run(1);
        assert_eq!(durable, vec![(0, Time::ZERO + write_time(8192))]);
        assert_eq!(store.lock().unwrap().votes.len(), 1);
    }

    /// The first vote goes out alone; the three appended while it is in
    /// flight leave together, in order, when the one write that carries
    /// them completes — an operation of their summed bytes.
    #[test]
    fn sync_mode_releases_votes_in_order_after_disk_time() {
        let (mut sim, node, journal, store) = logger(4, &[]);
        sim.run_to_idle();
        let first = Time::ZERO + write_time(8192);
        let group = first + write_time(3 * 8192);
        let want = vec![(0, first), (1, group), (2, group), (3, group)];
        assert_eq!(journal.lock().unwrap().released, want);
        assert_eq!(sim.metrics().counter(node, "rec.wal_writes"), 2);
        assert_eq!(sim.metrics().counter(node, "disk.written_bytes"), 4 * 8192);
        assert_eq!(store.lock().unwrap().votes.len(), 4);
    }

    #[test]
    fn crash_before_completion_loses_exactly_the_unflushed_votes() {
        // Issue 4 appends, crash the node before any DiskDone fires:
        // the stable store must contain nothing.
        let (mut sim, n, journal, store) = logger(4, &[]);
        sim.run_until(Time::ZERO + Dur::micros(100)); // the first write needs ~540 us
        sim.set_node_up(n, false);
        sim.run_to_idle();
        assert!(journal.lock().unwrap().released.is_empty());
        assert!(store.lock().unwrap().votes.is_empty(), "nothing durable before DiskDone");
    }

    /// A node that goes down with a write in flight and comes back with
    /// its state never hears that write complete. The next append must
    /// not wait for it: it goes out with the group that queued behind
    /// the lost write, is released when that write completes, and the
    /// lost write is written off.
    #[test]
    fn a_completion_lost_to_a_crash_does_not_wedge_the_log() {
        let later = Dur::millis(5);
        let (mut sim, n, journal, store) = logger(2, &[(later, 8192)]);
        sim.run_until(Time::ZERO + Dur::micros(100));
        sim.set_node_up(n, false); // vote 0 is being written, vote 1 waits
        sim.run_until(Time::ZERO + Dur::millis(2));
        sim.set_node_up(n, true);
        sim.run_to_idle();
        let done = Time::ZERO + later + write_time(2 * 8192);
        let j = journal.lock().unwrap();
        assert_eq!(j.released, vec![(1, done), (2, done)]);
        let votes = &store.lock().unwrap().votes;
        assert!(!votes.contains_key(&InstanceId(0)), "the lost write never became durable");
        assert_eq!(votes.len(), 2);
        assert!(j.inflight.is_empty(), "the lost write is written off");
    }

    #[test]
    fn holds_only_the_durable_round() {
        let (_, store) = run(2);
        let wal: VoteLog<u32> = VoteLog::new(store, KIND);
        assert!(wal.holds(InstanceId(1), round_of(1)));
        assert!(!wal.holds(InstanceId(1), round_of(2)), "another round's vote");
        assert!(!wal.holds(InstanceId(2), round_of(2)), "never written");
    }

    #[test]
    fn replay_returns_durable_state() {
        let (_, store) = run(3);
        store.lock().unwrap().log_promise(Round::new(4, 1));
        let wal: VoteLog<u32> = VoteLog::new(store, KIND);
        let (promised, votes) = wal.replay();
        assert_eq!(promised, Round::new(4, 1));
        assert_eq!(votes.len(), 3);
        let a = paxos::acceptor::Acceptor::restore(promised, votes);
        assert_eq!(a.rnd(), Round::new(4, 1));
        assert_eq!(a.vote(InstanceId(2)).unwrap().v_val, 2);
    }

    proptest! {
        /// Votes appended at random times and sizes, across random crash
        /// windows (the node down, its state kept), and one vote after
        /// the last window so nothing is left waiting to be written.
        /// Each vote comes back at most once, in append order, no sooner
        /// than a write of its own bytes after its append, and held by
        /// the stable store at its round. A vote that does not come back
        /// was in a write in flight when the node went down.
        #[test]
        fn votes_come_back_once_in_order_and_durable_across_crashes(
            appends in proptest::collection::vec((0u64..20_000, 1u32..65_536), 1..40),
            crashes in proptest::collection::vec((0u64..20_000, 0u64..3_000), 0..4),
        ) {
            let mut later: Vec<(Dur, u32)> =
                appends.iter().map(|&(us, bytes)| (Dur::micros(us), bytes)).collect();
            later.sort_by_key(|l| l.0);
            later.push((Dur::millis(30), 8192));
            // Disjoint down windows, in time order.
            let mut windows: Vec<(Time, Time)> = Vec::new();
            let mut crashes = crashes;
            crashes.sort();
            for (start, len) in crashes {
                let down = Time::ZERO + Dur::micros(start);
                if windows.last().is_some_and(|w| down <= w.1) {
                    continue;
                }
                windows.push((down, down + Dur::micros(len + 1)));
            }
            let (mut sim, node, journal, _) = logger(0, &later);
            let mut lost_candidates = std::collections::BTreeSet::new();
            for &(down, up) in &windows {
                sim.run_until(down);
                lost_candidates.extend(journal.lock().unwrap().inflight.iter().copied());
                sim.set_node_up(node, false);
                sim.run_until(up);
                sim.set_node_up(node, true);
            }
            sim.run_to_idle();

            let j = journal.lock().unwrap();
            let appended: std::collections::BTreeMap<u64, Time> =
                j.appended.iter().copied().collect();
            prop_assert!(j.unheld.is_empty(), "handed back but not durable: {:?}", j.unheld);
            for pair in j.released.windows(2) {
                prop_assert!(pair[0].0 < pair[1].0, "out of append order: {:?}", pair);
            }
            for &(i, at) in &j.released {
                let bytes = later[i as usize].1;
                prop_assert!(at >= appended[&i] + write_time(bytes), "vote {} before its write", i);
            }
            let back: std::collections::BTreeSet<u64> = j.released.iter().map(|r| r.0).collect();
            for &i in appended.keys() {
                prop_assert!(
                    back.contains(&i) || lost_candidates.contains(&i),
                    "vote {} neither came back nor was in flight at a crash", i
                );
            }
        }
    }
}
