//! Command execution for one replica, as a pure virtual-time engine: the
//! service, the speculation queue (§4.2.1), and a readers–writer schedule
//! over the node's execution cores.
//!
//! The [`Executor`] has no simulator dependency (the sans-IO shape of
//! `psmr::engine::Engine`): each call applies the command to the real
//! service, decides *when* and *on which core* the modelled execution
//! runs, and returns the CPU charge for the actor to book. The host
//! applies commands one by one in the order they are fed; only virtual
//! time is scheduled.
//!
//! # Schedule
//!
//! Worker threads pull from the delivery-ordered queue, so whichever core
//! takes a command also pays its dispatch cost. Three rules place it:
//!
//! * a command with any **update** runs on `cores[0]` and starts no
//!   earlier than the end of every earlier read and write;
//! * a **read-only** command can start at the later of its arrival and
//!   the end of the last earlier write. If at least two cores are idle at
//!   that instant, it runs **in parts**: [`Service::split_read`] cuts it
//!   into one contiguous part per idle core, every part starts then, the
//!   first core also pays the dispatch, and the read is done when its
//!   latest part is;
//! * otherwise it runs whole on the least-loaded core.
//!
//! A read runs on one replica of the partition, the one whose turn it is
//! ("Who answers"); on the others the core that takes it off the queue
//! pays the dispatch and drops it.
//!
//! Commands that do not conflict may execute concurrently as long as
//! conflicting ones keep delivery order (*Rethinking State-Machine
//! Replication for Parallelism*), and two range scans never conflict —
//! nor, therefore, do the parts of one, which is the same cut §4.2.2
//! makes at partition bounds (`Partitioning::split`), made across a
//! replica's cores. Conflicts are judged on the whole tree, not on key
//! ranges. On a one-core pool nothing splits and every rule collapses to
//! a single clock — the paper's two-thread server (§4.4.2), and the
//! client-server baseline's one execution core ([`crate::cs`]), which
//! confirms each request on arrival with nothing speculated.
//!
//! A read splits onto *idle* cores only. Each part pays its own descent
//! (52 µs of a 1000-key scan's 252 µs), so a read in halves takes about
//! 52 µs more core time than whole — worth paying only while the cores
//! would otherwise sit idle. On the benchmark's `smr_query` (two cores
//! per replica, seed 11) splitting onto idle cores took p50 638.0 →
//! 542.0 µs at 12 k req/s and kept the 40 k rung; splitting whenever
//! that would finish sooner read 540.6 µs but held only 24 k, as under
//! load every split spends that extra descent on a busy core.
//!
//! # Who answers
//!
//! Every replica of a partition executes every update, and the one at
//! `id % n` of the partition's `n` replicas ([`Seat`]) answers it. A read
//! runs on one replica only, the one whose turn it is: the `k`-th
//! read-only command in the partition's delivered order is executed and
//! answered by replica `k % n`. The replicas deliver the same sequence, so
//! they agree on every turn without a message, and consecutive reads
//! alternate between them. A hash of the id would agree just as well but
//! balances only on average: open-loop ids are a coin flip, so two reads
//! in a row land on one replica half the time while its peer's cores sit
//! idle. On `smr_query` (seed 11) that burst is the tail: p99 / p999
//! 824.8 / 954.7 µs by id against 755.4 / 811.3 µs by turn, at a p50 of
//! 542.0 / 539.4 µs.
//!
//! The turns stay in step only if every delivered command reaches the
//! executor ([`Executor::confirm`]): a replica that skipped a delivered
//! read would count one read fewer than its peer from then on, and every
//! later read of the partition would be answered by both replicas or by
//! neither. None is skipped: a replica reads each command from the batch
//! that delivered it, and a batch carries a command for every value or
//! for none, so a delivered value without its command cannot be built.
//!
//! # Speculation
//!
//! Speculation (§4.2.1) is how the session tier runs: a command executes
//! when the 2A carrying it arrives ([`Executor::speculate`]), and the
//! decided order reaches it through the one call that every delivered
//! command goes through, [`Executor::confirm`]. Its first test is O(1): if
//! the command is the oldest speculation, the speculation matched, and its
//! reply is released at `max(execution done, decision)` without looking
//! at the command; the caller holds the command anyway, since its learner
//! delivered it, and reads the client and reply size from it. The queue
//! of executions awaiting their order is the only bookkeeping, and every
//! entry carries the consensus *instance* its 2A was for. `speculate`
//! refuses a value
//!
//! * whose instance is below the learner's delivery watermark — a
//!   re-multicast 2A of an instance already delivered;
//! * whose id is already in the queue — a retry, or a re-multicast of an
//!   instance still undelivered.
//!
//! A read is queued either way, run or not, for its place in the queue is
//! what predicts its turn: the reads confirmed so far plus the reads
//! queued ahead of it. It runs at arrival only if that turn is this
//! replica's. With no loss and no takeover the 2As arrive in the decided
//! order and the prediction is exact; otherwise (a stale entry ahead of
//! it, a read confirmed unspeculated) it may be wrong, and the decided
//! order, which [`Executor::confirm`] counts, is what settles the turn. A
//! read run out of turn is wasted work and goes unanswered here; a read
//! whose turn it is but which did not run, runs when confirmed. Either
//! way it is answered exactly once, by the replica whose turn it is.
//!
//! A command confirmed while others are queued ahead of it overtakes
//! them. Two reads never conflict, so a read that ran on arrival with no
//! update queued ahead of it saw exactly the state the decided order
//! gives it: its execution stands — released at `max(execution done,
//! decision)` on its turn, dropped as a read run out of turn otherwise —
//! and the queue stays. Anything else that overtakes
//! a speculated update, or is itself an update, rolls the queue back.
//!
//! After the learner has delivered, [`Executor::delivered`] drops every
//! entry whose instance is now below the watermark: the instance was
//! delivered without confirming it (the learner's duplicate filter dropped
//! a retried value, or the instance was decided with another value under a
//! higher round), so no confirmation will ever pop it and every later one
//! would find it in the way. Such a **stale** read is simply forgotten; a
//! stale update has polluted what ran after it, so the queue rolls back.
//!
//! An instance watermark replaces a history of executed ids because the
//! history has no bound — one id per command, for as long as the replica
//! runs — while the watermark is one integer the learner already keeps,
//! and it answers the only question the history was asked: "has the
//! instance this payload belongs to been delivered?". The queue then holds
//! at most the values of the undelivered instances (the coordinator's
//! window), whatever the run length.

use std::collections::VecDeque;

use abcast::MsgId;
use simnet::time::{Dur, Time};

use crate::service::{Service, StoredCommand};

/// One clock per execution core plus the two conflict horizons.
#[derive(Clone, Debug)]
struct ExecSchedule {
    cores: Vec<usize>,
    clocks: Vec<Time>,
    last_write_end: Time,
    reads_end: Time,
}

/// Where and when the schedule placed one command.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Slot {
    /// Core the command runs on.
    core: usize,
    /// Virtual time its execution starts.
    start: Time,
    /// Virtual time its execution ends.
    done: Time,
}

impl ExecSchedule {
    /// A schedule over `cores` (node core indices); `cores[0]` is the
    /// writer core.
    fn new(cores: Vec<usize>) -> ExecSchedule {
        assert!(!cores.is_empty(), "a replica needs at least one execution core");
        let clocks = vec![Time::ZERO; cores.len()];
        ExecSchedule { cores, clocks, last_write_end: Time::ZERO, reads_end: Time::ZERO }
    }

    /// Places a command of `cost` that became runnable at `now`.
    fn book(&mut self, write: bool, cost: Dur, now: Time) -> Slot {
        let (i, after) = if write {
            (0, self.last_write_end.max(self.reads_end))
        } else {
            // Least loaded = earliest free; ties go to the lowest index.
            let i = (0..self.clocks.len()).min_by_key(|&i| self.clocks[i]).expect("non-empty");
            (i, self.last_write_end)
        };
        let start = self.clocks[i].max(after).max(now);
        let done = start + cost;
        self.clocks[i] = done;
        if write {
            self.last_write_end = done;
        } else {
            self.reads_end = self.reads_end.max(done);
        }
        Slot { core: self.cores[i], start, done }
    }

    /// The instant a read that became runnable at `now` can start: the
    /// later of `now` and the last earlier write's end.
    fn read_start(&self, now: Time) -> Time {
        now.max(self.last_write_end)
    }

    /// How many cores a read that became runnable at `now` could run on
    /// in parts: those idle at the instant it can start.
    fn idle_for_read(&self, now: Time) -> usize {
        let start = self.read_start(now);
        self.clocks.iter().filter(|&&free| free <= start).count()
    }

    /// Places the parts of a read that became runnable at `now`, given
    /// as `(_, cost)`, one on each of the first `parts.len()` cores idle
    /// at the instant it can start ([`ExecSchedule::idle_for_read`] said
    /// how many there are), and writes each part's core next to its cost.
    /// Returns that instant: every part starts then.
    fn book_parts(&mut self, parts: &mut [(usize, Dur)], now: Time) -> Time {
        let start = self.read_start(now);
        let mut unplaced = parts.iter_mut();
        for (&core, clock) in self.cores.iter().zip(&mut self.clocks) {
            if *clock > start {
                continue;
            }
            let Some((part_core, cost)) = unplaced.next() else { break };
            *part_core = core;
            *clock = start + *cost;
            self.reads_end = self.reads_end.max(*clock);
        }
        assert!(unplaced.next().is_none(), "more parts than idle cores");
        start
    }
}

/// What the actor does for one executed command: book each part's cost
/// on its core (utilization accounting; the schedule's own clocks set
/// the timing) and, if this replica answers, release the reply at `done`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Booked {
    /// `(core, CPU time)` of each part the command ran in: one for a
    /// command run whole, one per core for a read run in parts, none
    /// when a speculated execution was confirmed (the work was charged
    /// at speculation time).
    pub parts: Vec<(usize, Dur)>,
    /// Virtual time the reply is ready: the latest part's end.
    pub done: Time,
    /// Speculated commands this call rolled back (confirm only).
    pub rolled_back: usize,
    /// This replica sends the reply ("Who answers"). Known once the
    /// decided order reaches the command: always `false` from
    /// [`Executor::speculate`].
    pub answers: bool,
}

/// A replica's place among its partition's replicas, which take turns
/// answering ("Who answers").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seat {
    /// This replica's index in the partition's replica list.
    pub index: usize,
    /// Replicas in the partition.
    pub of: usize,
}

impl Seat {
    /// Whether turn `k` is this replica's.
    fn holds(self, k: u64) -> bool {
        k % self.of as u64 == self.index as u64
    }
}

/// What [`Executor::delivered`] found stale.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Swept {
    /// Executed speculations whose instance was delivered without
    /// confirming them (a read left to a peer is dropped uncounted).
    pub stale: usize,
    /// Speculated commands undone because a stale one had updates.
    pub rolled_back: usize,
}

/// A speculated command awaiting its order: the command, the instance
/// whose 2A carried it, how many undo records it left in the service
/// (none for a read), and until when it ran (`None`: a read left to a
/// peer).
struct Speculated {
    id: MsgId,
    instance: u64,
    updates: usize,
    done: Option<Time>,
}

impl Speculated {
    fn is_read(&self) -> bool {
        self.updates == 0
    }
}

/// The operations of `cmd` a replica with partition mask `mask` runs.
fn ops_of<C>(mask: u32, cmd: &StoredCommand<C>) -> impl Iterator<Item = &C> {
    cmd.ops.iter().filter(move |(m, _)| m & mask != 0).map(|(_, op)| op)
}

/// Executes delivered (and, optionally, speculated) commands against
/// service `S` and schedules them over the replica's execution cores.
pub struct Executor<S: Service> {
    service: S,
    schedule: ExecSchedule,
    /// Partition mask of this replica.
    mask: u32,
    /// Per-command cost of taking it off the delivery queue.
    dispatch: Dur,
    /// Where this replica sits among its partition's replicas.
    seat: Seat,
    /// Reads confirmed so far: the turn of the next read in the decided
    /// order.
    reads: u64,
    /// Speculated commands in arrival order, all of instances at or
    /// above `watermark` once [`Executor::delivered`] has run.
    spec_q: VecDeque<Speculated>,
    /// The learner's delivery watermark as of the last `delivered`.
    watermark: u64,
    /// Updates committed: applied in, or confirmed by, the decided order.
    committed: u64,
}

impl<S: Service> Executor<S> {
    /// An executor for the replica at `seat` of partition mask `mask`,
    /// running on `cores` (`cores[0]` is the writer core).
    pub fn new(service: S, cores: Vec<usize>, mask: u32, dispatch: Dur, seat: Seat) -> Executor<S> {
        assert!(seat.index < seat.of, "{seat:?} is not a seat of its partition");
        Executor {
            service,
            schedule: ExecSchedule::new(cores),
            mask,
            dispatch,
            seat,
            reads: 0,
            spec_q: VecDeque::new(),
            watermark: 0,
            committed: 0,
        }
    }

    /// The replicated service (for inspection).
    pub fn service(&self) -> &S {
        &self.service
    }

    /// Speculated commands awaiting their order, reads left to a peer
    /// included.
    pub fn speculated(&self) -> usize {
        self.spec_q.len()
    }

    /// Updates applied to the service, net of rollbacks.
    pub fn updates_applied(&self) -> u64 {
        // Every uncommitted update is a speculated one, with its undo record.
        self.committed + self.service.undo_depth() as u64
    }

    /// Commits the `n` oldest uncommitted updates.
    fn commit(&mut self, n: usize) {
        self.service.commit(n);
        self.committed += n as u64;
    }

    /// Whether this replica answers the next command of the decided
    /// order, `id`, read-only or not ("Who answers"). A read takes its
    /// turn: call once per confirmed command.
    fn take_turn(&mut self, id: MsgId, read: bool) -> bool {
        if !read {
            return self.seat.holds(id.0);
        }
        self.reads += 1;
        self.seat.holds(self.reads - 1)
    }

    /// Applies `cmd`'s local operations to the service and places the
    /// execution. A read-only command runs in parts, one per idle core,
    /// when at least two cores are idle at the instant it can start and
    /// the service cuts it; the first part pays the dispatch. Returns the
    /// number of updates applied and the booking.
    fn run(&mut self, cmd: &StoredCommand<S::Command>, now: Time) -> (usize, Booked) {
        let updates = ops_of(self.mask, cmd).filter(|op| S::is_update(op)).count();
        let idle = if updates == 0 { self.schedule.idle_for_read(now) } else { 0 };
        // `(core, cost)` per part; cores are filled in by the booking.
        let mut parts = Vec::with_capacity(idle.max(1));
        parts.push((0, self.dispatch));
        for op in ops_of(self.mask, cmd) {
            if idle < 2 {
                parts[0].1 += self.service.execute(op);
                continue;
            }
            let cut = S::split_read(op, idle);
            if parts.len() < cut.len() {
                parts.resize(cut.len(), (0, Dur::ZERO));
            }
            for (part, sub) in parts.iter_mut().zip(&cut) {
                part.1 += self.service.execute(sub);
            }
        }
        let done = if parts.len() > 1 {
            let start = self.schedule.book_parts(&mut parts, now);
            start + parts.iter().map(|&(_, cost)| cost).max().expect("two parts or more")
        } else {
            let slot = self.schedule.book(updates > 0, parts[0].1, now);
            parts[0].0 = slot.core;
            slot.done
        };
        (updates, Booked { parts, done, rolled_back: 0, answers: false })
    }

    /// Takes a read this replica does not execute off the queue: the
    /// core that takes it pays the dispatch and drops it.
    fn pass(&mut self, now: Time) -> Booked {
        let slot = self.schedule.book(false, self.dispatch, now);
        Booked {
            parts: vec![(slot.core, self.dispatch)],
            done: slot.done,
            rolled_back: 0,
            answers: false,
        }
    }

    /// Speculative path: queues `cmd` when the Phase 2A payload of
    /// `instance` arrives (§4.2.1) and executes it if it is an update or a
    /// read whose predicted turn is this replica's. `None` when nothing
    /// ran: the instance is already delivered, the command is already
    /// queued, or it is a read left to a peer.
    pub fn speculate(
        &mut self,
        id: MsgId,
        instance: u64,
        cmd: &StoredCommand<S::Command>,
        now: Time,
    ) -> Option<Booked> {
        if instance < self.watermark || self.spec_q.iter().any(|s| s.id == id) {
            return None;
        }
        let read = !ops_of(self.mask, cmd).any(S::is_update);
        let turn = self.reads + self.spec_q.iter().filter(|s| s.is_read()).count() as u64;
        let (updates, booked) = if !read || self.seat.holds(turn) {
            let (updates, booked) = self.run(cmd, now);
            (updates, Some(booked))
        } else {
            (0, None)
        };
        self.spec_q.push_back(Speculated {
            id,
            instance,
            updates,
            done: booked.as_ref().map(|b| b.done),
        });
        booked
    }

    /// `cmd`, of id `id`, is the next command in the decided order. If it
    /// is also the oldest speculation — the first test, O(1) — the
    /// speculation matched: its updates are committed and its reply is
    /// released at max(execution done, order known), without looking at
    /// `cmd`; a read left to a peer only pays its dispatch. Otherwise,
    /// and for a read left to a peer whose turn turns out to be this
    /// replica's, `cmd` executes in order, after the speculation queue is
    /// rolled back if the decided order invalidates it. A read runs only
    /// if its turn is this replica's; a read that ran on arrival behind no
    /// queued update keeps that execution and leaves the queue alone
    /// (module docs, "Speculation").
    pub fn confirm(&mut self, id: MsgId, cmd: &StoredCommand<S::Command>, now: Time) -> Booked {
        if let Some(s) = self.spec_q.front().filter(|s| s.id == id) {
            if !(s.is_read() && s.done.is_none() && self.seat.holds(self.reads)) {
                let s = self.spec_q.pop_front().expect("front checked");
                let answers = self.take_turn(id, s.is_read());
                self.commit(s.updates);
                return match s.done {
                    Some(done) => {
                        Booked { parts: Vec::new(), done: done.max(now), rolled_back: 0, answers }
                    }
                    None => self.pass(now),
                };
            }
        }
        let read = !ops_of(self.mask, cmd).any(S::is_update);
        let answers = self.take_turn(id, read);
        if let Some(done) = self.take_clean_read(id) {
            return Booked { parts: Vec::new(), done: done.max(now), rolled_back: 0, answers };
        }
        let executes = answers || !read;
        let rolled_back = self.resolve_overtaker(id, cmd, executes);
        let (updates, booked) = if executes { self.run(cmd, now) } else { (0, self.pass(now)) };
        self.commit(updates);
        Booked { rolled_back, answers, ..booked }
    }

    /// The learner has delivered every instance below `watermark`. A
    /// speculation from such an instance that is still queued was not
    /// confirmed by it and never will be — it is stale. Stale reads are
    /// dropped; if a stale command has updates, everything speculated
    /// since ran on state the decided order never produces, and the whole
    /// queue is rolled back (to execute again when confirmed).
    pub fn delivered(&mut self, watermark: u64) -> Swept {
        debug_assert!(watermark >= self.watermark, "the delivery watermark never retreats");
        if watermark == self.watermark {
            // `speculate` admits nothing below it, so nothing went stale.
            return Swept::default();
        }
        self.watermark = watermark;
        let is_stale = |s: &Speculated| s.instance < watermark;
        if !self.spec_q.iter().any(is_stale) {
            return Swept::default();
        }
        // A stale read left to a peer ran nowhere: it goes uncounted.
        let stale = self.spec_q.iter().filter(|s| is_stale(s) && s.done.is_some()).count();
        let rolled_back = if self.spec_q.iter().any(|s| is_stale(s) && s.updates > 0) {
            self.roll_back_queue()
        } else {
            self.spec_q.retain(|s| !is_stale(s));
            0
        };
        Swept { stale, rolled_back }
    }

    /// Undoes every speculated command; returns how many of them ran (a
    /// read left to a peer is dropped, but there is nothing to undo).
    fn roll_back_queue(&mut self) -> usize {
        self.service.rollback(self.spec_q.iter().map(|s| s.updates).sum());
        let undone = self.spec_q.iter().filter(|s| s.done.is_some()).count();
        self.spec_q.clear();
        undone
    }

    /// Takes `id`'s queued entry if it is a read that ran with no update
    /// queued ahead of it, and returns when it finished: nothing the
    /// decided order puts before it is missing from what it read, and
    /// nothing after it is in it.
    fn take_clean_read(&mut self, id: MsgId) -> Option<Time> {
        let i = self.spec_q.iter().position(|s| s.id == id)?;
        let done = self.spec_q[i].done.filter(|_| self.spec_q[i].is_read())?;
        if self.spec_q.iter().take(i).any(|s| s.updates > 0) {
            return None;
        }
        self.spec_q.remove(i);
        Some(done)
    }

    /// A confirmed command that is not the head of the speculation queue
    /// overtakes the speculated ones in the decided order. Speculation
    /// stays valid only if neither side mutates shared state: the
    /// overtaker executes no updates here, and — when the overtaker
    /// executes at all — no speculated updates could have polluted what
    /// it reads (§4.2.1). Otherwise (rare: coordinator change or a lost
    /// payload) everything speculated is rolled back, to be re-executed
    /// in the confirmed order. A queued read left to a peer ran nowhere
    /// here, so only its own entry goes. Returns the number of commands
    /// undone.
    fn resolve_overtaker(
        &mut self,
        id: MsgId,
        cmd: &StoredCommand<S::Command>,
        executes: bool,
    ) -> usize {
        if let Some(i) = self.spec_q.iter().position(|s| s.id == id && s.done.is_none()) {
            self.spec_q.remove(i);
        }
        if self.spec_q.is_empty() {
            return 0;
        }
        // Speculated behind others, and not kept by `confirm`: its own
        // early execution is void too.
        let was_speculated = self.spec_q.iter().any(|s| s.id == id);
        let conflict = was_speculated
            || ops_of(self.mask, cmd).any(S::is_update)
            || (executes && self.spec_q.iter().any(|s| s.updates > 0));
        if conflict {
            self.roll_back_queue()
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btree::{TreeCommand, TreeService};
    use proptest::prelude::*;
    use simnet::ids::NodeId;

    fn us(n: u64) -> Dur {
        Dur::micros(n)
    }

    fn at(n: u64) -> Time {
        Time::ZERO + us(n)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The schedule is conflict-serializable in delivery order: a
        /// core runs one command or part at a time, reads never overlap
        /// writes, a write starts after every earlier read and write, and
        /// nothing starts before it arrives. A read run in parts starts
        /// every part at once — at the later of its arrival and the last
        /// write's end — and only on cores idle at that instant, and the
        /// next write waits for its latest part. On one core nothing
        /// splits, and the schedule is the single `charge_cpu` chain it
        /// replaced.
        #[test]
        fn schedule_serializes_conflicts_in_delivery_order(
            n_cores in 1..5usize,
            // (whole read / write / read in parts, part costs, gap)
            stream in prop::collection::vec(
                (0..3u8, prop::collection::vec(1..400u64, 1..5), 0..300u64), 1..200),
        ) {
            let cores: Vec<usize> = (1..=n_cores).collect();
            let mut sched = ExecSchedule::new(cores.clone());
            let (mut now, mut chain, mut write_end) = (Time::ZERO, Time::ZERO, Time::ZERO);
            // The oracle's own clock: when each core's last part ends.
            let mut free = vec![Time::ZERO; n_cores];
            // (write, slot) of every command and part, in delivery order.
            let mut booked: Vec<(bool, Slot)> = Vec::new();
            for (kind, costs, gap) in stream {
                let write = kind == 1;
                let costs: Vec<Dur> = costs.into_iter().map(us).collect();
                now += us(gap);
                let start = now.max(write_end);
                let idle = sched.idle_for_read(now);
                prop_assert_eq!(idle, free.iter().filter(|&&f| f <= start).count());
                let n = idle.min(costs.len());
                let slots = if kind == 2 && n >= 2 {
                    let mut parts: Vec<(usize, Dur)> = costs[..n].iter().map(|&c| (0, c)).collect();
                    prop_assert_eq!(sched.book_parts(&mut parts, now), start);
                    let slots: Vec<Slot> = parts
                        .iter()
                        .map(|&(core, cost)| Slot { core, start, done: start + cost })
                        .collect();
                    for slot in &slots {
                        prop_assert!(free[slot.core - 1] <= start, "a part on a busy core");
                    }
                    let mut on: Vec<usize> = slots.iter().map(|s| s.core).collect();
                    on.dedup();
                    prop_assert_eq!(on.len(), n, "two parts on one core");
                    slots
                } else {
                    let slot = sched.book(write, costs[0], now);
                    prop_assert!(slot.start >= now);
                    prop_assert_eq!(slot.done, slot.start + costs[0]);
                    if write {
                        prop_assert_eq!(slot.core, cores[0]);
                    }
                    chain = chain.max(now) + costs[0];
                    if n_cores == 1 {
                        prop_assert_eq!(slot.done, chain);
                    }
                    vec![slot]
                };
                for &slot in &slots {
                    prop_assert!(cores.contains(&slot.core));
                    prop_assert!(write || slot.start >= write_end, "a read overtook a write");
                    for &(w, earlier) in &booked {
                        let disjoint = earlier.done <= slot.start || slot.done <= earlier.start;
                        if earlier.core == slot.core || w != write {
                            prop_assert!(disjoint, "{earlier:?} overlaps {slot:?}");
                        }
                        if write {
                            prop_assert!(earlier.done <= slot.start, "{slot:?} overtook {earlier:?}");
                        }
                    }
                }
                for &slot in &slots {
                    free[slot.core - 1] = free[slot.core - 1].max(slot.done);
                    booked.push((write, slot));
                }
                if write {
                    write_end = slots[0].done;
                }
            }
        }
    }

    const MASK: u32 = 1;
    const DISPATCH: Dur = Dur::micros(10);

    fn cmd(ops: &[TreeCommand]) -> StoredCommand<TreeCommand> {
        StoredCommand {
            ops: ops.iter().map(|&op| (MASK, op)).collect(),
            client: NodeId(0),
            mask: MASK,
            reply_bytes: 64,
        }
    }

    /// The only replica of its partition.
    const ALONE: Seat = Seat { index: 0, of: 1 };

    fn executor(cores: &[usize]) -> Executor<TreeService> {
        seated(cores, ALONE)
    }

    fn seated(cores: &[usize], seat: Seat) -> Executor<TreeService> {
        Executor::new(TreeService::new(), cores.to_vec(), MASK, DISPATCH, seat)
    }

    impl Booked {
        /// CPU time the command took, over all its parts.
        fn cost(&self) -> Dur {
            self.parts.iter().map(|&(_, cost)| cost).fold(Dur::ZERO, |a, b| a + b)
        }
    }

    /// The cores a command ran on, in part order.
    fn cores_of(b: &Booked) -> Vec<usize> {
        b.parts.iter().map(|&(core, _)| core).collect()
    }

    /// The longest part of a command.
    fn longest(b: &Booked) -> Dur {
        b.parts.iter().map(|&(_, cost)| cost).max().expect("executed")
    }

    fn scan_cost(lo: u64, hi: u64) -> Dur {
        btree::CostModel::default().cost(TreeCommand::Query { lo, hi })
    }

    #[test]
    fn reads_wait_for_writes_and_writes_for_reads() {
        let mut ex = executor(&[1, 3]);
        let scan = cmd(&[TreeCommand::Query { lo: 0, hi: 999 }]);
        let put = cmd(&[TreeCommand::Insert { key: 5, value: 5 }]);
        let now = at(100);
        let r1 = ex.confirm(MsgId(1), &scan, now);
        let w = ex.confirm(MsgId(2), &put, now);
        let r2 = ex.confirm(MsgId(3), &scan, now);
        // Both cores idle: the first read runs in halves on both.
        assert_eq!((cores_of(&r1), r1.done), (vec![1, 3], now + longest(&r1)));
        // The write runs on the writer core, after every part of the
        // first read ends.
        assert_eq!((cores_of(&w), w.done), (vec![1], r1.done + w.cost()));
        // The second read starts at the write's end, not at `now`, where
        // both cores are idle again.
        assert_eq!((cores_of(&r2), r2.done), (vec![1, 3], w.done + longest(&r2)));
    }

    #[test]
    fn independent_reads_run_side_by_side() {
        let mut ex = executor(&[1, 3]);
        let lookup = cmd(&[TreeCommand::Query { lo: 0, hi: 0 }]);
        let scan = cmd(&[TreeCommand::Query { lo: 0, hi: 999 }]);
        let now = at(100);
        // A one-key read cannot be cut: it runs whole on core 1, so the
        // scan behind it finds one core idle and runs whole on core 3.
        let l = ex.confirm(MsgId(1), &lookup, now);
        let a = ex.confirm(MsgId(2), &scan, now);
        let b = ex.confirm(MsgId(3), &scan, now);
        assert_eq!((cores_of(&l), l.done), (vec![1], now + l.cost()));
        assert_eq!(a.parts, [(3, DISPATCH + scan_cost(0, 999))]);
        assert_eq!(a.done, now + a.cost());
        // No core is idle: the next scan runs whole on the least-loaded
        // core, beside the first.
        assert_eq!((cores_of(&b), b.done), (vec![1], l.done + b.cost()));

        // One of two replicas, which take turns: the peer's reads are
        // taken off the queue by the least-loaded core, which pays the
        // dispatch behind its own work and drops them.
        let mut ex = seated(&[1, 3], Seat { index: 0, of: 2 });
        let l = ex.confirm(MsgId(1), &lookup, now);
        let p = ex.confirm(MsgId(2), &scan, now);
        let a = ex.confirm(MsgId(3), &scan, now);
        let q = ex.confirm(MsgId(4), &scan, now);
        assert_eq!([l.answers, p.answers, a.answers, q.answers], [true, false, true, false]);
        assert_eq!((cores_of(&l), l.done), (vec![1], now + l.cost()));
        assert_eq!((p.parts, p.done), (vec![(3, DISPATCH)], now + DISPATCH));
        // No core is idle: the scan runs whole on core 3, behind the
        // dispatch, and the next read left to the peer queues on core 1.
        assert_eq!(a.parts, [(3, DISPATCH + scan_cost(0, 999))]);
        assert_eq!(a.done, p.done + a.cost());
        assert_eq!((q.parts, q.done), (vec![(1, DISPATCH)], l.done + DISPATCH));
    }

    /// A scan that finds cores idle runs one contiguous part on each,
    /// every part paying its own descent and the first the dispatch; one
    /// that finds a core busy runs on the others only.
    #[test]
    fn a_scan_runs_in_parts_on_the_idle_cores() {
        let mut ex = executor(&[1, 3, 5]);
        let scan = cmd(&[TreeCommand::Query { lo: 0, hi: 899 }]);
        let now = at(100);
        let a = ex.confirm(MsgId(1), &scan, now);
        let thirds = [(1, DISPATCH + scan_cost(0, 299)), (3, scan_cost(300, 599))];
        assert_eq!(a.parts, [thirds[0], thirds[1], (5, scan_cost(600, 899))]);
        assert_eq!(a.done, now + longest(&a));

        // Arriving now, the next scan finds no core idle: it runs whole
        // on the least-loaded one.
        let c = ex.confirm(MsgId(2), &scan, now);
        assert_eq!(c.parts, [(3, DISPATCH + scan_cost(0, 899))]);
        assert_eq!(c.done, now + scan_cost(300, 599) + c.cost());

        // Later every core is idle; a one-key read cannot be cut and takes
        // the least-loaded, core 5, so the next scan finds two idle.
        let later = c.done;
        let lookup = cmd(&[TreeCommand::Query { lo: 0, hi: 0 }]);
        let l = ex.confirm(MsgId(3), &lookup, later);
        assert_eq!(cores_of(&l), [5]);
        let b = ex.confirm(MsgId(4), &scan, later);
        let halves = [(1, DISPATCH + scan_cost(0, 449)), (3, scan_cost(450, 899))];
        assert_eq!((b.parts.as_slice(), b.done), (&halves[..], later + longest(&b)));

        // A write never splits, and waits for the latest part.
        let put = cmd(&[TreeCommand::Insert { key: 5, value: 5 }]);
        let w = ex.confirm(MsgId(5), &put, later);
        assert_eq!((cores_of(&w), w.done), (vec![1], b.done + w.cost()));

        // Without a dispatch to pay, the second half of an odd span is one
        // key longer than the first, and the read is done when it is.
        let mut ex = Executor::new(TreeService::new(), vec![1, 3], MASK, Dur::ZERO, ALONE);
        let odd = cmd(&[TreeCommand::Query { lo: 0, hi: 1000 }]);
        let d = ex.confirm(MsgId(6), &odd, now);
        assert_eq!(d.parts, [(1, scan_cost(0, 499)), (3, scan_cost(500, 1000))]);
        assert_eq!(d.done, now + scan_cost(500, 1000));
    }

    /// The tree after executing `cmds` one by one.
    fn sequential(cmds: &[&StoredCommand<TreeCommand>]) -> Vec<(u64, u64)> {
        let mut svc = TreeService::new();
        for (_, op) in cmds.iter().flat_map(|c| &c.ops) {
            svc.apply(*op);
        }
        svc.tree().range(0, u64::MAX)
    }

    /// A confirmed speculation commits its own undo records only: when a
    /// later mis-order rolls the queue back, the commands still in it
    /// must be undone (§4.2.1).
    #[test]
    fn confirming_one_speculation_keeps_the_others_undoable() {
        let (k, other) = (7, 8);
        let a = cmd(&[TreeCommand::Insert { key: k, value: 1 }]);
        let b = cmd(&[
            TreeCommand::Insert { key: k, value: 2 },
            TreeCommand::Insert { key: other, value: 2 },
        ]);
        let x = cmd(&[TreeCommand::Insert { key: k, value: 3 }]);

        let mut ex = executor(&[1]);
        let now = at(0);
        assert!(ex.speculate(MsgId(1), 0, &a, now).is_some());
        assert!(ex.speculate(MsgId(2), 1, &b, now).is_some());
        let ca = ex.confirm(MsgId(1), &a, now);
        assert_eq!((ca.cost(), ca.rolled_back), (Dur::ZERO, 0));
        assert_eq!(ex.service().undo_depth(), 2, "B's records outlive A's commit");

        // X was never speculated here and updates B's key: B is undone.
        let cx = ex.confirm(MsgId(3), &x, now);
        assert_eq!(cx.rolled_back, 1);
        assert_eq!(ex.service().tree().range(0, u64::MAX), sequential(&[&a, &x]));
        assert_eq!(ex.service().undo_depth(), 0);

        // B is delivered after X and executes again, in order.
        let cb = ex.confirm(MsgId(2), &b, now);
        assert_eq!(cb.rolled_back, 0);
        assert!(cb.cost() > Dur::ZERO);
        assert_eq!(ex.service().tree().range(0, u64::MAX), sequential(&[&a, &x, &b]));
        assert_eq!(ex.updates_applied(), 4);
    }

    #[test]
    fn speculate_refuses_delivered_instances_queued_ids_and_foreign_reads() {
        let scan = cmd(&[TreeCommand::Query { lo: 0, hi: 9 }]);
        let put = cmd(&[TreeCommand::Insert { key: 1, value: 1 }]);
        let mut ex = seated(&[1], Seat { index: 0, of: 2 });
        let now = at(0);
        assert_eq!(ex.delivered(4), Swept::default());

        // A re-multicast 2A of an instance the learner has delivered.
        assert!(ex.speculate(MsgId(1), 3, &put, now).is_none());
        assert!(ex.speculate(MsgId(1), 4, &put, now).is_some());
        // The same value again: a re-multicast of instance 4, or a retry
        // the coordinator proposed in instance 6.
        assert!(ex.speculate(MsgId(1), 4, &put, now).is_none());
        assert!(ex.speculate(MsgId(1), 6, &put, now).is_none());
        // Turn 0 is this replica's, turn 1 its peer's: the second query is
        // queued but not run. An update runs everywhere.
        assert!(ex.speculate(MsgId(2), 5, &scan, now).is_some());
        assert!(ex.speculate(MsgId(4), 5, &scan, now).is_none());
        assert!(ex.speculate(MsgId(3), 5, &put, now).is_some());
        assert_eq!((ex.speculated(), ex.updates_applied()), (4, 2));

        // Once confirmed the id is forgotten: only the watermark stands
        // between a late copy and a second execution. The oldest
        // speculation is confirmed without running again.
        assert!(ex.confirm(MsgId(1), &put, now).parts.is_empty());
        assert_eq!(ex.delivered(5), Swept::default());
        assert!(ex.speculate(MsgId(1), 4, &put, now).is_none());
    }

    /// The wedge: A is speculated from instance 5, which is then delivered
    /// with A filtered as a duplicate, so no confirmation ever pops A. B
    /// and C, speculated behind it, would each find A at the head and roll
    /// the queue back. The stale rule retires A when instance 5 goes by.
    #[test]
    fn a_stale_speculation_does_not_wedge_the_queue() {
        let b = cmd(&[TreeCommand::Insert { key: 2, value: 2 }]);
        let c = cmd(&[TreeCommand::Query { lo: 0, hi: 9 }]);
        let now = at(0);
        let speculate_all = |a: &StoredCommand<TreeCommand>| {
            let mut ex = executor(&[1]);
            assert_eq!(ex.delivered(5), Swept::default());
            for (i, x) in [a, &b, &c].into_iter().enumerate() {
                assert!(ex.speculate(MsgId(i as u64), 5 + i as u64, x, now).is_some());
            }
            ex
        };

        // Read-only A: forgotten; B and C are confirmed as speculated.
        let a = cmd(&[TreeCommand::Query { lo: 0, hi: 9 }]);
        let mut ex = speculate_all(&a);
        assert_eq!(ex.delivered(6), Swept { stale: 1, rolled_back: 0 });
        for (id, x) in [(1, &b), (2, &c)] {
            let booked = ex.confirm(MsgId(id), x, now);
            assert_eq!((booked.cost(), booked.rolled_back), (Dur::ZERO, 0));
            assert_eq!(ex.delivered(6 + id), Swept::default());
        }
        assert_eq!((ex.speculated(), ex.service().undo_depth()), (0, 0));
        assert_eq!(ex.service().tree().range(0, u64::MAX), sequential(&[&b]));

        // A with an update: B and C ran on a tree holding A's key, so one
        // sweep undoes all three, and B and C execute again in order.
        let a = cmd(&[TreeCommand::Insert { key: 2, value: 1 }]);
        let mut ex = speculate_all(&a);
        assert_eq!(ex.delivered(6), Swept { stale: 1, rolled_back: 3 });
        assert!(ex.service().tree().is_empty());
        for (id, x) in [(1, &b), (2, &c)] {
            let booked = ex.confirm(MsgId(id), x, now);
            assert!(booked.cost() > Dur::ZERO);
            assert_eq!(booked.rolled_back, 0);
            assert_eq!(ex.delivered(6 + id), Swept::default());
        }
        assert_eq!((ex.speculated(), ex.service().undo_depth()), (0, 0));
        assert_eq!(ex.service().tree().range(0, u64::MAX), sequential(&[&b]));
        assert_eq!(ex.updates_applied(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The client-server baseline ([`crate::cs`]) is this executor on
        /// one core, seated alone, with nothing speculated: each request
        /// is confirmed on arrival and booked back to back on one clock,
        /// at `max(arrival, previous done) + dispatch + Σ execute`. No read
        /// splits, every command is answered, and the tree is the
        /// sequential one.
        #[test]
        fn one_core_seated_alone_books_requests_back_to_back(
            requests in prop::collection::vec((
                prop::collection::vec(prop_oneof![
                    (0..2_000u64, 0..1_000u64)
                        .prop_map(|(lo, span)| TreeCommand::Query { lo, hi: lo + span }),
                    (0..2_000u64, 0..50u64)
                        .prop_map(|(key, value)| TreeCommand::Insert { key, value }),
                    (0..2_000u64).prop_map(|key| TreeCommand::Delete { key }),
                ], 1..4),
                0..400u64,
            ), 1..60),
        ) {
            let overhead = us(12);
            let mut ex = Executor::new(TreeService::new(), vec![1], MASK, overhead, ALONE);
            let mut oracle = TreeService::new();
            let (mut now, mut clock) = (Time::ZERO, Time::ZERO);
            for (i, (ops, gap)) in requests.iter().enumerate() {
                let c = cmd(ops);
                now += us(*gap);
                let booked = ex.confirm(MsgId(i as u64), &c, now);
                let cost = ops.iter().fold(overhead, |sum, op| sum + oracle.execute(op));
                Service::commit(&mut oracle, ops.iter().filter(|op| op.is_update()).count());
                clock = clock.max(now) + cost;
                prop_assert_eq!(&booked.parts, &vec![(1, cost)], "request {}", i);
                prop_assert_eq!(booked.done, clock, "request {}", i);
                prop_assert!(booked.answers);
                prop_assert_eq!(booked.rolled_back, 0);
            }
            prop_assert_eq!((ex.speculated(), ex.service().undo_depth()), (0, 0));
            let tree = |svc: &TreeService| svc.tree().range(0, u64::MAX);
            prop_assert_eq!(tree(ex.service()), tree(&oracle));
        }
    }

    /// A scan of ten keys from `lo`.
    fn read(lo: u64) -> StoredCommand<TreeCommand> {
        cmd(&[TreeCommand::Query { lo, hi: lo + 9 }])
    }

    /// Two replicas fed one delivered sequence of reads answer alternate
    /// reads, disjoint halves that cover it, and each runs only the reads
    /// it answers, on arrival or when confirmed; a read left to the peer
    /// costs its dispatch alone. Every id is even, so a rule of `id % 2`
    /// would send each read to replica 0.
    #[test]
    fn two_replicas_answer_alternate_reads_of_one_delivered_sequence() {
        let scan = cmd(&[TreeCommand::Query { lo: 0, hi: 999 }]);
        let ids: Vec<MsgId> = (0..8).map(|i| MsgId(2 * i)).collect();
        for speculative in [false, true] {
            let mut answered = Vec::new();
            for index in 0..2 {
                let mut ex = seated(&[1, 3], Seat { index, of: 2 });
                let mut mine = Vec::new();
                for (i, &id) in ids.iter().enumerate() {
                    let now = at(1_000 * i as u64);
                    let ran = speculative && ex.speculate(id, i as u64, &scan, now).is_some();
                    let booked = ex.confirm(id, &scan, now);
                    assert_eq!(ex.delivered(i as u64 + 1), Swept::default());
                    assert_eq!(ran || booked.cost() > DISPATCH, booked.answers, "{id:?}");
                    if booked.answers {
                        mine.push(id);
                    } else {
                        assert_eq!((booked.parts.len(), booked.cost()), (1, DISPATCH), "{id:?}");
                    }
                }
                answered.push(mine);
            }
            let turns =
                |first: usize| ids.iter().copied().skip(first).step_by(2).collect::<Vec<_>>();
            assert_eq!(answered, [turns(0), turns(1)], "speculative {speculative}");
        }
    }

    /// Neither a stale speculation nor a retried duplicate the learner
    /// filters takes a turn. The replica at seat 0 of 2 queues A's retry
    /// (instance 6, delivered without it) and a deposed coordinator's S
    /// (instance 7, decided as B, which arrives by repair); both go stale,
    /// and it answers A and C, not B and E — turns 0 and 2 of the decided
    /// reads A B C E.
    #[test]
    fn a_stale_speculation_and_a_filtered_retry_shift_no_turn() {
        let (a, s, b, c, e) = (read(0), read(10), read(20), read(30), read(40));
        let mut ex = seated(&[1, 3], Seat { index: 0, of: 2 });
        let now = at(0);
        assert_eq!(ex.delivered(5), Swept::default());
        assert!(ex.speculate(MsgId(10), 5, &a, now).is_some());
        assert!(ex.confirm(MsgId(10), &a, now).answers);
        assert_eq!(ex.delivered(6), Swept::default());

        // Predicted turns 1 (the peer's) and 2 (this replica's).
        assert!(ex.speculate(MsgId(10), 6, &a, now).is_none());
        assert!(ex.speculate(MsgId(11), 7, &s, now).is_some());
        assert_eq!(ex.speculated(), 2);
        // A's retry, left to the peer, ran nowhere: dropped uncounted.
        assert_eq!(ex.delivered(7), Swept::default());
        assert_eq!(ex.speculated(), 1);
        let booked = ex.confirm(MsgId(12), &b, now);
        assert!(!booked.answers);
        assert_eq!((booked.cost(), booked.rolled_back), (DISPATCH, 0));
        assert_eq!(ex.delivered(8), Swept { stale: 1, rolled_back: 0 });

        // C is turn 2 and E turn 3, as if neither had been queued.
        assert!(ex.speculate(MsgId(13), 8, &c, now).is_some());
        assert!(ex.speculate(MsgId(14), 9, &e, now).is_none());
        let (bc, be) = (ex.confirm(MsgId(13), &c, now), ex.confirm(MsgId(14), &e, now));
        assert_eq!((bc.answers, bc.cost()), (true, Dur::ZERO));
        assert_eq!((be.answers, be.cost()), (false, DISPATCH));
        assert_eq!(ex.delivered(10), Swept::default());
        assert_eq!(ex.speculated(), 0);
    }

    /// A lost 2A skews a replica's predictions: replica 0 misses R0's 2A
    /// (it confirms R0 unspeculated, by repair) and predicts R1 and R3
    /// as its turns, replica 1 misses R2's and predicts R3 as its peer's.
    /// The decided order still settles every turn: each read is answered
    /// exactly once, R0 and R2 by replica 0, R1 and R3 by replica 1, and a
    /// wrong prediction costs a wasted execution (R1 and R3 on replica 0)
    /// or one at confirmation (R2 on replica 0, R3 on replica 1).
    #[test]
    fn a_read_confirmed_against_a_wrong_prediction_is_answered_once() {
        let reads: Vec<StoredCommand<TreeCommand>> = (0..4).map(|i| read(10 * i)).collect();
        let mut answers = [0; 4];
        let mut answered = Vec::new();
        let mut ran = Vec::new();
        for (index, lost) in [(0, 0), (1, 2)] {
            let mut ex = seated(&[1, 3], Seat { index, of: 2 });
            let now = at(0);
            let spec: Vec<bool> = (0..4)
                .map(|i| {
                    i != lost && ex.speculate(MsgId(i as u64), i as u64, &reads[i], now).is_some()
                })
                .collect();
            let mut mine = Vec::new();
            for (i, r) in reads.iter().enumerate() {
                let booked = ex.confirm(MsgId(i as u64), r, now);
                assert_eq!(booked.rolled_back, 0);
                if booked.answers {
                    answers[i] += 1;
                    mine.push(i);
                    // Ran on arrival, or runs now.
                    assert!(spec[i] || booked.cost() > DISPATCH, "R{i} answered unexecuted");
                }
                ex.delivered(i as u64 + 1);
            }
            assert_eq!(ex.speculated(), 0);
            answered.push(mine);
            ran.push(spec);
        }
        assert_eq!(answers, [1; 4]);
        assert_eq!(answered, [[0, 2], [1, 3]]);
        assert_eq!(ran, [[false, true, false, true], [false, true, false, false]]);
    }

    /// Reads never conflict. B, speculated behind A, is decided first: the
    /// replica keeps B's execution — answering at its end on B's turn, and
    /// dropping it as a read run out of turn otherwise — and A stays
    /// queued. Behind a queued update the queue still rolls back, for
    /// the read saw a write the decided order puts after it.
    #[test]
    fn a_read_overtaking_only_reads_keeps_its_execution_and_the_queue() {
        let (a, b) = (read(0), read(10));
        let now = at(0);
        let kept = |done, answers| Booked { parts: Vec::new(), done, rolled_back: 0, answers };

        // Alone: both run on arrival, and both are this replica's turns.
        let mut ex = executor(&[1]);
        let sa = ex.speculate(MsgId(1), 0, &a, now).expect("turn 0 runs");
        let sb = ex.speculate(MsgId(2), 1, &b, now).expect("turn 1 runs");
        let booked = ex.confirm(MsgId(2), &b, now);
        assert_eq!(booked, kept(sb.done, true));
        assert_eq!(ex.speculated(), 1, "A stays queued");
        let booked = ex.confirm(MsgId(1), &a, now);
        assert_eq!(booked, kept(sa.done, true));

        // Seat 1 of 2: B runs on arrival as predicted turn 1, but the
        // decided order makes it turn 0, the peer's; A, turn 1, is this
        // replica's and runs when confirmed.
        let mut ex = seated(&[1], Seat { index: 1, of: 2 });
        assert!(ex.speculate(MsgId(1), 0, &a, now).is_none());
        let sb = ex.speculate(MsgId(2), 1, &b, now).expect("turn 1 runs");
        let booked = ex.confirm(MsgId(2), &b, now);
        assert_eq!(booked, kept(sb.done, false));
        assert_eq!(ex.speculated(), 1, "A stays queued");
        let booked = ex.confirm(MsgId(1), &a, now);
        assert_eq!((booked.answers, booked.rolled_back), (true, 0));
        assert!(booked.cost() > DISPATCH, "A runs when confirmed");
        assert_eq!(ex.speculated(), 0);

        // An update queued ahead of the read.
        let put = cmd(&[TreeCommand::Insert { key: 15, value: 1 }]);
        let mut ex = executor(&[1]);
        assert!(ex.speculate(MsgId(1), 0, &put, now).is_some());
        assert!(ex.speculate(MsgId(2), 1, &b, now).is_some());
        let booked = ex.confirm(MsgId(2), &b, now);
        assert_eq!(booked.rolled_back, 2);
        assert!(booked.cost() > Dur::ZERO, "B runs again");
        assert_eq!((ex.speculated(), ex.service().undo_depth()), (0, 0));
    }

    /// Updates run on every replica and keep the id's responder, `id % n`:
    /// they take no read turn, and the reads between them move none.
    #[test]
    fn updates_keep_the_id_responder() {
        let put = |key| cmd(&[TreeCommand::Insert { key, value: key }]);
        let order = [(4, put(1)), (6, read(0)), (7, put(2)), (8, read(0)), (9, put(3))];
        let mut answered = Vec::new();
        for index in 0..2 {
            let mut ex = seated(&[1, 3], Seat { index, of: 2 });
            let mut mine = Vec::new();
            for (i, (id, c)) in order.iter().enumerate() {
                let now = at(1_000 * i as u64);
                // Replica 1 speculates, replica 0 does not.
                if index == 1 {
                    ex.speculate(MsgId(*id), i as u64, c, now);
                }
                if ex.confirm(MsgId(*id), c, now).answers {
                    mine.push(*id);
                }
                ex.delivered(i as u64 + 1);
            }
            assert_eq!(ex.updates_applied(), 3);
            answered.push(mine);
        }
        // Read turns 0 and 1 go to replicas 0 and 1; puts 4, 7 and 9 by id.
        assert_eq!(answered, [vec![4, 6], vec![7, 8, 9]]);
    }

    /// One 2A reaching the replica: the batch of decided instance `batch`,
    /// labelled as instance `label` (they differ when a deposed
    /// coordinator's proposal for `label` lost to another value and its
    /// batch was decided later).
    #[derive(Clone, Copy, Debug)]
    struct Arrival {
        tick: i64,
        label: usize,
        batch: usize,
    }

    /// Instance `i` is delivered at tick `10 i + 5`; a 2A that leads it
    /// by `lead` instances arrives at tick `10 (i - lead)` — after the
    /// delivery when `lead` is negative.
    fn arrival(label: usize, batch: usize, lead: i64) -> Arrival {
        Arrival { tick: 10 * (label as i64 - lead), label, batch }
    }

    fn tree_op() -> impl Strategy<Value = TreeCommand> {
        prop_oneof![
            (0..8u64, 0..4u64).prop_map(|(lo, span)| TreeCommand::Query { lo, hi: lo + span }),
            (0..8u64, 0..50u64).prop_map(|(key, value)| TreeCommand::Insert { key, value }),
            (0..8u64).prop_map(|key| TreeCommand::Delete { key }),
        ]
    }

    /// `Some` of `strategy`'s value `pct` times in a hundred.
    fn maybe<S: Strategy>(pct: u32, strategy: S) -> impl Strategy<Value = Option<S::Value>> {
        (0..100u32, strategy).prop_map(move |(roll, v)| (roll < pct).then_some(v))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Whatever is executed early, the state equals sequential
        /// execution in the decided order (*Rethinking SMR for
        /// Parallelism*): 2As arrive early, late, twice, under another
        /// instance's number, or never; retried ids are decided again and
        /// filtered at delivery. The queue never holds more than the
        /// undelivered instances' 2As carried. Whatever was predicted,
        /// the replica at `seat` answers exactly the reads whose turn in
        /// the decided order is its own, and the updates of its ids, and
        /// runs a read at confirmation only if it answers it.
        #[test]
        fn speculation_equals_sequential_execution_in_bounded_memory(
            cmds in prop::collection::vec(prop::collection::vec(tree_op(), 1..4), 1..40),
            seat in (1..4usize, 0..3usize).prop_map(|(of, i)| Seat { index: i % of, of }),
            shape in prop::collection::vec((1..4usize, maybe(30, any::<u64>())), 40),
            schedule in prop::collection::vec((
                maybe(85, -2..5i64),
                maybe(25, -3..5i64),
                maybe(15, (1..4usize, 0..3i64)),
            ), 40),
        ) {
            let stored: Vec<StoredCommand<TreeCommand>> = cmds.iter().map(|ops| cmd(ops)).collect();
            // The decided order: each instance takes the next few fresh
            // commands and, sometimes, the retry of an earlier one.
            let mut instances: Vec<Vec<(usize, bool)>> = Vec::new();
            let mut next = 0;
            for (take, retry) in &shape {
                if next == stored.len() {
                    break;
                }
                let end = (next + take).min(stored.len());
                let mut batch: Vec<(usize, bool)> = (next..end).map(|c| (c, true)).collect();
                if let (Some(pick), true) = (retry, next > 0) {
                    batch.push((*pick as usize % next, false));
                }
                instances.push(batch);
                next = end;
            }

            let mut arrivals = Vec::new();
            for (i, (first, again, deposed)) in schedule.iter().take(instances.len()).enumerate() {
                arrivals.extend(first.map(|lead| arrival(i, i, lead)));
                arrivals.extend(again.map(|lead| arrival(i, i, lead)));
                if let Some((shift, lead)) = *deposed {
                    arrivals.extend(i.checked_sub(shift).map(|label| arrival(label, i, lead)));
                }
            }
            arrivals.sort_by_key(|a| a.tick);

            let mut ex = seated(&[1, 3], seat);
            let mut reads = 0;
            let mut arrived: Vec<Arrival> = Vec::new();
            let mut pending = arrivals.iter().peekable();
            let mut decided: Vec<&StoredCommand<TreeCommand>> = Vec::new();
            for (i, batch) in instances.iter().enumerate() {
                let deliver_at = 10 * i as i64 + 5;
                while let Some(a) = pending.next_if(|a| a.tick < deliver_at) {
                    let now = at((1_000 + a.tick) as u64);
                    for &(c, _) in &instances[a.batch] {
                        ex.speculate(MsgId(c as u64), a.label as u64, &stored[c], now);
                    }
                    arrived.push(*a);
                    // Bounded by what the undelivered instances' 2As hold.
                    let window: std::collections::BTreeSet<usize> = arrived
                        .iter()
                        .filter(|a| a.label >= i)
                        .flat_map(|a| instances[a.batch].iter().map(|&(c, _)| c))
                        .collect();
                    prop_assert!(ex.speculated() <= window.len());
                }
                let now = at((1_000 + deliver_at) as u64);
                for &(c, fresh) in batch {
                    // The learner's duplicate filter drops a retry.
                    if fresh {
                        let (id, cmd) = (MsgId(c as u64), &stored[c]);
                        let booked = ex.confirm(id, cmd, now);
                        // The decided order alone says who answers.
                        let read = !cmd.ops.iter().any(|(_, op)| op.is_update());
                        let turn = if read { reads } else { id.0 };
                        reads += read as u64;
                        prop_assert_eq!(booked.answers, seat.holds(turn), "{:?} read {}", id, read);
                        if read && !booked.parts.is_empty() {
                            prop_assert_eq!(booked.cost() > DISPATCH, booked.answers);
                        }
                        decided.push(cmd);
                    }
                }
                ex.delivered(i as u64 + 1);
                prop_assert!(ex.speculated() <= instances[i + 1..].iter().map(Vec::len).sum());
            }

            prop_assert_eq!(ex.speculated(), 0);
            prop_assert_eq!(ex.service().undo_depth(), 0);
            prop_assert_eq!(ex.service().tree().range(0, u64::MAX), sequential(&decided));
            let updates = decided.iter().flat_map(|c| &c.ops).filter(|(_, op)| op.is_update());
            prop_assert_eq!(ex.updates_applied(), updates.count() as u64);
        }
    }
}
