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
//! takes a command also pays its dispatch cost. Two rules place it:
//!
//! * a command with any **update** runs on `cores[0]` and starts no
//!   earlier than the end of every earlier read and write;
//! * a **read-only** command runs on the least-loaded core and starts no
//!   earlier than the end of the last earlier write.
//!
//! Commands that do not conflict may execute concurrently as long as
//! conflicting ones keep delivery order (*Rethinking State-Machine
//! Replication for Parallelism*), and two range scans never conflict.
//! Conflicts are judged on the whole tree, not on key ranges: the traffic
//! this repo generates is pure reads or pure updates, so a finer rule
//! would schedule nothing differently. On a one-core pool both rules
//! collapse to a single clock — the paper's two-thread server (§4.4.2).

use std::collections::{HashSet, VecDeque};

use abcast::MsgId;
use simnet::time::{Dur, Time};

use crate::service::{Service, StoredCommand};

/// One clock per execution core plus the two conflict horizons.
#[derive(Clone, Debug)]
pub struct ExecSchedule {
    cores: Vec<usize>,
    clocks: Vec<Time>,
    last_write_end: Time,
    reads_end: Time,
}

/// Where and when the schedule placed one command.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot {
    /// Core the command runs on.
    pub core: usize,
    /// Virtual time its execution starts.
    pub start: Time,
    /// Virtual time its execution ends.
    pub done: Time,
}

impl ExecSchedule {
    /// A schedule over `cores` (node core indices); `cores[0]` is the
    /// writer core.
    pub fn new(cores: Vec<usize>) -> ExecSchedule {
        assert!(!cores.is_empty(), "a replica needs at least one execution core");
        let clocks = vec![Time::ZERO; cores.len()];
        ExecSchedule { cores, clocks, last_write_end: Time::ZERO, reads_end: Time::ZERO }
    }

    /// Places a command of `cost` that became runnable at `now`.
    pub fn book(&mut self, write: bool, cost: Dur, now: Time) -> Slot {
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
}

/// What the actor does for one executed command: book `cost` on `core`
/// (utilization accounting; the schedule's own clocks set the timing)
/// and release the reply at `done`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Booked {
    /// Core that ran the command.
    pub core: usize,
    /// CPU time it took; zero when a speculated execution was confirmed
    /// (the work was charged at speculation time).
    pub cost: Dur,
    /// Virtual time the reply is ready.
    pub done: Time,
    /// Speculated commands this call rolled back (confirm only).
    pub rolled_back: usize,
}

/// A speculated execution awaiting its order: the command, how many undo
/// records it left in the service, and where and until when it ran.
struct Speculated {
    id: MsgId,
    updates: usize,
    core: usize,
    done: Time,
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
    spec_q: VecDeque<Speculated>,
    spec_executed: HashSet<MsgId>,
}

impl<S: Service> Executor<S> {
    /// An executor for the replica of partition mask `mask`, running on
    /// `cores` (`cores[0]` is the writer core).
    pub fn new(service: S, cores: Vec<usize>, mask: u32, dispatch: Dur) -> Executor<S> {
        Executor {
            service,
            schedule: ExecSchedule::new(cores),
            mask,
            dispatch,
            spec_q: VecDeque::new(),
            spec_executed: HashSet::new(),
        }
    }

    /// The replicated service (for inspection).
    pub fn service(&self) -> &S {
        &self.service
    }

    /// Whether this replica executes the command: updates run everywhere
    /// (state must stay identical); queries only on the designated
    /// replica ("only one replica executes the command and responds").
    fn executes(&self, cmd: &StoredCommand<S::Command>, designated: bool) -> bool {
        designated || ops_of(self.mask, cmd).any(S::is_update)
    }

    /// Applies `cmd`'s local operations to the service and places the
    /// execution; a command not executed here still costs its dispatch.
    /// Returns the number of updates applied and the booking.
    fn run(
        &mut self,
        cmd: &StoredCommand<S::Command>,
        executes: bool,
        now: Time,
    ) -> (usize, Booked) {
        let mut cost = self.dispatch;
        let mut updates = 0;
        if executes {
            for op in ops_of(self.mask, cmd) {
                cost += self.service.execute(op);
                updates += usize::from(S::is_update(op));
            }
        }
        let slot = self.schedule.book(updates > 0, cost, now);
        (updates, Booked { core: slot.core, cost, done: slot.done, rolled_back: 0 })
    }

    /// Speculative path: executes `cmd` when its Phase 2A payload arrives
    /// (§4.2.1). `None` when there is nothing to do — the command was
    /// speculated already or does not execute on this replica.
    pub fn speculate(
        &mut self,
        id: MsgId,
        cmd: &StoredCommand<S::Command>,
        designated: bool,
        now: Time,
    ) -> Option<Booked> {
        if self.spec_executed.contains(&id) || !self.executes(cmd, designated) {
            return None;
        }
        self.spec_executed.insert(id);
        let (updates, booked) = self.run(cmd, true, now);
        self.spec_q.push_back(Speculated { id, updates, core: booked.core, done: booked.done });
        Some(booked)
    }

    /// Processes `cmd`, now confirmed as the next command in the decided
    /// order: releases a matching speculation, or executes in order —
    /// after rolling the speculation queue back if the decided order
    /// invalidates it.
    pub fn confirm(
        &mut self,
        id: MsgId,
        cmd: &StoredCommand<S::Command>,
        designated: bool,
        now: Time,
    ) -> Booked {
        if self.spec_q.front().is_some_and(|s| s.id == id) {
            // The speculation matched the decided order: release the
            // response at max(execution done, order known).
            let s = self.spec_q.pop_front().expect("front checked");
            self.service.commit(s.updates);
            return Booked { core: s.core, cost: Dur::ZERO, done: s.done.max(now), rolled_back: 0 };
        }
        let executes = self.executes(cmd, designated);
        let rolled_back = self.resolve_overtaker(id, cmd, executes);
        let (updates, booked) = self.run(cmd, executes, now);
        self.service.commit(updates);
        Booked { rolled_back, ..booked }
    }

    /// A confirmed command that is not the head of the speculation queue
    /// overtakes the speculated ones in the decided order. Speculation
    /// stays valid only if neither side mutates shared state: the
    /// overtaker executes no updates here, and — when the overtaker
    /// executes at all — no speculated updates could have polluted what
    /// it reads (§4.2.1). Otherwise (rare: coordinator change or a lost
    /// payload) everything speculated is rolled back, to be re-executed
    /// in the confirmed order. Returns the number of commands undone.
    fn resolve_overtaker(
        &mut self,
        id: MsgId,
        cmd: &StoredCommand<S::Command>,
        executes: bool,
    ) -> usize {
        let was_speculated = self.spec_executed.contains(&id);
        if self.spec_q.is_empty() && !was_speculated {
            return 0;
        }
        let conflict = was_speculated
            || ops_of(self.mask, cmd).any(S::is_update)
            || (executes && self.spec_q.iter().any(|s| s.updates > 0));
        if !conflict {
            return 0;
        }
        self.service.rollback(self.spec_q.iter().map(|s| s.updates).sum());
        let undone = self.spec_q.len();
        for s in self.spec_q.drain(..) {
            self.spec_executed.remove(&s.id);
        }
        self.spec_executed.remove(&id);
        undone
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
        /// core runs one command at a time, reads never overlap writes,
        /// writes keep delivery order, nothing starts before it arrives.
        /// On one core it is the single `charge_cpu` chain it replaced.
        #[test]
        fn schedule_serializes_conflicts_in_delivery_order(
            n_cores in 1..5usize,
            stream in prop::collection::vec((0..2u8, 1..400u64, 0..300u64), 1..200),
        ) {
            let cores: Vec<usize> = (1..=n_cores).collect();
            let mut sched = ExecSchedule::new(cores.clone());
            let (mut now, mut chain) = (Time::ZERO, Time::ZERO);
            // (write, slot) in delivery order.
            let mut booked: Vec<(bool, Slot)> = Vec::new();
            for (kind, cost, gap) in stream {
                let (write, cost) = (kind == 1, us(cost));
                now += us(gap);
                let slot = sched.book(write, cost, now);
                prop_assert!(slot.start >= now);
                prop_assert_eq!(slot.done, slot.start + cost);
                prop_assert!(cores.contains(&slot.core));
                if write {
                    prop_assert_eq!(slot.core, cores[0]);
                }
                chain = chain.max(now) + cost;
                if n_cores == 1 {
                    prop_assert_eq!(slot.done, chain);
                }
                for &(w, earlier) in &booked {
                    let disjoint = earlier.done <= slot.start || slot.done <= earlier.start;
                    if earlier.core == slot.core || w != write {
                        prop_assert!(disjoint, "{earlier:?} overlaps {slot:?}");
                    }
                    if w && write {
                        prop_assert!(earlier.done <= slot.start, "writes out of order");
                    }
                }
                booked.push((write, slot));
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

    fn executor(cores: &[usize]) -> Executor<TreeService> {
        Executor::new(TreeService::new(), cores.to_vec(), MASK, DISPATCH)
    }

    #[test]
    fn reads_wait_for_writes_and_writes_for_reads() {
        let mut ex = executor(&[1, 3]);
        let scan = cmd(&[TreeCommand::Query { lo: 0, hi: 999 }]);
        let put = cmd(&[TreeCommand::Insert { key: 5, value: 5 }]);
        let now = at(100);
        let r1 = ex.confirm(MsgId(1), &scan, true, now);
        let w = ex.confirm(MsgId(2), &put, true, now);
        let r2 = ex.confirm(MsgId(3), &scan, true, now);
        assert_eq!((r1.core, r1.done), (1, now + r1.cost));
        // The write runs on the writer core, after the first read ends.
        assert_eq!((w.core, w.done), (1, r1.done + w.cost));
        // The second read takes the idle reader core but starts at the
        // write's end, not at `now`.
        assert_eq!((r2.core, r2.done), (3, w.done + r2.cost));
    }

    #[test]
    fn independent_reads_run_side_by_side() {
        let mut ex = executor(&[1, 3]);
        let scan = cmd(&[TreeCommand::Query { lo: 0, hi: 999 }]);
        let now = at(100);
        let a = ex.confirm(MsgId(1), &scan, true, now);
        let b = ex.confirm(MsgId(2), &scan, true, now);
        let c = ex.confirm(MsgId(3), &scan, false, now);
        assert_eq!((a.core, a.done), (1, now + a.cost));
        assert_eq!((b.core, b.done), (3, now + b.cost));
        // Not executed here (another replica answers): whichever core
        // takes it off the queue pays the dispatch and drops it.
        assert_eq!((c.core, c.cost, c.done), (1, DISPATCH, a.done + DISPATCH));
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
        let sequential = |cmds: &[&StoredCommand<TreeCommand>]| {
            let mut svc = TreeService::new();
            for c in cmds {
                for (_, op) in &c.ops {
                    svc.apply(*op);
                }
            }
            svc.tree().range(0, u64::MAX)
        };

        let mut ex = executor(&[1]);
        let now = at(0);
        assert!(ex.speculate(MsgId(1), &a, true, now).is_some());
        assert!(ex.speculate(MsgId(2), &b, true, now).is_some());
        assert!(ex.speculate(MsgId(2), &b, true, now).is_none(), "speculated once");
        let ca = ex.confirm(MsgId(1), &a, true, now);
        assert_eq!((ca.cost, ca.rolled_back), (Dur::ZERO, 0));
        assert_eq!(ex.service().undo_depth(), 2, "B's records outlive A's commit");

        // X was never speculated here and updates B's key: B is undone.
        let cx = ex.confirm(MsgId(3), &x, true, now);
        assert_eq!(cx.rolled_back, 1);
        assert_eq!(ex.service().tree().range(0, u64::MAX), sequential(&[&a, &x]));
        assert_eq!(ex.service().undo_depth(), 0);

        // B is delivered after X and executes again, in order.
        let cb = ex.confirm(MsgId(2), &b, true, now);
        assert_eq!(cb.rolled_back, 0);
        assert!(cb.cost > Dur::ZERO);
        assert_eq!(ex.service().tree().range(0, u64::MAX), sequential(&[&a, &x, &b]));
    }
}
