//! The four execution models of the ch. 6 survey (§6.2) as virtual-time
//! engines: sequential SMR, pipelined SMR, sequential delivery–parallel
//! execution (SDPE), and P-SMR (parallel delivery–parallel execution).
//!
//! An engine turns "command delivered at virtual time *t*" into "response
//! ready at virtual time *t′*", tracking one clock per worker thread plus
//! the model's auxiliary stages. The engines are pure (no simulator
//! dependency): they return the CPU charges to apply, so the same logic
//! is unit-testable and drives the simulated replicas.
//!
//! # Model summaries (§6.2)
//!
//! * **Sequential SMR** — one thread delivers, executes, and responds;
//!   throughput caps at `1/(dispatch + cost + marshal)`.
//! * **Pipelined SMR** — delivery, execution, and response are separate
//!   pipeline stages; execution is still sequential, so the cap is
//!   `1/max(stage)` — better, but it does not scale with threads.
//! * **SDPE** — one scheduler thread delivers the totally-ordered stream,
//!   tracks command interdependencies, and dispatches independent
//!   commands to a pool of workers. Conflicting commands serialize; the
//!   scheduler itself caps throughput at `1/sched` (the bottleneck the
//!   chapter identifies).
//! * **P-SMR** — no scheduler: worker *i* delivers group *g_i* directly
//!   from Multi-Ring Paxos. Independent commands execute concurrently;
//!   a multi-group command executes once, when its last occurrence has
//!   been merged, with every involved worker held at the barrier
//!   (§6.3.3, Fig. 6.2's synchronized mode).
//! * **EV (execute-verify)** — batches execute optimistically with no
//!   conflict tracking at all; a verification step then checks whether
//!   conflicting commands actually raced. A clean batch commits after
//!   one verification exchange; a dirty one rolls back and re-executes
//!   sequentially (§6.2.5). Verification of one batch pipelines with
//!   the execution of the next.
//!
//! The ch. 4 replica's own executor (`hpsmr_core::exec`) is none of
//! these. Closest is SDPE, but it has no scheduler thread — workers pull
//! from the delivery queue themselves, so nothing caps it at `1/sched` —
//! and it tracks no per-domain dependencies: updates serialize against
//! everything, reads against updates only, and reads never against each
//! other.

use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use abcast::MsgId;
use simnet::time::{Dur, Time};

use crate::command::PStored;

/// Core index of the network-delivery thread (shared with the protocol).
pub const DELIVERY_CORE: usize = 0;
/// Core index of the scheduler (SDPE) / dispatch (pipelined) stage.
pub const SCHED_CORE: usize = 1;
/// First worker core; worker `w` runs on `WORKER_CORE_BASE + w`.
pub const WORKER_CORE_BASE: usize = 2;

/// Replica execution model (§6.2's survey axis).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecModel {
    /// Single-threaded delivery + execution + response (§6.2.2).
    Sequential,
    /// Staged delivery/execution/response pipeline (§6.2.3).
    Pipelined,
    /// Sequential delivery, scheduler-dispatched parallel execution
    /// (§6.2.4) with the given worker-pool size.
    Sdpe {
        /// Worker threads in the execution pool.
        workers: usize,
    },
    /// Parallel delivery–parallel execution on Multi-Ring Paxos (§6.3)
    /// with one worker (and one multicast group) per conflict domain.
    Psmr {
        /// Worker threads (= multicast groups = conflict domains).
        workers: usize,
    },
    /// Execute-verify (§6.2.5): optimistic batched parallel execution,
    /// a verification round per batch, and whole-batch rollback with
    /// sequential re-execution when conflicting commands raced.
    Ev {
        /// Worker threads executing optimistically.
        workers: usize,
        /// Commands per verification batch.
        batch: usize,
    },
}

impl ExecModel {
    /// Worker threads the model runs.
    pub fn workers(&self) -> usize {
        match *self {
            ExecModel::Sequential | ExecModel::Pipelined => 1,
            ExecModel::Sdpe { workers }
            | ExecModel::Psmr { workers }
            | ExecModel::Ev { workers, .. } => workers,
        }
    }

    /// Cores a replica node needs (delivery + sched + workers + response).
    pub fn cores_needed(&self) -> usize {
        WORKER_CORE_BASE + self.workers() + 1
    }

    /// Core of the response stage.
    pub fn resp_core(&self) -> usize {
        WORKER_CORE_BASE + self.workers()
    }

    /// Short label for experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            ExecModel::Sequential => "sequential",
            ExecModel::Pipelined => "pipelined",
            ExecModel::Sdpe { .. } => "SDPE",
            ExecModel::Psmr { .. } => "P-SMR",
            ExecModel::Ev { .. } => "EV",
        }
    }
}

/// Per-stage cost constants of the replica thread model.
#[derive(Clone, Copy, Debug)]
pub struct EngineCosts {
    /// Delivery-side per-command handling (dequeue, lookup).
    pub dispatch: Dur,
    /// SDPE scheduler work per command (dependency check + dispatch).
    pub sched: Dur,
    /// P-SMR barrier entry/exit overhead per dependent command.
    pub sync: Dur,
    /// Response marshalling per reply.
    pub marshal: Dur,
    /// EV: one verification exchange per batch (replica hash round).
    pub verify: Dur,
    /// EV: a partial batch commits after this long (keeps closed-loop
    /// clients from deadlocking on a batch that never fills).
    pub ev_flush: Dur,
}

impl Default for EngineCosts {
    fn default() -> Self {
        EngineCosts {
            dispatch: Dur::micros(2),
            sched: Dur::micros(30),
            sync: Dur::micros(10),
            marshal: Dur::micros(4),
            verify: Dur::micros(150),
            ev_flush: Dur::millis(1),
        }
    }
}

/// An execution scheduled by the engine.
#[derive(Clone, Debug)]
pub struct Scheduled {
    /// Virtual time at which the response is ready to leave the replica
    /// (execution plus response marshalling).
    pub done: Time,
    /// Virtual time at which the command's execution finished (before
    /// the response stage; conflict serialization is judged on this).
    pub exec_end: Time,
    /// CPU charges to book for utilization metrics: `(core, cost)`.
    pub charges: Vec<(usize, Dur)>,
    /// Worker that executed the command.
    pub worker: usize,
}

/// Commands released by one engine call: `(id, command, schedule)`.
/// Most models release at most the delivered command itself; EV releases
/// a whole batch when it commits.
pub type Deliveries = Vec<(MsgId, Rc<PStored>, Scheduled)>;

/// One EV command awaiting its batch's verification.
#[derive(Debug)]
struct EvCmd {
    id: MsgId,
    stored: Rc<PStored>,
    gmask: u32,
    cost: Dur,
    start: Time,
    end: Time,
    worker: usize,
}

/// Virtual-time execution engine for one replica.
#[derive(Debug)]
pub struct Engine {
    model: ExecModel,
    costs: EngineCosts,
    /// Completion clock per worker thread.
    clocks: Vec<Time>,
    /// SDPE scheduler / pipelined dispatch stage clock.
    sched_clock: Time,
    /// Pipelined / SDPE response stage clock.
    resp_clock: Time,
    /// SDPE: completion time of the last command per conflict domain.
    domain_done: HashMap<u8, Time>,
    /// P-SMR: group-occurrence bits seen per pending multi-group command.
    seen: HashMap<MsgId, u32>,
    /// Commands already executed (dedups client retries).
    executed: HashSet<MsgId>,
    /// Dependent commands executed (barrier count).
    dependent_execs: u64,
    /// EV: the open batch, its opening time, and its members.
    ev_batch: Vec<EvCmd>,
    ev_opened: Option<Time>,
    ev_pending: HashSet<MsgId>,
    /// EV: batches rolled back and re-executed sequentially.
    ev_rollbacks: u64,
}

impl Engine {
    /// Creates an engine for `model` with the given stage costs.
    pub fn new(model: ExecModel, costs: EngineCosts) -> Engine {
        Engine {
            model,
            costs,
            clocks: vec![Time::ZERO; model.workers()],
            sched_clock: Time::ZERO,
            resp_clock: Time::ZERO,
            domain_done: HashMap::new(),
            seen: HashMap::new(),
            executed: HashSet::new(),
            dependent_execs: 0,
            ev_batch: Vec::new(),
            ev_opened: None,
            ev_pending: HashSet::new(),
            ev_rollbacks: 0,
        }
    }

    /// The engine's model.
    pub fn model(&self) -> ExecModel {
        self.model
    }

    /// Dependent (multi-worker) commands executed so far.
    pub fn dependent_execs(&self) -> u64 {
        self.dependent_execs
    }

    /// Multi-group commands still waiting for occurrences (P-SMR).
    pub fn pending_barriers(&self) -> usize {
        self.seen.len()
    }

    /// Whether `id` has already executed (a re-delivery of such a
    /// command is a client retry whose response was probably lost).
    pub fn is_executed(&self, id: MsgId) -> bool {
        self.executed.contains(&id)
    }

    /// EV batches rolled back and re-executed sequentially.
    pub fn ev_rollbacks(&self) -> u64 {
        self.ev_rollbacks
    }

    /// When the engine needs a [`Engine::flush`] call (an EV batch that
    /// is open but not full commits at this deadline).
    pub fn deadline(&self) -> Option<Time> {
        match self.model {
            ExecModel::Ev { .. } => self.ev_opened.map(|t| t + self.costs.ev_flush),
            _ => None,
        }
    }

    /// Commits a partial EV batch whose flush deadline has passed.
    pub fn flush(&mut self, now: Time) -> Deliveries {
        if self.deadline().is_some_and(|d| d <= now) {
            self.commit_ev()
        } else {
            Vec::new()
        }
    }

    /// Feeds one delivered occurrence of command `id` to the engine.
    ///
    /// `ring` identifies the group whose stream delivered this occurrence
    /// (P-SMR); pass `None` for totally-ordered (single-ring) models.
    /// Returns the executions this delivery releases: one, for most
    /// models; none, while a P-SMR barrier awaits occurrences or an EV
    /// batch fills; a whole batch, when an EV batch commits. Duplicate
    /// deliveries of an executed command release nothing.
    pub fn deliver(
        &mut self,
        id: MsgId,
        stored: &Rc<PStored>,
        ring: Option<u8>,
        now: Time,
    ) -> Deliveries {
        if self.executed.contains(&id) {
            return Vec::new();
        }
        if let ExecModel::Ev { workers, batch } = self.model {
            return self.deliver_ev(id, stored, now, workers, batch);
        }
        let cost = stored.cmd.cost;
        let sched = match self.model {
            ExecModel::Ev { .. } => unreachable!("EV is dispatched above"),
            ExecModel::Sequential => {
                let total = self.costs.dispatch + cost + self.costs.marshal;
                let start = self.clocks[0].max(now);
                let done = start + total;
                self.clocks[0] = done;
                Scheduled {
                    done,
                    exec_end: start + self.costs.dispatch + cost,
                    charges: vec![(WORKER_CORE_BASE, total)],
                    worker: 0,
                }
            }
            ExecModel::Pipelined => {
                let d = self.sched_clock.max(now) + self.costs.dispatch;
                self.sched_clock = d;
                let e = self.clocks[0].max(d) + cost;
                self.clocks[0] = e;
                let m = self.resp_clock.max(e) + self.costs.marshal;
                self.resp_clock = m;
                Scheduled {
                    done: m,
                    exec_end: e,
                    charges: vec![
                        (SCHED_CORE, self.costs.dispatch),
                        (WORKER_CORE_BASE, cost),
                        (self.model.resp_core(), self.costs.marshal),
                    ],
                    worker: 0,
                }
            }
            ExecModel::Sdpe { .. } => {
                // Scheduler stage: dependency analysis is serial (§6.2.4).
                let s = self.sched_clock.max(now) + self.costs.sched;
                self.sched_clock = s;
                // Conflicting predecessors must finish first.
                let ready = stored
                    .cmd
                    .groups
                    .iter()
                    .filter_map(|g| self.domain_done.get(g))
                    .copied()
                    .fold(s, Time::max);
                // Dispatch to the least-loaded worker.
                let (w, &wclock) = self
                    .clocks
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &c)| c)
                    .expect("at least one worker");
                let start = ready.max(wclock);
                let e = start + cost;
                self.clocks[w] = e;
                for &g in &stored.cmd.groups {
                    self.domain_done.insert(g, e);
                }
                if stored.cmd.is_dependent() {
                    self.dependent_execs += 1;
                }
                let m = self.resp_clock.max(e) + self.costs.marshal;
                self.resp_clock = m;
                Scheduled {
                    done: m,
                    exec_end: e,
                    charges: vec![
                        (SCHED_CORE, self.costs.sched),
                        (WORKER_CORE_BASE + w, cost),
                        (self.model.resp_core(), self.costs.marshal),
                    ],
                    worker: w,
                }
            }
            ExecModel::Psmr { workers } => {
                let gmask = stored.cmd.group_mask();
                let bits = self.seen.entry(id).or_insert(0);
                match ring {
                    Some(g) => *bits |= 1 << g,
                    // No ring tag (tests, retries re-injected whole):
                    // treat as all occurrences present.
                    None => *bits = gmask,
                }
                if *bits & gmask != gmask {
                    return Vec::new(); // barrier: occurrences still missing
                }
                self.seen.remove(&id);
                let involved: Vec<usize> = stored
                    .cmd
                    .groups
                    .iter()
                    .map(|&g| g as usize)
                    .filter(|&g| g < workers)
                    .collect();
                debug_assert!(!involved.is_empty(), "command maps to no worker");
                // Barrier: the executing worker starts once every
                // involved worker has reached the command (§6.3.3).
                let mut start = now;
                for &w in &involved {
                    start = start.max(self.clocks[w]);
                }
                if involved.len() > 1 {
                    start += self.costs.sync;
                    self.dependent_execs += 1;
                }
                let e = start + self.costs.dispatch + cost;
                let exec = involved[0];
                for &w in &involved {
                    self.clocks[w] = e;
                }
                // The executing worker also marshals its own response —
                // there is no shared response stage to bottleneck on.
                let m = e + self.costs.marshal;
                self.clocks[exec] = m;
                Scheduled {
                    done: m,
                    exec_end: e,
                    charges: vec![(
                        WORKER_CORE_BASE + exec,
                        self.costs.dispatch + cost + self.costs.marshal,
                    )],
                    worker: exec,
                }
            }
        };
        self.executed.insert(id);
        vec![(id, stored.clone(), sched)]
    }

    /// EV optimistic enqueue. The *mixer* (Eve's batch-formation stage)
    /// routes single-domain commands to a per-domain worker so they
    /// serialize instead of racing; only multi-domain commands — whose
    /// conflicts the mixer cannot fully contain — go to the least-loaded
    /// worker and may trigger a verification failure.
    fn deliver_ev(
        &mut self,
        id: MsgId,
        stored: &Rc<PStored>,
        now: Time,
        workers: usize,
        batch: usize,
    ) -> Deliveries {
        if !self.ev_pending.insert(id) {
            return Vec::new(); // already enqueued in the open batch
        }
        let w = if stored.cmd.groups.len() == 1 {
            stored.cmd.groups[0] as usize % workers
        } else {
            self.clocks
                .iter()
                .enumerate()
                .min_by_key(|&(_, &c)| c)
                .map(|(i, _)| i)
                .expect("workers")
        };
        let wclock = self.clocks[w];
        let start = wclock.max(now);
        let end = start + stored.cmd.cost;
        self.clocks[w] = end;
        if stored.cmd.is_dependent() {
            self.dependent_execs += 1;
        }
        if self.ev_opened.is_none() {
            self.ev_opened = Some(now);
        }
        self.ev_batch.push(EvCmd {
            id,
            stored: stored.clone(),
            gmask: stored.cmd.group_mask(),
            cost: stored.cmd.cost,
            start,
            end,
            worker: w,
        });
        if self.ev_batch.len() >= batch {
            self.commit_ev()
        } else {
            Vec::new()
        }
    }

    /// EV batch verification: a clean batch commits behind one
    /// verification exchange (pipelined with the next batch's
    /// execution); a raced batch rolls back and re-executes
    /// sequentially, stalling every worker.
    fn commit_ev(&mut self) -> Deliveries {
        let batch = std::mem::take(&mut self.ev_batch);
        self.ev_opened = None;
        if batch.is_empty() {
            return Vec::new();
        }
        let raced = batch.iter().enumerate().any(|(i, a)| {
            batch[i + 1..]
                .iter()
                .any(|b| a.gmask & b.gmask != 0 && a.start < b.end && b.start < a.end)
        });
        let base = batch.iter().map(|c| c.end).fold(Time::ZERO, Time::max);
        let mut out = Vec::with_capacity(batch.len());
        if raced {
            self.ev_rollbacks += 1;
            // The optimistic work is wasted: re-execute everything in
            // delivery order on worker 0.
            let serial_total = batch.iter().fold(Dur::ZERO, |a, c| a + c.cost);
            let serial_end = base + serial_total;
            let vend = serial_end + self.costs.verify;
            for (i, c) in batch.iter().enumerate() {
                let m = self.resp_clock.max(vend) + self.costs.marshal;
                self.resp_clock = m;
                self.executed.insert(c.id);
                self.ev_pending.remove(&c.id);
                let mut charges = vec![(WORKER_CORE_BASE + c.worker, c.cost)];
                if i == 0 {
                    charges.push((WORKER_CORE_BASE, serial_total));
                    charges.push((SCHED_CORE, self.costs.verify));
                }
                let sched = Scheduled { done: m, exec_end: serial_end, charges, worker: 0 };
                out.push((c.id, c.stored.clone(), sched));
            }
            // Batch barrier: every worker waits out the serial pass.
            for cl in self.clocks.iter_mut() {
                *cl = (*cl).max(serial_end);
            }
        } else {
            let vend = base + self.costs.verify;
            for (i, c) in batch.iter().enumerate() {
                let m = self.resp_clock.max(vend) + self.costs.marshal;
                self.resp_clock = m;
                self.executed.insert(c.id);
                self.ev_pending.remove(&c.id);
                let mut charges = vec![(WORKER_CORE_BASE + c.worker, c.cost)];
                if i == 0 {
                    charges.push((SCHED_CORE, self.costs.verify));
                }
                let sched = Scheduled { done: m, exec_end: c.end, charges, worker: c.worker };
                out.push((c.id, c.stored.clone(), sched));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use simnet::ids::NodeId;

    use super::*;
    use crate::command::PCommand;

    fn cost() -> Dur {
        Dur::micros(100)
    }

    fn stored(groups: &[u8]) -> Rc<PStored> {
        Rc::new(PStored {
            cmd: PCommand {
                groups: groups.to_vec(),
                writes: groups.iter().map(|&g| (g as u64, 1)).collect(),
                cost: cost(),
            },
            client: NodeId(0),
            reply_bytes: 64,
        })
    }

    fn costs() -> EngineCosts {
        EngineCosts {
            dispatch: Dur::micros(2),
            sched: Dur::micros(30),
            sync: Dur::micros(10),
            marshal: Dur::micros(4),
            ..EngineCosts::default()
        }
    }

    /// Unwraps the single execution a non-batching delivery releases.
    fn one(d: Deliveries) -> Scheduled {
        assert_eq!(d.len(), 1, "expected exactly one released execution");
        d.into_iter().next().expect("checked").2
    }

    #[test]
    fn sequential_serializes_everything() {
        let mut e = Engine::new(ExecModel::Sequential, costs());
        let a = one(e.deliver(MsgId(1), &stored(&[0]), None, Time::ZERO));
        let b = one(e.deliver(MsgId(2), &stored(&[0]), None, Time::ZERO));
        let per = Dur::micros(2 + 100 + 4);
        assert_eq!(a.done, Time::ZERO + per);
        assert_eq!(b.done, Time::ZERO + per + per);
    }

    #[test]
    fn pipelined_spacing_is_the_slowest_stage() {
        let mut e = Engine::new(ExecModel::Pipelined, costs());
        let mut last = Time::ZERO;
        let mut gaps = Vec::new();
        for i in 0..4 {
            let s = one(e.deliver(MsgId(i), &stored(&[0]), None, Time::ZERO));
            if i > 0 {
                gaps.push(s.done.saturating_since(last));
            }
            last = s.done;
        }
        // Steady state: one command per execution-stage slot.
        for g in gaps {
            assert_eq!(g, cost());
        }
    }

    #[test]
    fn pipelined_beats_sequential() {
        let (mut p, mut s) = (
            Engine::new(ExecModel::Pipelined, costs()),
            Engine::new(ExecModel::Sequential, costs()),
        );
        let n = 50;
        let (mut pd, mut sd) = (Time::ZERO, Time::ZERO);
        for i in 0..n {
            pd = one(p.deliver(MsgId(i), &stored(&[0]), None, Time::ZERO)).done;
            sd = one(s.deliver(MsgId(i), &stored(&[0]), None, Time::ZERO)).done;
        }
        assert!(pd < sd, "pipeline {pd:?} should finish before sequential {sd:?}");
    }

    #[test]
    fn sdpe_parallelizes_independent_commands() {
        let mut e = Engine::new(ExecModel::Sdpe { workers: 2 }, costs());
        let a = one(e.deliver(MsgId(1), &stored(&[0]), None, Time::ZERO));
        let b = one(e.deliver(MsgId(2), &stored(&[1]), None, Time::ZERO));
        assert_ne!(a.worker, b.worker);
        // Both executions overlap: second ends one sched-slot later, not
        // one execution later.
        assert!(b.done.saturating_since(a.done) < cost());
    }

    #[test]
    fn sdpe_serializes_conflicting_commands() {
        let mut e = Engine::new(ExecModel::Sdpe { workers: 4 }, costs());
        let a = one(e.deliver(MsgId(1), &stored(&[2]), None, Time::ZERO));
        let b = one(e.deliver(MsgId(2), &stored(&[2]), None, Time::ZERO));
        assert!(b.done.saturating_since(a.done) >= cost(), "same-domain commands must serialize");
    }

    #[test]
    fn sdpe_scheduler_is_the_cap() {
        // With plenty of workers and all-independent commands, spacing
        // converges to the scheduler cost.
        let mut e = Engine::new(ExecModel::Sdpe { workers: 16 }, costs());
        let mut last = Time::ZERO;
        let mut gap = Dur::ZERO;
        for i in 0..32 {
            let s = one(e.deliver(MsgId(i), &stored(&[(i % 16) as u8]), None, Time::ZERO));
            gap = s.done.saturating_since(last);
            last = s.done;
        }
        assert_eq!(gap, Dur::micros(30));
    }

    #[test]
    fn psmr_independent_groups_run_fully_parallel() {
        let mut e = Engine::new(ExecModel::Psmr { workers: 2 }, costs());
        let a = one(e.deliver(MsgId(1), &stored(&[0]), Some(0), Time::ZERO));
        let b = one(e.deliver(MsgId(2), &stored(&[1]), Some(1), Time::ZERO));
        assert_eq!(a.done, b.done, "different workers execute concurrently");
    }

    #[test]
    fn psmr_multi_group_waits_for_all_occurrences() {
        let mut e = Engine::new(ExecModel::Psmr { workers: 2 }, costs());
        let dep = stored(&[0, 1]);
        assert!(e.deliver(MsgId(5), &dep, Some(0), Time::ZERO).is_empty());
        assert_eq!(e.pending_barriers(), 1);
        let s = one(e.deliver(MsgId(5), &dep, Some(1), Time::ZERO + Dur::micros(50)));
        assert_eq!(e.pending_barriers(), 0);
        assert_eq!(e.dependent_execs(), 1);
        // Started at the merge of the second occurrence plus sync.
        assert_eq!(s.done, Time::ZERO + Dur::micros(50 + 10 + 2 + 100 + 4));
    }

    #[test]
    fn psmr_barrier_blocks_both_workers() {
        let mut e = Engine::new(ExecModel::Psmr { workers: 2 }, costs());
        // Occupy worker 1 until t=106us.
        let w1 = one(e.deliver(MsgId(1), &stored(&[1]), Some(1), Time::ZERO));
        // Dependent command: worker 0 idle, worker 1 busy.
        let dep = stored(&[0, 1]);
        e.deliver(MsgId(2), &dep, Some(0), Time::ZERO);
        let s = one(e.deliver(MsgId(2), &dep, Some(1), Time::ZERO));
        // Barrier start = worker 1's clock (the later one).
        assert!(s.done > w1.done + cost());
        // Worker 0 is held too: its next command starts after the barrier.
        let nxt = one(e.deliver(MsgId(3), &stored(&[0]), Some(0), Time::ZERO));
        assert!(nxt.done > s.done);
    }

    #[test]
    fn psmr_duplicate_occurrence_does_not_fire_early() {
        let mut e = Engine::new(ExecModel::Psmr { workers: 2 }, costs());
        let dep = stored(&[0, 1]);
        assert!(e.deliver(MsgId(9), &dep, Some(0), Time::ZERO).is_empty());
        assert!(e.deliver(MsgId(9), &dep, Some(0), Time::ZERO).is_empty(), "retry, same ring");
        assert!(!e.deliver(MsgId(9), &dep, Some(1), Time::ZERO).is_empty());
    }

    #[test]
    fn executed_commands_are_deduplicated() {
        for model in [
            ExecModel::Sequential,
            ExecModel::Pipelined,
            ExecModel::Sdpe { workers: 2 },
            ExecModel::Psmr { workers: 2 },
        ] {
            let mut e = Engine::new(model, costs());
            assert!(!e.deliver(MsgId(1), &stored(&[0]), Some(0), Time::ZERO).is_empty());
            assert!(
                e.deliver(MsgId(1), &stored(&[0]), Some(0), Time::ZERO).is_empty(),
                "{model:?} must dedup re-deliveries"
            );
        }
    }

    #[test]
    fn ev_commits_a_clean_batch_after_verification() {
        let mut e = Engine::new(ExecModel::Ev { workers: 2, batch: 2 }, costs());
        assert!(e.deliver(MsgId(1), &stored(&[0]), None, Time::ZERO).is_empty());
        assert!(e.deadline().is_some(), "open batch must have a flush deadline");
        let out = e.deliver(MsgId(2), &stored(&[1]), None, Time::ZERO);
        assert_eq!(out.len(), 2, "full batch commits both commands");
        assert_eq!(e.ev_rollbacks(), 0);
        assert!(e.deadline().is_none(), "committed batch clears the deadline");
        // Both executed optimistically in parallel; responses released
        // after one verification exchange.
        let verify = Dur::micros(150);
        assert!(out[0].2.done >= Time::ZERO + cost() + verify);
        assert_ne!(out[0].2.worker, out[1].2.worker);
    }

    #[test]
    fn ev_racing_conflict_rolls_back_the_batch() {
        let mut e = Engine::new(ExecModel::Ev { workers: 2, batch: 2 }, costs());
        // Two multi-domain commands sharing domain 1 land on different
        // workers (the mixer cannot contain them) and overlap: a race.
        e.deliver(MsgId(1), &stored(&[0, 1]), None, Time::ZERO);
        let out = e.deliver(MsgId(2), &stored(&[1, 2]), None, Time::ZERO);
        assert_eq!(out.len(), 2);
        assert_eq!(e.ev_rollbacks(), 1, "racing batch must roll back");
        // Serial re-execution: both cost units after the optimistic pass.
        let serial_end = Time::ZERO + cost() + cost() + cost();
        assert!(out[1].2.exec_end >= serial_end);
    }

    #[test]
    fn ev_mixer_serializes_same_domain_commands() {
        // The mixer routes same-domain commands to the same worker:
        // they serialize instead of racing — no rollback.
        let mut e = Engine::new(ExecModel::Ev { workers: 2, batch: 2 }, costs());
        e.deliver(MsgId(1), &stored(&[0]), None, Time::ZERO);
        let out = e.deliver(MsgId(2), &stored(&[0]), None, Time::ZERO);
        assert_eq!(out.len(), 2);
        assert_eq!(e.ev_rollbacks(), 0, "mixer must prevent same-domain races");
        assert_eq!(out[0].2.worker, out[1].2.worker);
    }

    #[test]
    fn ev_flush_commits_a_partial_batch() {
        let mut e = Engine::new(ExecModel::Ev { workers: 2, batch: 100 }, costs());
        e.deliver(MsgId(1), &stored(&[0]), None, Time::ZERO);
        let dl = e.deadline().expect("deadline armed");
        assert_eq!(dl, Time::ZERO + Dur::millis(1));
        assert!(e.flush(Time::ZERO + Dur::micros(500)).is_empty(), "too early to flush");
        let out = e.flush(dl);
        assert_eq!(out.len(), 1, "deadline flush commits the partial batch");
        assert!(e.deadline().is_none());
    }

    #[test]
    fn ev_dedups_pending_and_committed_commands() {
        let mut e = Engine::new(ExecModel::Ev { workers: 2, batch: 2 }, costs());
        e.deliver(MsgId(1), &stored(&[0]), None, Time::ZERO);
        assert!(e.deliver(MsgId(1), &stored(&[0]), None, Time::ZERO).is_empty(), "pending dup");
        let out = e.deliver(MsgId(2), &stored(&[1]), None, Time::ZERO);
        assert_eq!(out.len(), 2, "dup must not occupy a batch slot twice");
        assert!(e.is_executed(MsgId(1)));
        assert!(e.deliver(MsgId(1), &stored(&[0]), None, Time::ZERO).is_empty(), "committed dup");
    }

    #[test]
    fn model_geometry() {
        assert_eq!(ExecModel::Sequential.workers(), 1);
        assert_eq!(ExecModel::Psmr { workers: 8 }.workers(), 8);
        assert_eq!(ExecModel::Sdpe { workers: 4 }.cores_needed(), 7);
        assert_eq!(ExecModel::Pipelined.resp_core(), 3);
        assert_eq!(ExecModel::Psmr { workers: 2 }.label(), "P-SMR");
        assert_eq!(ExecModel::Ev { workers: 4, batch: 50 }.workers(), 4);
        assert_eq!(ExecModel::Ev { workers: 4, batch: 50 }.label(), "EV");
    }
}
