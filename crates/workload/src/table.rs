//! The session-table actor: one [`Actor`] multiplexing N client
//! sessions, built for million-session runs.
//!
//! One actor per simulated client costs an arena slot, an RNG stream,
//! and a timer chain per session — fine for the paper's 20–200 clients,
//! prohibitive for "millions of users". The table hosts the whole
//! population in one actor:
//!
//! * **In-flight slab** — outstanding requests live in a free-listed
//!   slab; the request id encodes the node, the slot and the slot's
//!   generation, so a response (or a stale wheel entry) is validated in
//!   O(1) by re-encoding the slot's current generation. Idle sessions
//!   cost nothing.
//! * **Timer-wheel deadlines** — every request deadline goes on a
//!   [`TimerWheel`] keyed by slot+generation; one periodic sim timer
//!   ([`RetryPolicy::tick`]) drains it. Deadlines moved by a resubmit
//!   are cancelled lazily: the superseded entry fires, fails the
//!   deadline check, and is dropped.
//! * **Arrivals** ([`Arrival`]) — open loop: a single Poisson stream
//!   at N×(per-session rate), with the issuing session picked uniformly
//!   per arrival (superposition makes this exactly equivalent to N
//!   independent per-session streams). Closed loop: each session holds
//!   one request and issues its next when the reply comes or the
//!   request is abandoned, with no draw and no timer per arrival.
//! * **Per-session latency** — completion latencies go to the
//!   [`crate::SESSION_LATENCY`] histogram; report p50/p99/p999 with
//!   `Metrics::percentile`.
//!
//! The table is service-agnostic: a [`SessionDriver`] supplies the
//! service-specific build/send/match logic (`core`'s tree driver,
//! `psmr`'s group-mapping driver).

use rand::Rng;
use simnet::prelude::*;
use simnet::wheel::TimerWheel;

use crate::arrival::Arrival;
use crate::session::RetryPolicy;
use crate::{
    SESSIONS_ABANDONED, SESSIONS_ARRIVAL_US, SESSIONS_COMPLETED, SESSIONS_RETRIES, SESSIONS_SHED,
    SESSIONS_SUBMITTED, SESSION_ARRIVAL_GAP, SESSION_LATENCY,
};
use abcast::MsgId;

const T_TABLE_TICK: u64 = 50 << 56;
const T_TABLE_ARRIVAL: u64 = 51 << 56;

/// Bits of an open-loop request id holding the slab slot.
const SLOT_BITS: u32 = 24;
/// Bits of an open-loop request id holding the slot generation
/// (stale-response rejection).
const GEN_BITS: u32 = 16;
/// Low bits of every request id: its wheel key. The node id sits above.
const KEY_BITS: u32 = SLOT_BITS + GEN_BITS;

/// Service-specific half of a session table. Implementations own the
/// command generator and whatever per-request bookkeeping the service
/// needs (command registry entries, expected-reply counts, …).
pub trait SessionDriver: Send {
    /// Builds, registers, and sends one fresh request under `id`. Draw
    /// randomness from `ctx.rng()` so runs stay deterministic.
    fn submit(&mut self, id: MsgId, ctx: &mut Ctx);

    /// Re-sends request `id` after a blown deadline; `attempt` counts
    /// resubmissions (1-based). Drivers with a leader rotate their
    /// submission target here (see [`crate::session::Rotation`]).
    fn resubmit(&mut self, id: MsgId, attempt: u32, ctx: &mut Ctx);

    /// Inspects a delivery and returns the request id it completes, if
    /// any (drivers counting per-partition replies return `Some` only
    /// on the last one).
    fn on_response(&mut self, env: &Envelope, ctx: &mut Ctx) -> Option<MsgId>;

    /// Drops per-request state for `id` (completed or abandoned).
    fn finish(&mut self, id: MsgId);
}

/// Configuration of a [`SessionTable`].
#[derive(Clone, Debug)]
pub struct SessionTableConfig {
    /// Simulated sessions hosted by this table.
    pub sessions: u64,
    /// When the sessions issue requests: open or closed loop.
    pub arrival: Arrival,
    /// Retry/backoff knobs shared by every session.
    pub policy: RetryPolicy,
    /// In-flight ceiling; open-loop arrivals beyond it are shed (and
    /// counted under [`SESSIONS_SHED`]) rather than queued, as an open
    /// loop must. A closed loop must fit every session under it. Capped
    /// at the id encoding's 2^24 slots.
    pub max_in_flight: u32,
    /// Stop issuing new requests at this instant.
    pub stop_at: Option<Time>,
}

/// One in-flight request's slab slot.
#[derive(Clone, Copy, Debug)]
struct Slot {
    /// Bumped on free; stale responses and wheel entries miss it.
    gen: u64,
    busy: bool,
    started: Time,
    attempts: u32,
    deadline: Time,
}

/// The session-table actor (module docs).
pub struct SessionTable<D> {
    me: NodeId,
    cfg: SessionTableConfig,
    driver: D,
    slots: Vec<Slot>,
    free: Vec<u32>,
    wheel: TimerWheel,
    /// Due wheel keys, drained on the tick (buffer reused across ticks).
    due: Vec<u64>,
}

impl<D: SessionDriver> SessionTable<D> {
    /// Creates a table at node `me` over `driver`.
    ///
    /// # Panics
    /// Panics if the config names zero sessions or more than `u32::MAX`,
    /// or a closed loop of more sessions than `max_in_flight`.
    pub fn new(me: NodeId, mut cfg: SessionTableConfig, driver: D) -> SessionTable<D> {
        assert!(cfg.sessions > 0 && cfg.sessions <= u32::MAX as u64, "1..=u32::MAX sessions");
        cfg.max_in_flight = cfg.max_in_flight.clamp(1, 1 << SLOT_BITS);
        assert!(
            matches!(cfg.arrival, Arrival::Poisson(_)) || cfg.sessions <= cfg.max_in_flight as u64,
            "a closed loop holds one request per session: max_in_flight must cover them all"
        );
        let wheel = TimerWheel::new(cfg.policy.tick, 256);
        SessionTable {
            me,
            cfg,
            driver,
            slots: Vec::new(),
            free: Vec::new(),
            wheel,
            due: Vec::new(),
        }
    }

    /// The driver (final-state inspection in tests/experiments).
    pub fn driver(&self) -> &D {
        &self.driver
    }

    /// The low [`KEY_BITS`] of a request id: its wheel key. An open
    /// loop puts the slot below [`GEN_BITS`] of its generation, so an id
    /// comes back after 2^16 requests in one slot. A closed loop must
    /// never repeat an id within a run — a service that dedups by id
    /// would answer a repeat without applying it — and its sessions keep
    /// slots `0..sessions`, so its key is `gen * sessions + slot`: a
    /// session's ids are distinct for 2^40 / `sessions` requests, and
    /// with one session they step by one per request, as a client
    /// numbering its own requests would (a service that picks the
    /// replica to answer by `id % replicas` spreads the answers).
    ///
    /// # Panics
    /// Panics if a closed-loop key outgrows [`KEY_BITS`].
    fn key(&self, slot: u32, gen: u64) -> u64 {
        debug_assert!(slot < (1 << SLOT_BITS));
        match self.cfg.arrival {
            Arrival::Poisson(_) => ((gen & ((1 << GEN_BITS) - 1)) << SLOT_BITS) | slot as u64,
            Arrival::Closed => {
                let key = gen * self.cfg.sessions + slot as u64;
                assert!(key < 1 << KEY_BITS, "closed-loop request ids exhausted");
                key
            }
        }
    }

    /// The slot of a wheel key (its generation is checked by re-encoding).
    fn slot_of(&self, key: u64) -> u32 {
        match self.cfg.arrival {
            Arrival::Poisson(_) => (key & ((1 << SLOT_BITS) - 1)) as u32,
            Arrival::Closed => (key % self.cfg.sessions) as u32,
        }
    }

    fn encode(&self, slot: u32, gen: u64) -> MsgId {
        MsgId(((self.me.0 as u64) << KEY_BITS) | self.key(slot, gen))
    }

    /// The busy slot whose current request is `id`, if any: a stale
    /// response (its slot freed or reused) finds none.
    fn live_slot(&self, id: MsgId) -> Option<u32> {
        if id.0 >> KEY_BITS != self.me.0 as u64 {
            return None;
        }
        let slot_idx = self.slot_of(id.0 & ((1 << KEY_BITS) - 1));
        let s = self.slots.get(slot_idx as usize)?;
        (s.busy && self.encode(slot_idx, s.gen) == id).then_some(slot_idx)
    }

    fn stopped(&self, now: Time) -> bool {
        self.cfg.stop_at.is_some_and(|t| now >= t)
    }

    /// Opens a slab slot and submits one request, or sheds the arrival
    /// when the slab is full.
    fn start_request(&mut self, ctx: &mut Ctx) {
        let slot_idx = match self.free.pop() {
            Some(i) => i,
            None if (self.slots.len() as u32) < self.cfg.max_in_flight => {
                self.slots.push(Slot {
                    gen: 0,
                    busy: false,
                    started: Time::ZERO,
                    attempts: 0,
                    deadline: Time::ZERO,
                });
                self.slots.len() as u32 - 1
            }
            None => {
                ctx.counter_add(SESSIONS_SHED, 1);
                return;
            }
        };
        let now = ctx.now();
        let deadline = now + self.cfg.policy.backoff(0);
        let gen = {
            let s = &mut self.slots[slot_idx as usize];
            debug_assert!(!s.busy);
            *s = Slot { gen: s.gen, busy: true, started: now, attempts: 0, deadline };
            s.gen
        };
        let id = self.encode(slot_idx, gen);
        self.wheel.schedule(deadline, self.key(slot_idx, gen));
        self.driver.submit(id, ctx);
        ctx.counter_add(SESSIONS_SUBMITTED, 1);
        ctx.counter_add(SESSIONS_ARRIVAL_US, now.as_nanos() / 1_000);
    }

    fn free_slot(&mut self, slot_idx: u32) {
        let s = &mut self.slots[slot_idx as usize];
        s.busy = false;
        s.gen += 1;
        self.free.push(slot_idx);
    }

    /// One open-loop arrival: a uniformly picked session issues a
    /// request (superposition of per-session Poisson streams). Sessions
    /// hold no state, but the pick is a draw a seed's trace depends on.
    fn arrive(&mut self, ctx: &mut Ctx) {
        let _session = ctx.rng().gen_range(0..self.cfg.sessions);
        self.start_request(ctx);
    }

    fn arm_arrival(&mut self, ctx: &mut Ctx) {
        let Arrival::Poisson(process) = self.cfg.arrival else { return };
        if self.stopped(ctx.now()) {
            return;
        }
        let gap = process.next_gap(ctx.rng());
        ctx.record_latency(SESSION_ARRIVAL_GAP, gap);
        ctx.set_timer(gap, TimerToken(T_TABLE_ARRIVAL));
    }

    /// Frees a finished request's slot; in a closed loop its session
    /// issues its next request at once.
    fn close_request(&mut self, slot_idx: u32, ctx: &mut Ctx) {
        self.free_slot(slot_idx);
        if matches!(self.cfg.arrival, Arrival::Closed) && !self.stopped(ctx.now()) {
            self.start_request(ctx);
        }
    }

    /// Drains the deadline wheel, polling every fired session that is
    /// still on its recorded deadline.
    fn tick(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        self.due.clear();
        let due = &mut self.due;
        self.wheel.advance(now, |key| due.push(key));
        for i in 0..self.due.len() {
            let key = self.due[i];
            let slot_idx = self.slot_of(key);
            let s = self.slots[slot_idx as usize];
            // Lazy cancellation: the slot was freed/reused, or its
            // deadline moved and a newer wheel entry covers it.
            if !s.busy || self.key(slot_idx, s.gen) != key || now < s.deadline {
                continue;
            }
            let id = self.encode(slot_idx, s.gen);
            if s.attempts >= self.cfg.policy.max_attempts {
                ctx.counter_add(SESSIONS_ABANDONED, 1);
                self.driver.finish(id);
                self.close_request(slot_idx, ctx);
                continue;
            }
            let attempt = s.attempts + 1;
            let deadline = now + self.cfg.policy.backoff(attempt);
            {
                let s = &mut self.slots[slot_idx as usize];
                s.attempts = attempt;
                s.deadline = deadline;
            }
            self.wheel.schedule(deadline, key);
            ctx.counter_add(SESSIONS_RETRIES, 1);
            self.driver.resubmit(id, attempt, ctx);
        }
    }
}

impl<D: SessionDriver + 'static> Actor for SessionTable<D> {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(self.cfg.policy.tick, TimerToken(T_TABLE_TICK));
        match self.cfg.arrival {
            Arrival::Poisson(_) => {
                self.arrive(ctx);
                self.arm_arrival(ctx);
            }
            Arrival::Closed if !self.stopped(ctx.now()) => {
                for _ in 0..self.cfg.sessions {
                    self.start_request(ctx);
                }
            }
            Arrival::Closed => {}
        }
    }

    fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
        let Some(id) = self.driver.on_response(env, ctx) else { return };
        // A stale response of a freed request finds no live slot.
        let Some(slot_idx) = self.live_slot(id) else { return };
        let started = self.slots[slot_idx as usize].started;
        ctx.record_latency(SESSION_LATENCY, ctx.now().since(started));
        ctx.counter_add(SESSIONS_COMPLETED, 1);
        self.driver.finish(id);
        self.close_request(slot_idx, ctx);
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
        match token.0 {
            T_TABLE_ARRIVAL => {
                if !self.stopped(ctx.now()) {
                    self.arrive(ctx);
                }
                self.arm_arrival(ctx);
            }
            _ => {
                self.tick(ctx);
                ctx.set_timer(self.cfg.policy.tick, TimerToken(T_TABLE_TICK));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::{Arc, Mutex};

    struct Req(MsgId);
    struct Rep(MsgId);

    /// What the stub driver saw: every send with its attempt (0 = the
    /// first), every reply's arrival, the requests open now and at
    /// most, and every finish.
    #[derive(Default)]
    struct Log {
        sent: Vec<(Time, MsgId, u32)>,
        replies: Vec<Time>,
        open: HashSet<MsgId>,
        max_open: usize,
        finished: Vec<MsgId>,
    }

    /// A driver that sends `Req(id)` to one server and takes any
    /// `Rep(id)` as the answer, so the table alone decides what is stale.
    struct Stub {
        server: NodeId,
        log: Arc<Mutex<Log>>,
    }

    impl SessionDriver for Stub {
        fn submit(&mut self, id: MsgId, ctx: &mut Ctx) {
            let mut log = self.log.lock().unwrap();
            log.sent.push((ctx.now(), id, 0));
            assert!(log.open.insert(id), "{id:?} submitted twice");
            log.max_open = log.max_open.max(log.open.len());
            ctx.udp_send(self.server, Req(id), 64);
        }

        fn resubmit(&mut self, id: MsgId, attempt: u32, ctx: &mut Ctx) {
            self.log.lock().unwrap().sent.push((ctx.now(), id, attempt));
            ctx.udp_send(self.server, Req(id), 64);
        }

        fn on_response(&mut self, env: &Envelope, ctx: &mut Ctx) -> Option<MsgId> {
            self.log.lock().unwrap().replies.push(ctx.now());
            env.payload.downcast_ref::<Rep>().map(|r| r.0)
        }

        fn finish(&mut self, id: MsgId) {
            let mut log = self.log.lock().unwrap();
            log.open.remove(&id);
            log.finished.push(id);
        }
    }

    /// Answers each request copy `copies` times (0: never).
    struct Server {
        copies: usize,
    }

    impl Actor for Server {
        fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
            if let Some(&Req(id)) = env.payload.downcast_ref::<Req>() {
                for _ in 0..self.copies {
                    ctx.udp_send(env.src, Rep(id), 64);
                }
            }
        }
    }

    /// Answers only the second copy of each request.
    #[derive(Default)]
    struct SecondCopy {
        seen: HashSet<MsgId>,
    }

    impl Actor for SecondCopy {
        fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
            if let Some(&Req(id)) = env.payload.downcast_ref::<Req>() {
                if !self.seen.insert(id) {
                    ctx.udp_send(env.src, Rep(id), 64);
                }
            }
        }
    }

    /// A closed-loop table of `sessions` over a server answering each
    /// request `copies` times, run to `until`.
    fn closed_loop(
        sessions: u64,
        copies: usize,
        policy: RetryPolicy,
        stop_at: Option<Time>,
        until: Time,
    ) -> (Sim, NodeId, Arc<Mutex<Log>>) {
        closed_loop_at(Box::new(Server { copies }), sessions, policy, stop_at, until)
    }

    /// A closed-loop table of `sessions` over `server`, run to `until`.
    fn closed_loop_at(
        server: Box<dyn Actor>,
        sessions: u64,
        policy: RetryPolicy,
        stop_at: Option<Time>,
        until: Time,
    ) -> (Sim, NodeId, Arc<Mutex<Log>>) {
        let mut sim = Sim::new(SimConfig::default());
        let server = sim.add_node(server);
        let table = sim.add_node(Box::new(Idle));
        let log = Arc::new(Mutex::new(Log::default()));
        let cfg = SessionTableConfig {
            sessions,
            arrival: Arrival::Closed,
            policy,
            max_in_flight: sessions as u32,
            stop_at,
        };
        let driver = Stub { server, log: log.clone() };
        sim.replace_actor(table, Box::new(SessionTable::new(table, cfg, driver)));
        sim.run_until(until);
        (sim, table, log)
    }

    #[test]
    fn a_closed_loop_keeps_one_request_per_session_outstanding() {
        let (sim, table, log) =
            closed_loop(3, 1, RetryPolicy::default(), None, Time::from_millis(50));
        let log = log.lock().unwrap();
        let done = sim.metrics().counter(table, SESSIONS_COMPLETED);
        assert!(done > 100, "the loop must turn: {done} completed");
        assert_eq!(log.max_open, 3, "never more than one request per session");
        assert_eq!(log.open.len(), 3, "and never fewer");
        assert_eq!(sim.metrics().counter(table, SESSIONS_SUBMITTED), done + 3);
        assert_eq!(sim.metrics().counter(table, SESSIONS_SHED), 0, "a closed loop never sheds");
    }

    #[test]
    fn the_next_request_goes_out_on_the_reply() {
        let (sim, table, log) =
            closed_loop(1, 1, RetryPolicy::default(), None, Time::from_millis(5));
        let log = log.lock().unwrap();
        // One session: each reply is followed by a submit at that instant.
        let next_sends: Vec<Time> = log.sent.iter().skip(1).map(|s| s.0).collect();
        assert!(log.replies.len() > 10);
        assert_eq!(next_sends, log.replies);
        assert_eq!(log.finished.len(), log.replies.len());
        // A session's ids step by one, so `id % replicas` rotates.
        assert!(log.sent.windows(2).all(|w| w[1].1 .0 == w[0].1 .0 + 1), "{:?}", &log.sent[..3]);
        assert_eq!(sim.metrics().counter(table, SESSIONS_RETRIES), 0);
        assert!(sim.metrics().percentile(SESSION_LATENCY, 0.5).is_some());
    }

    /// The retry rule, on a server that never answers: wait out the
    /// deadline, resubmit with doubling backoff, abandon after
    /// `max_attempts` — and then the session issues its next request.
    #[test]
    fn a_request_waits_retries_with_backoff_then_is_abandoned_and_replaced() {
        let policy = RetryPolicy {
            base: Dur::millis(20),
            cap: Dur::millis(80),
            tick: Dur::millis(10),
            max_attempts: 2,
        };
        let (sim, table, log) = closed_loop(1, 0, policy, None, Time::from_millis(150));
        let log = log.lock().unwrap();
        let ms = |t: u64| Time::from_millis(t);
        let first = log.sent[0].1;
        let sends: Vec<(Time, MsgId, u32)> = log.sent.clone();
        assert_eq!(
            sends,
            [
                (Time::ZERO, first, 0),
                (ms(20), first, 1),       // base
                (ms(60), first, 2),       // + 2 × base
                (ms(140), sends[3].1, 0), // + cap: abandoned, next request
            ]
        );
        assert_ne!(sends[3].1, first, "the replacement is a new request");
        assert_eq!(log.finished, [first]);
        assert_eq!(sim.metrics().counter(table, SESSIONS_RETRIES), 2);
        assert_eq!(sim.metrics().counter(table, SESSIONS_ABANDONED), 1);
        assert_eq!(sim.metrics().counter(table, SESSIONS_COMPLETED), 0);
    }

    /// A request answered only after a resubmit records its latency
    /// from its first send.
    #[test]
    fn a_retried_request_keeps_its_first_send_as_latency_baseline() {
        let policy = RetryPolicy {
            base: Dur::millis(20),
            cap: Dur::millis(80),
            tick: Dur::millis(10),
            max_attempts: 3,
        };
        let (sim, table, log) =
            closed_loop_at(Box::new(SecondCopy::default()), 1, policy, None, Time::from_millis(30));
        let ms = |t: u64| Time::from_millis(t);
        let first = MsgId((table.0 as u64) << KEY_BITS);
        assert_eq!(log.lock().unwrap().sent[..2], [(Time::ZERO, first, 0), (ms(20), first, 1)]);
        assert_eq!(sim.metrics().counter(table, SESSIONS_RETRIES), 1);
        let lat = sim.metrics().latency(SESSION_LATENCY);
        assert_eq!(lat.count, 1, "the second copy was answered");
        assert!(lat.mean >= policy.base, "latency {:?} counted from the resubmit", lat.mean);
    }

    /// A closed-loop session never reuses a request id, however long it
    /// runs: a service that dedups by id would answer a repeat without
    /// applying it. The run is longer than a 16-bit generation lasts.
    #[test]
    fn a_closed_loop_session_never_repeats_an_id() {
        let (sim, table, log) = closed_loop(1, 1, RetryPolicy::default(), None, Time::from_secs(9));
        let log = log.lock().unwrap();
        let done = sim.metrics().counter(table, SESSIONS_COMPLETED);
        assert!(done > 70_000, "run past 2^16 requests: {done} completed");
        let ids: HashSet<MsgId> = log.sent.iter().map(|s| s.1).collect();
        assert_eq!(ids.len(), log.sent.len(), "an id was issued twice");
        assert_eq!(log.finished.len() as u64, done, "every request completed");
    }

    #[test]
    fn a_stale_reply_to_a_freed_slot_is_ignored() {
        // Every reply comes twice; the second finds its slot already
        // reused by the session's next request.
        let (sim, table, log) =
            closed_loop(1, 2, RetryPolicy::default(), None, Time::from_millis(5));
        let log = log.lock().unwrap();
        let done = sim.metrics().counter(table, SESSIONS_COMPLETED);
        assert!(done > 10);
        assert_eq!(done as usize, log.finished.len(), "one completion per request");
        let distinct: HashSet<&MsgId> = log.finished.iter().collect();
        assert_eq!(distinct.len(), log.finished.len(), "no request completed twice");
        assert_eq!(sim.metrics().counter(table, SESSIONS_SUBMITTED), done + 1);
    }

    #[test]
    fn nothing_is_issued_after_stop_at() {
        let stop = Time::from_millis(3);
        let (sim, table, log) =
            closed_loop(4, 1, RetryPolicy::default(), Some(stop), Time::from_millis(10));
        let log = log.lock().unwrap();
        assert!(log.sent.len() > 20);
        assert!(log.sent.iter().all(|s| s.0 < stop), "a request issued at or after stop_at");
        assert!(log.open.is_empty(), "the last requests drained");
        assert_eq!(
            sim.metrics().counter(table, SESSIONS_SUBMITTED),
            sim.metrics().counter(table, SESSIONS_COMPLETED)
        );
        assert_eq!(sim.metrics().counter(table, SESSIONS_SHED), 0);
    }

    #[test]
    #[should_panic(expected = "max_in_flight must cover")]
    fn a_closed_loop_must_fit_its_sessions_in_flight() {
        let cfg = SessionTableConfig {
            sessions: 2,
            arrival: Arrival::Closed,
            policy: RetryPolicy::default(),
            max_in_flight: 1,
            stop_at: None,
        };
        let log = Arc::new(Mutex::new(Log::default()));
        let _ = SessionTable::new(NodeId(0), cfg, Stub { server: NodeId(1), log });
    }
}
