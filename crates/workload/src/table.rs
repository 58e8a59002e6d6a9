//! The session-table actor: one [`Actor`] multiplexing N client
//! sessions, built for million-session runs.
//!
//! One actor per simulated client costs an arena slot, an RNG stream,
//! and a timer chain per session — fine for the paper's 20–200 clients,
//! prohibitive for "millions of users". The table hosts the whole
//! population in one actor:
//!
//! * **In-flight slab** — outstanding requests live in a free-listed
//!   slab; the request id encodes `node | generation | slot`, so a
//!   response (or a stale wheel entry) is validated in O(1) against the
//!   slot's current generation. Idle sessions cost nothing.
//! * **Timer-wheel deadlines** — every request deadline goes on a
//!   [`TimerWheel`] keyed by slot+generation; one periodic sim timer
//!   ([`RetryPolicy::tick`]) drains it. Deadlines moved by a resubmit
//!   are cancelled lazily: the superseded entry fires, fails the
//!   deadline check, and is dropped.
//! * **Aggregate open-loop arrivals** — a single Poisson stream at
//!   N×(per-session rate), with the issuing session picked uniformly
//!   per arrival (superposition makes this exactly equivalent to N
//!   independent per-session streams).
//! * **Per-session latency** — completion latencies go to the
//!   [`crate::SESSION_LATENCY`] histogram; report p50/p99/p999 with
//!   `Metrics::percentile`.
//!
//! The table is service-agnostic: a [`SessionDriver`] supplies the
//! service-specific build/send/match logic (see `core`'s tree driver).

use rand::Rng;
use simnet::prelude::*;
use simnet::wheel::TimerWheel;

use crate::arrival::Poisson;
use crate::session::RetryPolicy;
use crate::{
    SESSIONS_ABANDONED, SESSIONS_ARRIVAL_US, SESSIONS_COMPLETED, SESSIONS_RETRIES, SESSIONS_SHED,
    SESSIONS_SUBMITTED, SESSION_ARRIVAL_GAP, SESSION_LATENCY,
};
use abcast::MsgId;

const T_TABLE_TICK: u64 = 50 << 56;
const T_TABLE_ARRIVAL: u64 = 51 << 56;

/// Bits of the request id holding the slab slot.
const SLOT_BITS: u32 = 24;
/// Bits holding the slot generation (stale-response rejection).
const GEN_BITS: u32 = 16;

/// Service-specific half of a session table. Implementations own the
/// command generator and whatever per-request bookkeeping the service
/// needs (command registry entries, expected-reply counts, …).
pub trait SessionDriver: Send {
    /// Builds, registers, and sends one fresh request under `id`. Draw
    /// randomness from `ctx.rng()` so runs stay deterministic.
    fn submit(&mut self, id: MsgId, ctx: &mut Ctx);

    /// Re-sends request `id` after a blown deadline; `attempt` counts
    /// resubmissions (1-based). Drivers with a leader rotate their
    /// submission target here (sticky cursor — see
    /// [`crate::session::rotation_pick`]).
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
    /// The aggregate open-loop arrival process.
    pub arrival: Poisson,
    /// Retry/backoff knobs shared by every session.
    pub policy: RetryPolicy,
    /// In-flight ceiling; arrivals beyond it are shed (and counted
    /// under [`SESSIONS_SHED`]) rather than queued, as an open loop
    /// must. Capped at the id encoding's 2^24 slots.
    pub max_in_flight: u32,
    /// Stop issuing new requests at this instant.
    pub stop_at: Option<Time>,
}

/// One in-flight request's slab slot.
#[derive(Clone, Copy, Debug)]
struct Slot {
    /// Bumped on free; stale responses and wheel entries miss it.
    gen: u16,
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
    /// Panics if the config names zero sessions or more than `u32::MAX`.
    pub fn new(me: NodeId, mut cfg: SessionTableConfig, driver: D) -> SessionTable<D> {
        assert!(cfg.sessions > 0 && cfg.sessions <= u32::MAX as u64, "1..=u32::MAX sessions");
        cfg.max_in_flight = cfg.max_in_flight.clamp(1, 1 << SLOT_BITS);
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

    fn encode(&self, slot: u32, gen: u16) -> MsgId {
        debug_assert!(slot < (1 << SLOT_BITS));
        MsgId(
            ((self.me.0 as u64) << (SLOT_BITS + GEN_BITS))
                | ((gen as u64) << SLOT_BITS)
                | slot as u64,
        )
    }

    fn decode(&self, id: MsgId) -> Option<(u32, u16)> {
        if id.0 >> (SLOT_BITS + GEN_BITS) != self.me.0 as u64 {
            return None;
        }
        Some((
            (id.0 & ((1 << SLOT_BITS) - 1)) as u32,
            ((id.0 >> SLOT_BITS) & ((1 << GEN_BITS) - 1)) as u16,
        ))
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
        self.wheel.schedule(deadline, id.0 & ((1 << (SLOT_BITS + GEN_BITS)) - 1));
        self.driver.submit(id, ctx);
        ctx.counter_add(SESSIONS_SUBMITTED, 1);
        ctx.counter_add(SESSIONS_ARRIVAL_US, now.as_nanos() / 1_000);
    }

    fn free_slot(&mut self, slot_idx: u32) {
        let s = &mut self.slots[slot_idx as usize];
        s.busy = false;
        s.gen = s.gen.wrapping_add(1);
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
        if self.stopped(ctx.now()) {
            return;
        }
        let gap = self.cfg.arrival.next_gap(ctx.rng());
        ctx.record_latency(SESSION_ARRIVAL_GAP, gap);
        ctx.set_timer(gap, TimerToken(T_TABLE_ARRIVAL));
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
            let slot_idx = (key & ((1 << SLOT_BITS) - 1)) as u32;
            let gen = ((key >> SLOT_BITS) & ((1 << GEN_BITS) - 1)) as u16;
            let s = self.slots[slot_idx as usize];
            // Lazy cancellation: the slot was freed/reused, or its
            // deadline moved and a newer wheel entry covers it.
            if !s.busy || s.gen != gen || now < s.deadline {
                continue;
            }
            let id = self.encode(slot_idx, gen);
            if s.attempts >= self.cfg.policy.max_attempts {
                ctx.counter_add(SESSIONS_ABANDONED, 1);
                self.driver.finish(id);
                self.free_slot(slot_idx);
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
        self.arrive(ctx);
        self.arm_arrival(ctx);
    }

    fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
        let Some(id) = self.driver.on_response(env, ctx) else { return };
        let Some((slot_idx, gen)) = self.decode(id) else { return };
        let Some(s) = self.slots.get(slot_idx as usize).copied() else { return };
        if !s.busy || s.gen != gen {
            return; // stale response of a freed request
        }
        ctx.record_latency(SESSION_LATENCY, ctx.now().since(s.started));
        ctx.counter_add(SESSIONS_COMPLETED, 1);
        self.driver.finish(id);
        self.free_slot(slot_idx);
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
