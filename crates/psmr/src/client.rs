//! Closed-loop clients of the parallel service and the §6.5 workload
//! shapes: independent, dependent, mixed, and skewed command streams.
//!
//! The client proxy performs P-SMR's group mapping (§6.3.2): it derives
//! the multicast groups of every command from the conflict domains the
//! command accesses, then multicasts the command to those groups — one
//! proposal per involved ring. Single-ring models receive the same
//! commands through their one ordering ring.

use std::collections::HashSet;

use abcast::MsgId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ringpaxos::msg::MMsg;
use ringpaxos::value::{Value, ALL_PARTITIONS};
use simnet::prelude::*;
use workload::{rotation_pick, RetryDecision, RetryPolicy, Session};

use crate::command::{PCommand, PRegistry, PStored};
use crate::replica::{PReplyQuery, PResponse, PSMR_COMPLETED, PSMR_LATENCY, PSMR_SUBMITTED};

const T_RETRY: u64 = 44 << 56;

/// Workload of the §6.5 experiments.
#[derive(Clone, Copy, Debug)]
pub struct PsmrWorkload {
    /// Conflict domains (= multicast groups = P-SMR workers).
    pub n_groups: usize,
    /// Percentage of commands that are dependent (multi-group).
    pub dep_pct: u32,
    /// Groups a dependent command touches; `0` means all groups.
    pub dep_span: usize,
    /// Skew: percentage of independent commands directed at group 0
    /// *in addition* to its uniform share; `0` = uniform (§6.5.7).
    pub hot_pct: u32,
    /// Modelled service time per command.
    pub cost: Dur,
    /// Command size on the wire.
    pub cmd_bytes: u32,
    /// Reply size.
    pub reply_bytes: u32,
    /// Keys per conflict domain.
    pub keys_per_group: u64,
}

impl Default for PsmrWorkload {
    fn default() -> Self {
        PsmrWorkload {
            n_groups: 4,
            dep_pct: 0,
            dep_span: 0,
            hot_pct: 0,
            cost: Dur::micros(100),
            cmd_bytes: 200,
            reply_bytes: 64,
            keys_per_group: 100_000,
        }
    }
}

impl PsmrWorkload {
    /// Draws the next command.
    pub fn next_command(&self, rng: &mut SmallRng) -> PCommand {
        let dependent = self.dep_pct > 0 && rng.gen_range(0..100) < self.dep_pct;
        let groups: Vec<u8> = if dependent {
            let span = if self.dep_span == 0 || self.dep_span >= self.n_groups {
                self.n_groups
            } else {
                self.dep_span.max(2)
            };
            if span == self.n_groups {
                (0..self.n_groups as u8).collect()
            } else {
                let mut set = HashSet::new();
                while set.len() < span {
                    set.insert(rng.gen_range(0..self.n_groups as u8));
                }
                let mut v: Vec<u8> = set.into_iter().collect();
                v.sort_unstable();
                v
            }
        } else {
            let g = if self.hot_pct > 0 && rng.gen_range(0..100) < self.hot_pct {
                0
            } else {
                rng.gen_range(0..self.n_groups as u8)
            };
            vec![g]
        };
        let writes = groups
            .iter()
            .map(|&g| {
                let key = g as u64 * self.keys_per_group + rng.gen_range(0..self.keys_per_group);
                (key, rng.gen::<u64>())
            })
            .collect();
        PCommand { groups, writes, cost: self.cost }
    }
}

/// Where the client proposes commands. Besides the deployment-time
/// coordinator(s) it carries the full ring membership(s): after a
/// coordinator failover the client does not learn the new leader
/// directly — it re-looks it up by rotating retries across the ring
/// members, any live one of which relays the proposal to the
/// coordinator of its current view.
#[derive(Clone, Debug)]
pub enum PTarget {
    /// One ordering ring (sequential / pipelined / SDPE models).
    SingleRing {
        /// The ring's coordinator.
        coordinator: NodeId,
        /// Every ring member, for failover retry rotation.
        members: Vec<NodeId>,
    },
    /// One ring per group (P-SMR): `coordinators[g]` is group `g`'s
    /// ring coordinator.
    MultiRing {
        /// Ring coordinators indexed by group.
        coordinators: Vec<NodeId>,
        /// Ring members indexed by group, for failover retry rotation.
        members: Vec<Vec<NodeId>>,
    },
}

impl PTarget {
    /// The submission point of `group` at rotation `cursor`: the known
    /// coordinator first (cursor 0), then round-robin over the ring
    /// members — any live one relays to the coordinator it believes in.
    fn pick(&self, group: usize, cursor: usize) -> NodeId {
        let (coordinator, members) = match self {
            PTarget::SingleRing { coordinator, members } => (*coordinator, members),
            PTarget::MultiRing { coordinators, members } => (coordinators[group], &members[group]),
        };
        rotation_pick(coordinator, members, cursor)
    }

    fn n_groups(&self) -> usize {
        match self {
            PTarget::SingleRing { .. } => 1,
            PTarget::MultiRing { coordinators, .. } => coordinators.len(),
        }
    }
}

/// A closed-loop client of the parallel service.
pub struct PsmrClient {
    me: NodeId,
    target: PTarget,
    /// Replica nodes, in the deployment's shared order (reply queries go
    /// to the designated responder).
    replicas: Vec<NodeId>,
    registry: PRegistry,
    workload: PsmrWorkload,
    /// Deadline/backoff/abandon knobs of the shared session tier; the
    /// defaults are the constants this client used to hard-code.
    policy: RetryPolicy,
    rng: SmallRng,
    outstanding: Option<Session>,
    next_seq: u64,
    stop_at: Option<Time>,
    /// Per-group submission cursor into [`PTarget::pick`]'s rotation.
    /// Starts at the deployment-time coordinator and advances on every
    /// blown deadline — and *stays* there on success, so after a
    /// coordinator failover new commands go straight to a live member
    /// instead of re-paying a timeout against the dead leader each time.
    cursors: Vec<usize>,
}

impl PsmrClient {
    /// Creates a client at node `me` with its own deterministic RNG.
    pub fn new(
        me: NodeId,
        target: PTarget,
        replicas: Vec<NodeId>,
        registry: PRegistry,
        workload: PsmrWorkload,
        seed: u64,
        stop_at: Option<Time>,
    ) -> PsmrClient {
        let cursors = vec![0; target.n_groups()];
        PsmrClient {
            me,
            target,
            replicas,
            registry,
            workload,
            policy: RetryPolicy::default(),
            rng: SmallRng::seed_from_u64(seed),
            outstanding: None,
            next_seq: 0,
            stop_at,
            cursors,
        }
    }

    /// Overrides the retry policy (builder style).
    pub fn with_policy(mut self, policy: RetryPolicy) -> PsmrClient {
        self.policy = policy;
        self
    }

    fn send_next(&mut self, ctx: &mut Ctx) {
        if self.stop_at.is_some_and(|t| ctx.now() >= t) {
            self.outstanding = None;
            return;
        }
        let cmd = self.workload.next_command(&mut self.rng);
        let id = MsgId(((self.me.0 as u64) << 40) | self.next_seq);
        self.next_seq += 1;
        self.registry.put(
            id,
            PStored { cmd: cmd.clone(), client: self.me, reply_bytes: self.workload.reply_bytes },
        );
        self.outstanding = Some(Session::open(id, ctx.now(), &self.policy));
        self.submit(id, &cmd, ctx);
        ctx.counter_add(PSMR_SUBMITTED, 1);
    }

    fn submit(&mut self, id: MsgId, cmd: &PCommand, ctx: &mut Ctx) {
        let v = Value {
            id,
            proposer: self.me,
            seq: id.0 & 0xff_ffff_ffff,
            bytes: self.workload.cmd_bytes,
            submitted: ctx.now(),
            mask: ALL_PARTITIONS,
        };
        // One proposal per involved group's ring (§6.3.2's group mapping
        // at the client proxy); single-ring models involve exactly ring 0.
        let groups: &[u8] = match &self.target {
            PTarget::SingleRing { .. } => &[0],
            PTarget::MultiRing { .. } => &cmd.groups,
        };
        for &g in groups {
            let dst = self.target.pick(g as usize, self.cursors[g as usize]);
            ctx.udp_send(dst, MMsg::Propose(v), self.workload.cmd_bytes);
        }
    }

    /// The outstanding command blew its deadline: resubmit with
    /// exponential backoff, rotating the target across ring members
    /// (leader re-lookup after a coordinator failover), paired with a
    /// reply query in case only the response was lost. Gives up after
    /// [`RetryPolicy::max_attempts`] so the closed loop keeps flowing.
    fn retry_due(&mut self, ctx: &mut Ctx) {
        let policy = self.policy;
        let Some(p) = self.outstanding.as_mut() else { return };
        let id = match p.poll(ctx.now(), &policy) {
            RetryDecision::Wait => return,
            RetryDecision::Abandon => {
                ctx.counter_add("psmr.abandoned", 1);
                self.outstanding = None;
                self.send_next(ctx);
                return;
            }
            RetryDecision::Resubmit { .. } => p.id,
        };
        let Some(stored) = self.registry.get(id) else { return };
        ctx.counter_add("psmr.retries", 1);
        let cmd = stored.cmd.clone();
        // Rotate every involved group's submission point before
        // resubmitting; the cursor is sticky, so once it lands on a
        // live member subsequent commands skip the dead leader entirely.
        match &self.target {
            PTarget::SingleRing { .. } => self.cursors[0] += 1,
            PTarget::MultiRing { .. } => {
                for &g in &cmd.groups {
                    self.cursors[g as usize] += 1;
                }
            }
        }
        self.submit(id, &cmd, ctx);
        // The command may have executed already with only its response
        // lost (the ordering layer delivers each command once).
        if !self.replicas.is_empty() {
            let designated = self.replicas[(id.0 as usize) % self.replicas.len()];
            let me = self.me;
            ctx.udp_send(designated, PReplyQuery { id, from: me }, 64);
        }
    }
}

impl Actor for PsmrClient {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.send_next(ctx);
        ctx.set_timer(self.policy.tick, TimerToken(T_RETRY));
    }

    fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
        let Some(&PResponse { id }) = env.payload.downcast_ref::<PResponse>() else {
            return;
        };
        let Some(p) = self.outstanding.as_ref() else { return };
        if p.id != id {
            return; // stale response of a retried or abandoned command
        }
        let started = p.started;
        self.outstanding = None;
        // The entry stays registered: lagging replicas may still be
        // recovering this command's delivery via retransmission, and the
        // registry stands in for payload retrieval (§3.3.4). A real
        // deployment prunes with the ring's GC watermark instead.
        // The reply strictly follows the request; `since` debug-asserts
        // that instead of masking an inversion as a zero latency.
        ctx.record_latency(PSMR_LATENCY, ctx.now().since(started));
        ctx.counter_add(PSMR_COMPLETED, 1);
        self.send_next(ctx);
    }

    fn on_timer(&mut self, _token: TimerToken, ctx: &mut Ctx) {
        if self.outstanding.is_some() {
            self.retry_due(ctx);
        } else if self.stop_at.is_none_or(|t| ctx.now() < t) {
            self.send_next(ctx);
        }
        ctx.set_timer(self.policy.tick, TimerToken(T_RETRY));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn independent_commands_touch_one_group() {
        let w = PsmrWorkload { dep_pct: 0, ..PsmrWorkload::default() };
        let mut r = rng();
        for _ in 0..100 {
            let c = w.next_command(&mut r);
            assert_eq!(c.groups.len(), 1);
            assert!((c.groups[0] as usize) < w.n_groups);
            assert_eq!(c.writes.len(), 1);
        }
    }

    #[test]
    fn dependent_commands_touch_all_groups_by_default() {
        let w = PsmrWorkload { dep_pct: 100, ..PsmrWorkload::default() };
        let mut r = rng();
        let c = w.next_command(&mut r);
        assert_eq!(c.groups, vec![0, 1, 2, 3]);
        assert_eq!(c.writes.len(), 4);
    }

    #[test]
    fn dep_span_limits_dependent_width() {
        let w = PsmrWorkload { dep_pct: 100, dep_span: 2, n_groups: 8, ..PsmrWorkload::default() };
        let mut r = rng();
        for _ in 0..50 {
            let c = w.next_command(&mut r);
            assert_eq!(c.groups.len(), 2);
            assert!(c.groups[0] < c.groups[1], "groups sorted and distinct");
        }
    }

    #[test]
    fn mixed_ratio_is_respected() {
        let w = PsmrWorkload { dep_pct: 30, ..PsmrWorkload::default() };
        let mut r = rng();
        let dep = (0..2000).filter(|_| w.next_command(&mut r).is_dependent()).count();
        assert!((400..800).contains(&dep), "~30% dependent, got {dep}/2000");
    }

    #[test]
    fn skew_prefers_group_zero() {
        let w = PsmrWorkload { hot_pct: 80, ..PsmrWorkload::default() };
        let mut r = rng();
        let hot = (0..1000).filter(|_| w.next_command(&mut r).groups[0] == 0).count();
        assert!(hot > 700, "hot group should dominate, got {hot}/1000");
    }

    #[test]
    fn keys_stay_in_their_domain_range() {
        let w = PsmrWorkload { dep_pct: 50, ..PsmrWorkload::default() };
        let mut r = rng();
        for _ in 0..200 {
            let c = w.next_command(&mut r);
            for (&g, &(k, _)) in c.groups.iter().zip(&c.writes) {
                let base = g as u64 * w.keys_per_group;
                assert!((base..base + w.keys_per_group).contains(&k));
            }
        }
    }
}
