//! The clients of the parallel service: the §6.5 workload shapes
//! (independent, dependent, mixed, and skewed command streams) and the
//! client proxy that performs P-SMR's group mapping (§6.3.2).
//!
//! A client is a closed-loop [`workload::SessionTable`] session whose
//! driver ([`PsmrDriver`]) derives the multicast groups of every command
//! from the conflict domains it accesses, then proposes the command to
//! those groups — one proposal per involved ring. Single-ring models
//! receive the same commands through their one ordering ring.

use std::collections::{HashMap, HashSet};

use abcast::MsgId;
use rand::rngs::SmallRng;
use rand::Rng;
use ringpaxos::msg::MMsg;
use ringpaxos::value::{Value, ALL_PARTITIONS};
use simnet::prelude::*;
use workload::{Rotation, Sent, SessionDriver};

use crate::command::{PCommand, PRegistry, PStored};
use crate::replica::{PReplyQuery, PResponse};

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

/// P-SMR's client proxy (§6.3.2) as the driver of a
/// [`workload::SessionTable`] session: it maps each command to the
/// multicast groups of the conflict domains it accesses and proposes it
/// on each of those groups' rings (on the one ring of the
/// totally-ordered models). Each ring has its own [`Rotation`], so a
/// coordinator failover on one ring re-looks up that ring's leader
/// alone; a resubmission goes with a reply query to the command's
/// designated responder, in case only the response was lost.
pub struct PsmrDriver {
    me: NodeId,
    /// One submission rotation per ordering ring, indexed by group (a
    /// single ring for the totally-ordered models).
    rings: Vec<Rotation>,
    /// Replica nodes, in the deployment's shared order (reply queries go
    /// to the designated responder).
    replicas: Vec<NodeId>,
    registry: PRegistry,
    workload: PsmrWorkload,
    /// Per request: its proposal seq, and each of its rings with where
    /// it was last sent there.
    in_flight: HashMap<MsgId, (u64, Vec<(usize, Sent)>)>,
    /// Next proposal sequence (contiguous per proposer; the table's
    /// slot/generation ids are not).
    next_seq: u64,
}

impl PsmrDriver {
    /// A driver at node `me` proposing on `rings`: `(coordinator,
    /// members)` of each ordering ring, indexed by group.
    pub fn new(
        me: NodeId,
        rings: Vec<(NodeId, Vec<NodeId>)>,
        replicas: Vec<NodeId>,
        registry: PRegistry,
        workload: PsmrWorkload,
    ) -> PsmrDriver {
        let rings = rings.into_iter().map(|(c, members)| Rotation::new(c, members)).collect();
        PsmrDriver {
            me,
            rings,
            replicas,
            registry,
            workload,
            in_flight: HashMap::new(),
            next_seq: 0,
        }
    }

    /// The rings `cmd` is proposed on: one per involved group, or ring
    /// 0 alone when there is one ring.
    fn rings_of(&self, cmd: &PCommand) -> Vec<usize> {
        if self.rings.len() == 1 {
            vec![0]
        } else {
            cmd.groups.iter().map(|&g| g as usize).collect()
        }
    }

    /// Proposes `id` on each of `rings`; returns where it went.
    fn propose(
        &mut self,
        id: MsgId,
        seq: u64,
        rings: impl Iterator<Item = usize>,
        ctx: &mut Ctx,
    ) -> Vec<(usize, Sent)> {
        let bytes = self.workload.cmd_bytes;
        let v =
            Value { id, proposer: self.me, seq, bytes, submitted: ctx.now(), mask: ALL_PARTITIONS };
        rings
            .map(|r| {
                let (dst, sent) = self.rings[r].pick();
                ctx.udp_send(dst, MMsg::Propose(v), bytes);
                (r, sent)
            })
            .collect()
    }
}

impl SessionDriver for PsmrDriver {
    fn submit(&mut self, id: MsgId, ctx: &mut Ctx) {
        let cmd = self.workload.next_command(ctx.rng());
        let rings = self.rings_of(&cmd);
        let reply_bytes = self.workload.reply_bytes;
        self.registry.put(id, PStored { cmd, client: self.me, reply_bytes });
        let seq = self.next_seq;
        self.next_seq += 1;
        let sent = self.propose(id, seq, rings.into_iter(), ctx);
        self.in_flight.insert(id, (seq, sent));
    }

    fn resubmit(&mut self, id: MsgId, _attempt: u32, ctx: &mut Ctx) {
        let Some((seq, sent)) = self.in_flight.remove(&id) else { return };
        for &(r, at) in &sent {
            self.rings[r].failed(at);
        }
        let sent = self.propose(id, seq, sent.iter().map(|&(r, _)| r), ctx);
        self.in_flight.insert(id, (seq, sent));
        // The command may have executed already with only its response
        // lost (the ordering layer delivers each command once): ask the
        // replica that answers it.
        if !self.replicas.is_empty() {
            let designated = self.replicas[(id.0 as usize) % self.replicas.len()];
            ctx.udp_send(designated, PReplyQuery { id, from: self.me }, 64);
        }
    }

    fn on_response(&mut self, env: &Envelope, _ctx: &mut Ctx) -> Option<MsgId> {
        let &PResponse { id } = env.payload.downcast_ref::<PResponse>()?;
        let (_, sent) = self.in_flight.get(&id)?;
        for &(r, at) in sent {
            self.rings[r].answered(at);
        }
        Some(id)
    }

    fn finish(&mut self, id: MsgId) {
        // The registry entry stays: lagging replicas may still be
        // recovering this command's delivery via retransmission, and the
        // registry stands in for payload retrieval (§3.3.4). A real
        // deployment prunes with the ring's GC watermark instead.
        self.in_flight.remove(&id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

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
