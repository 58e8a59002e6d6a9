//! The loss-position matrix for M-Ring's order-triggered repair
//! (`mring` module docs, "Loss recovery").
//!
//! One datagram is dropped at each position a steady-state instance
//! crosses — proposal, 2A to the first acceptor, 2A to the mid-ring
//! acceptor, 2B on each hop, 2A to a learner, decision-carrying message
//! to a learner — in a classic and in a partitioned deployment. Each
//! cell runs the deployment twice with the same seed: a fault-free run
//! with probes on locates the instant the datagram is sent, then
//! [`FaultPlan::drop_at`] cuts that one link for that one instant. The
//! cell asserts that exactly one datagram was dropped, that every
//! learner's deliveries resume within [`RESUME_WITHIN`] of the drop,
//! that the repairs sent are the ones [`expected_repair`] names for the
//! position (where a learner asked, also that the reply carried what it
//! lacked and no more), and that order and integrity hold with
//! everything proposed delivered.

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

use abcast::{metric, shared_log, MsgId, SharedLog};
use paxos::msg::{InstanceId, Round};
use proptest::prelude::*;
use ringpaxos::cluster::{deploy_mring, MRingOptions};
use ringpaxos::config::PartitionConfig;
use ringpaxos::mring::MRingProcess;
use ringpaxos::msg::{MMsg, CTL_BYTES};
use ringpaxos::value::ALL_PARTITIONS;
use ringpaxos::{Batch, BatchData, MRingConfig, StorageMode, Value};
use simnet::prelude::*;
use simnet::probe::{code, ProbeEvent};

const SEED: u64 = 7;
/// Proposers stop here; the run goes on to `END` so that even a resent
/// proposal (100 ms bound) is delivered.
const STOP: Time = Time(60_000_000);
const END: Time = Time(400_000_000);
/// Drops are placed on the first suitable datagram after this instant
/// (the ring is in steady state by then).
const PICK_AFTER: Time = Time(20_000_000);
/// Every learner must be delivering again this soon after a drop. A
/// ring-level loss is found on the link that lost it, when the next
/// instance arrives there one message gap later, and is repaired from
/// that link's sender within a round trip; a learner's loss likewise,
/// from its preferential acceptor.
const RESUME_WITHIN: Dur = Dur::millis(1);
/// What a loss costs where it waits for the coordinator's ring-trip
/// re-2A: two ring trips for a later instance to prove it, one for the
/// repair (a ring trip is mostly payload serialisation, 0.42 ms at
/// [`MSG_BYTES`]).
const RE2A_WITHIN: Dur = Dur::millis(2);
/// One message (= one instance: the packet size is set to it) every
/// this often, the benchmark's `mring_stream` rate.
const MSG_GAP: Dur = Dur::nanos(109_227);
/// The matrix's message size.
const MSG_BYTES: u32 = 4096;
/// The benchmark's message size: every payload transfer takes twice as
/// long, so the positions need [`RESUME_WITHIN_8K`].
const MSG_BYTES_8K: u32 = 8192;
const RESUME_WITHIN_8K: Dur = Dur::micros(1_750);

/// The nodes of a deployed ring, as the cells need them.
struct Ring {
    a0: NodeId,
    a1: NodeId,
    coord: NodeId,
    /// Learner nodes in delivery-log order.
    learners: Vec<NodeId>,
    /// Nodes that count their proposals under `rp.proposed`.
    proposers: Vec<NodeId>,
    /// Partitioned: learner `i` delivers exactly what proposer `i`
    /// sends. Classic: every learner delivers everything.
    partitioned: bool,
    log: SharedLog,
}

/// Offered load in bits per second of one `msg_bytes` message per
/// [`MSG_GAP`].
fn rate_bps(msg_bytes: u32) -> u64 {
    msg_bytes as u64 * 8 * 1_000_000_000 / MSG_GAP.as_nanos()
}

/// The benchmark's `mring_stream` shape: ring of 3, two learners, two
/// paced proposer-learners.
fn deploy_classic(sim: &mut Sim, msg_bytes: u32) -> Ring {
    let opts = MRingOptions {
        ring_size: 3,
        n_learners: 2,
        n_proposers: 2,
        proposer_rate_bps: rate_bps(msg_bytes) / 2,
        msg_bytes,
        proposer_stop: Some(STOP),
        ..MRingOptions::default()
    };
    let d = deploy_mring(sim, &opts, |cfg| cfg.packet_bytes = msg_bytes);
    Ring {
        a0: d.ring[0],
        a1: d.ring[1],
        coord: d.ring[2],
        partitioned: false,
        learners: d.all_learners,
        proposers: d.proposers,
        log: d.log,
    }
}

struct Idle;
impl Actor for Idle {
    fn on_message(&mut self, _env: &Envelope, _ctx: &mut Ctx) {}
}

/// An external client of a partitioned ring: one full-packet proposal
/// under `mask` every `period`, from `first` until `STOP`.
struct Injector {
    coordinator: NodeId,
    mask: u32,
    bytes: u32,
    first: Dur,
    period: Dur,
    seq: u64,
}

impl Actor for Injector {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(self.first, TimerToken(0));
    }
    fn on_message(&mut self, _env: &Envelope, _ctx: &mut Ctx) {}
    fn on_timer(&mut self, _token: TimerToken, ctx: &mut Ctx) {
        if ctx.now() >= STOP {
            return;
        }
        let me = ctx.id();
        let v = Value {
            id: MsgId(((me.0 as u64) << 40) | self.seq),
            proposer: me,
            seq: self.seq,
            bytes: self.bytes,
            submitted: ctx.now(),
            mask: self.mask,
        };
        self.seq += 1;
        ctx.udp_send(self.coordinator, MMsg::Propose(v), self.bytes);
        ctx.counter_add(metric::PROPOSED, 1);
        ctx.set_timer(self.period, TimerToken(0));
    }
}

/// Ring of 3 over two partitions, one learner and one injector each;
/// the injectors interleave, so instances alternate between the
/// partitions and each learner's slice of the sequence is sparse.
fn deploy_partitioned(sim: &mut Sim, msg_bytes: u32) -> Ring {
    let ring: Vec<NodeId> = (0..3).map(|_| sim.add_node(Box::new(Idle))).collect();
    let learners: Vec<NodeId> = (0..2).map(|_| sim.add_node(Box::new(Idle))).collect();
    let base = sim.add_group();
    let groups: Vec<GroupId> = (0..2).map(|_| sim.add_group()).collect();
    let decision_group = sim.add_group();
    let mut cfg = MRingConfig::new(ring.clone(), learners.clone(), base);
    cfg.packet_bytes = msg_bytes;
    cfg.partitions = Some(PartitionConfig {
        groups: groups.clone(),
        decision_group,
        learner_masks: vec![0b01, 0b10],
    });
    for &n in ring.iter().chain(&learners) {
        sim.subscribe(n, base);
        sim.subscribe(n, decision_group);
    }
    for (p, &g) in groups.iter().enumerate() {
        for &a in &ring {
            sim.subscribe(a, g);
        }
        sim.subscribe(learners[p], g);
    }
    let log = shared_log(learners.len());
    for &a in &ring {
        sim.replace_actor(a, Box::new(MRingProcess::new(cfg.clone(), a, None, None)));
    }
    for &l in &learners {
        sim.replace_actor(l, Box::new(MRingProcess::new(cfg.clone(), l, None, Some(log.clone()))));
    }
    let proposers = (0..2u64)
        .map(|p| {
            sim.add_node(Box::new(Injector {
                coordinator: cfg.coordinator(),
                mask: 1 << p,
                bytes: msg_bytes,
                first: MSG_GAP * p,
                period: MSG_GAP * 2,
                seq: 0,
            }))
        })
        .collect();
    Ring { a0: ring[0], a1: ring[1], coord: ring[2], partitioned: true, learners, proposers, log }
}

type Deploy = fn(&mut Sim, u32) -> Ring;

/// Runs `deploy` with `msg_bytes` messages under `plan`, every probe on.
fn run(deploy: Deploy, msg_bytes: u32, plan: FaultPlan) -> (Sim, Ring) {
    let mut sim = Sim::new(SimConfig { seed: SEED, ..SimConfig::default() });
    sim.set_probes(ProbeConfig::all());
    let ring = deploy(&mut sim, msg_bytes);
    plan.run(&mut sim, END, |_, _| {});
    (sim, ring)
}

/// Instance number of a lifecycle probe's key (`probe::span_key`).
fn instance_of(e: &ProbeEvent) -> u64 {
    e.arg & 0x0000_FFFF_FFFF_FFFF
}

/// A `NET_SEND` probe's `(destinations, carries a payload)`: control
/// messages are `CTL_BYTES` (32) plus a few words, payloads kilobytes.
fn send_shape(e: &ProbeEvent) -> (u64, bool) {
    (e.arg >> 32, e.arg & 0xFFFF_FFFF >= 1024)
}

/// Where a cell drops its datagram.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Position {
    /// Proposer → coordinator.
    Proposal,
    /// 2A → first acceptor.
    TwoAFirst,
    /// 2A → mid-ring acceptor.
    TwoAMid,
    /// 2B, first acceptor → mid-ring acceptor.
    TwoBFirstHop,
    /// 2B, mid-ring acceptor → coordinator.
    TwoBLastHop,
    /// 2A → a learner of its partition.
    TwoALearner,
    /// The message announcing an instance's decision → a learner that
    /// delivers the instance.
    DecisionLearner,
    /// … → a learner of another partition (it must skip the instance).
    DecisionForeign,
}

/// What each position costs: one repair message, and where the loss is
/// ring-level, the asks it provokes. A lost 2A or 2B shows on every
/// ring link downstream of the loss as a later 2B overtaking that
/// instance's, so each receiver from there to the coordinator asks its
/// predecessor for the 2B once (`ask_2b`). A predecessor that sent that
/// 2B before the one that overtook it sends it again (a `retrans`); one
/// that has not — it holds the 2B for its own 2A, has not voted yet, or
/// sent it late, after the overtaking one — sends nothing
/// (`ask_2b_unmet`).
fn expected_repair(pos: Position) -> Repairs {
    let r = Repairs::default();
    let asks = |n, unmet| Repairs { retrans: 1, ask_2b: n, ask_2b_unmet: unmet, ..r };
    match pos {
        Position::Proposal => Repairs { resubmit: 1, ..r },
        // The first acceptor asks the coordinator for the 2A (the
        // `retrans`); the asks downstream find its 2B not sent yet.
        Position::TwoAFirst => asks(2, 2),
        // The mid-ring acceptor asks its predecessor for the 2A (the
        // `retrans`); the coordinator's ask finds the 2B held for it.
        Position::TwoAMid => asks(1, 1),
        // The mid-ring acceptor's ask is met (the `retrans`); the
        // coordinator's finds the 2B still on its way there.
        Position::TwoBFirstHop => asks(2, 1),
        Position::TwoBLastHop => asks(1, 0),
        Position::TwoALearner | Position::DecisionLearner | Position::DecisionForeign => {
            Repairs { retrans: 1, ..r }
        }
    }
}

/// What the acceptors put on the wire for a learner's repair, where
/// the learner is the one that lost something: the batch when it
/// lacks the payload, the control-sized decision when it holds the
/// payload or will skip the instance.
fn reply_bytes(pos: Position, msg_bytes: u32) -> Option<u64> {
    match pos {
        Position::TwoALearner => Some(msg_bytes as u64),
        Position::DecisionLearner | Position::DecisionForeign => Some(CTL_BYTES as u64),
        _ => None,
    }
}

/// Bytes the ring's three acceptors have sent.
fn ring_sent_bytes(sim: &Sim, r: &Ring) -> u64 {
    [r.a0, r.a1, r.coord].iter().map(|&n| sim.metrics().counter_id(n, mid::NET_SENT_BYTES)).sum()
}

/// Finds, in the fault-free run's probe stream, the instant the
/// datagram of `pos` is sent and the link it crosses.
fn locate(pos: Position, events: &[ProbeEvent], r: &Ring) -> (Time, NodeId, NodeId) {
    let partitioned = r.partitioned;
    let at_node = |n: NodeId| events.iter().filter(move |e| e.node == n.0 as u32);
    // The target instance: the first proposed in steady state.
    let k = at_node(r.coord)
        .find(|e| e.code == code::PHASE2A && e.time >= PICK_AFTER)
        .map(instance_of)
        .expect("a 2A after PICK_AFTER");
    let stage = |n: NodeId, c: u16| {
        at_node(n)
            .find(|e| e.code == c && instance_of(e) == k)
            .map(|e| e.time)
            .unwrap_or_else(|| panic!("no probe {c} for instance {k} at {n:?}"))
    };
    // The learner that delivers `k` and one that does not.
    let delivers = |l: &NodeId| at_node(*l).any(|e| e.code == code::DELIVER && instance_of(e) == k);
    let own = *r.learners.iter().find(|l| delivers(l)).expect("someone delivers k");
    match pos {
        Position::Proposal => {
            let p = r.proposers[0];
            let t = at_node(p)
                .find(|e| {
                    e.code == code::NET_SEND && e.time >= PICK_AFTER && send_shape(e) == (1, true)
                })
                .expect("a proposal after PICK_AFTER")
                .time;
            (t, p, r.coord)
        }
        Position::TwoAFirst => (stage(r.coord, code::PHASE2A), r.coord, r.a0),
        Position::TwoAMid => (stage(r.coord, code::PHASE2A), r.coord, r.a1),
        Position::TwoBFirstHop => (stage(r.a0, code::PHASE2B), r.a0, r.a1),
        Position::TwoBLastHop => (stage(r.a1, code::PHASE2B), r.a1, r.coord),
        Position::TwoALearner | Position::DecisionLearner if !partitioned => {
            // Classic mode piggybacks decisions on 2As and announces
            // them alone only at an idle batch tick. Walk the
            // coordinator's stream counting the decisions not yet
            // announced, and take a 2A that carries none (losing it
            // loses one payload and nothing else) or a decision-only
            // multicast that carries exactly one.
            let want_2a = pos == Position::TwoALearner;
            let mut unannounced = 0;
            for e in at_node(r.coord) {
                let bare_mcast = e.code == code::NET_SEND && {
                    let (dsts, payload) = send_shape(e);
                    dsts > 1 && !payload
                };
                let hit = e.time >= PICK_AFTER
                    && if want_2a {
                        e.code == code::PHASE2A && unannounced == 0
                    } else {
                        bare_mcast && unannounced == 1
                    };
                if hit {
                    return (e.time, r.coord, r.learners[1]);
                }
                match e.code {
                    code::DECIDE => unannounced += 1,
                    code::PHASE2A => unannounced = 0,
                    _ if bare_mcast => unannounced = 0,
                    _ => {}
                }
            }
            panic!("no suitable multicast for {pos:?}");
        }
        // Partitioned mode: the 2A goes to the partition's group alone,
        // and each decision is announced on the decision group the
        // instant it is taken.
        Position::TwoALearner => (stage(r.coord, code::PHASE2A), r.coord, own),
        Position::DecisionLearner => (stage(r.coord, code::DECIDE), r.coord, own),
        Position::DecisionForeign => {
            let other = *r.learners.iter().find(|l| !delivers(l)).expect("a foreign learner");
            (stage(r.coord, code::DECIDE), r.coord, other)
        }
    }
}

/// What a run's counters say about repairs.
#[derive(Debug, Default, PartialEq)]
struct Repairs {
    retrans: u64,
    re2a: u64,
    resubmit: u64,
    spurious: u64,
    /// 2Bs asked for again on the link that lost them.
    ask_2b: u64,
    /// … of which the predecessor had not sent, so sent nothing.
    ask_2b_unmet: u64,
}

fn repairs(sim: &Sim) -> Repairs {
    let sum = |n| sim.metrics().sum(n);
    Repairs {
        retrans: sum("rp.retrans"),
        re2a: sum("rp.re2a"),
        resubmit: sum("rp.resubmit"),
        spurious: sum("rp.repair_spurious"),
        ask_2b: sum("rp.ask_2b"),
        ask_2b_unmet: sum("rp.ask_2b_unmet"),
    }
}

/// How long after `drop` every learner was delivering again: the end,
/// relative to the drop, of the longest delivery gap at any learner
/// that spans the drop or starts within 5 ms of it (the first such gap
/// when the drop stalled nobody). Also returns that gap's length.
fn resume_after(sim: &Sim, r: &Ring, drop: Time) -> (Dur, Dur) {
    let horizon = Dur::millis(5);
    let events = sim.probe_events();
    let mut worst = (Dur::ZERO, Dur::ZERO);
    for &l in &r.learners {
        let times: Vec<Time> = events
            .iter()
            .filter(|e| e.node == l.0 as u32 && e.code == code::DELIVER)
            .map(|e| e.time)
            .collect();
        for w in times.windows(2).filter(|w| w[1] >= drop && w[0] <= drop + horizon) {
            if w[1].since(w[0]) > worst.1 {
                worst = (w[1].saturating_since(drop), w[1].since(w[0]));
            }
        }
    }
    worst
}

/// Order, integrity, and everything proposed delivered at every learner
/// it is addressed to.
fn check_safety_and_completeness(sim: &Sim, r: &Ring) {
    let log = r.log.lock().unwrap();
    let mut sent = HashSet::new();
    for &p in &r.proposers {
        for seq in 0..sim.metrics().counter(p, metric::PROPOSED) {
            sent.insert(MsgId(((p.0 as u64) << 40) | seq));
        }
    }
    log.check_integrity(&sent).expect("integrity");
    if !r.partitioned {
        log.check_total_order().expect("total order");
        for (idx, l) in r.learners.iter().enumerate() {
            assert_eq!(log.sequence(idx).len(), sent.len(), "{l:?} delivered everything");
        }
    } else {
        log.check_partial_order().expect("partial order");
        for (idx, l) in r.learners.iter().enumerate() {
            let mine = sim.metrics().counter(r.proposers[idx], metric::PROPOSED) as usize;
            assert_eq!(log.sequence(idx).len(), mine, "{l:?} delivered its partition");
        }
    }
    // Every proposer that sees its own deliveries saw all of them, so
    // nothing is left unacknowledged.
    let own: u64 = r
        .proposers
        .iter()
        .filter(|p| r.learners.contains(p))
        .map(|&p| sim.metrics().counter(p, metric::PROPOSED))
        .sum();
    assert_eq!(sim.metrics().latency(metric::LATENCY).count as u64, own);
    assert_eq!(sim.metrics().sum("rp.dedup_evict"), 0);
}

/// One cell of the matrix: `pos` in `deploy` with `msg_bytes`
/// messages, deliveries to resume within `bound`.
fn cell(deploy: Deploy, msg_bytes: u32, pos: Position, bound: Dur) {
    let (dry, ring) = run(deploy, msg_bytes, FaultPlan::new());
    assert_eq!(repairs(&dry), Repairs::default(), "a loss-free run repairs nothing");
    let (t, x, y) = locate(pos, &dry.probe_events(), &ring);
    let (sim, ring) = run(deploy, msg_bytes, FaultPlan::new().drop_at(t, x, y));
    let got = repairs(&sim);
    let (resumed, gap) = resume_after(&sim, &ring, t);
    if std::env::var("LOSS_MATRIX_PRINT").is_ok() {
        println!(
            "{msg_bytes} B {pos:?}: delivering again {resumed:?} after the drop (gap {gap:?}); \
             {got:?}"
        );
    }
    assert_eq!(sim.metrics().sum("net.part_drop"), 1, "{pos:?}: exactly one datagram dropped");
    assert_eq!(got, expected_repair(pos), "{pos:?}: one repair");
    if let Some(bytes) = reply_bytes(pos, msg_bytes) {
        // The learner's loss changes nothing else an acceptor sends.
        let extra = ring_sent_bytes(&sim, &ring) - ring_sent_bytes(&dry, &ring);
        assert_eq!(extra, bytes, "{pos:?}: the repair carries what is missing and no more");
    }
    assert!(
        resumed <= bound,
        "{pos:?}: deliveries resumed {resumed:?} after the drop (gap {gap:?})"
    );
    check_safety_and_completeness(&sim, &ring);
}

const RING_POSITIONS: [Position; 6] = [
    Position::TwoAFirst,
    Position::TwoAMid,
    Position::TwoBFirstHop,
    Position::TwoBLastHop,
    Position::TwoALearner,
    Position::DecisionLearner,
];

#[test]
fn classic_matrix() {
    cell(deploy_classic, MSG_BYTES, Position::Proposal, RESUME_WITHIN);
    for pos in RING_POSITIONS {
        cell(deploy_classic, MSG_BYTES, pos, RESUME_WITHIN);
    }
}

#[test]
fn partitioned_matrix() {
    // No `Proposal` cell: the injectors stand for external clients, and
    // the timed resend belongs to the paced proposer the classic matrix
    // covers (the same code whatever the deployment).
    for pos in RING_POSITIONS {
        cell(deploy_partitioned, MSG_BYTES, pos, RESUME_WITHIN);
    }
    cell(deploy_partitioned, MSG_BYTES, Position::DecisionForeign, RESUME_WITHIN);
}

/// The benchmark's `mring_stream` shape exactly (8 KB, 600 Mb/s): the
/// same repairs; every transfer takes longer.
#[test]
fn classic_matrix_at_the_benchmark_message_size() {
    cell(deploy_classic, MSG_BYTES_8K, Position::Proposal, RESUME_WITHIN_8K);
    for pos in RING_POSITIONS {
        cell(deploy_classic, MSG_BYTES_8K, pos, RESUME_WITHIN_8K);
    }
}

/// Behind the order-triggered repair of each link stand two more lines:
/// the coordinator's ring-trip re-2A, and behind that the flow tick.
/// Lose a 2B on the first hop and the first acceptor's resend of it,
/// and the re-2A recovers within the three ring trips it costs; lose
/// the first acceptor's copy of that re-2A as well, and only the tick's
/// sweep is left, 50 to 150 ms later.
#[test]
fn lost_repair_falls_back_to_the_flow_tick() {
    let (dry, ring) = run(deploy_classic, MSG_BYTES, FaultPlan::new());
    let (t, x, y) = locate(Position::TwoBFirstHop, &dry.probe_events(), &ring);
    let first = || FaultPlan::new().drop_at(t, x, y);
    // The run with the first drop shows when the first acceptor sends
    // that 2B again: its second `PHASE2B` probe of the instance.
    let (once, ring) = run(deploy_classic, MSG_BYTES, first());
    let events = once.probe_events();
    let at = |n: NodeId| move |e: &&ProbeEvent| e.node == n.0 as u32;
    let k = events.iter().filter(at(ring.a0)).find(|e| e.code == code::PHASE2B && e.time == t);
    let k = instance_of(k.expect("the dropped 2B"));
    let resend_at = events
        .iter()
        .filter(at(ring.a0))
        .find(|e| e.code == code::PHASE2B && instance_of(e) == k && e.time > t)
        .expect("the 2B sent again")
        .time;
    assert!(resend_at.since(t) < RESUME_WITHIN);
    let second = || first().drop_at(resend_at, ring.a0, ring.a1);

    // The second line: the ring-trip re-2A, the coordinator's first
    // payload multicast after the drop that opens no new instance.
    let (twice, ring) = run(deploy_classic, MSG_BYTES, second());
    assert_eq!(twice.metrics().sum("net.part_drop"), 2);
    let got = repairs(&twice);
    // The instance's two 2Bs asked for again (the one the first hop
    // lost, sent again and lost again; the last acceptor's, never sent)
    // and the re-2A that restarts the relay.
    let asked = Repairs { retrans: 1, ask_2b: 2, ask_2b_unmet: 1, ..Repairs::default() };
    assert_eq!(got, Repairs { re2a: 1, ..asked }, "the ring-trip re-2A");
    let (resumed, _) = resume_after(&twice, &ring, t);
    assert!(resumed <= RE2A_WITHIN, "recovered by the re-2A: {resumed:?}");
    check_safety_and_completeness(&twice, &ring);
    let events = twice.probe_events();
    let opens_instance = |when: Time| {
        events.iter().filter(at(ring.coord)).any(|e| e.code == code::PHASE2A && e.time == when)
    };
    let re2a_at = events
        .iter()
        .filter(at(ring.coord))
        .find(|e| {
            e.code == code::NET_SEND
                && e.time > t
                && send_shape(e).0 > 1
                && send_shape(e).1
                && !opens_instance(e.time)
        })
        .expect("the ring-trip re-2A")
        .time;

    // The backstop: the tick's sweep.
    let (sim, ring) =
        run(deploy_classic, MSG_BYTES, second().drop_at(re2a_at, ring.coord, ring.a0));
    assert_eq!(sim.metrics().sum("net.part_drop"), 3);
    let got = repairs(&sim);
    assert_eq!(got, Repairs { re2a: 2, ..asked }, "the re-2A, then the tick's");
    let (resumed, _) = resume_after(&sim, &ring, t);
    assert!(
        resumed > Dur::millis(50) && resumed < Dur::millis(160),
        "recovered by the flow tick, not sooner or later: {resumed:?}"
    );
    check_safety_and_completeness(&sim, &ring);
}

/// What a scripted ring neighbour sends: `(when, to whom, what, wire
/// bytes)`.
type Sends = Vec<(Time, NodeId, MMsg, u32)>;
/// The `Phase2b`s a scripted neighbour received: `(when, instance)`.
type Got2b = Rc<RefCell<Vec<(Time, u64)>>>;

/// A ring neighbour that sends what it is told and keeps the 2Bs it
/// receives.
struct Script {
    sends: Sends,
    got_2b: Got2b,
}

impl Actor for Script {
    fn on_start(&mut self, ctx: &mut Ctx) {
        for (i, (at, ..)) in self.sends.iter().enumerate() {
            ctx.set_timer(at.since(ctx.now()), TimerToken(i as u64));
        }
    }
    fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
        if let Some(MMsg::Phase2b { instance, .. }) = env.payload.downcast_ref() {
            self.got_2b.borrow_mut().push((ctx.now(), instance.0));
        }
    }
    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
        let (_, to, msg, bytes) = self.sends[token.0 as usize].clone();
        ctx.udp_send(to, msg, bytes);
    }
}

/// A ring of three that votes under `storage`, where only position
/// `real` runs M-Ring and the other two send what `script` lists for
/// them (given the ring and the scripted node). Runs 20 ms; returns
/// the run, the ring, and the 2Bs each position received.
fn scripted_ring(
    storage: StorageMode,
    real: usize,
    script: impl Fn(&[NodeId], NodeId) -> Sends,
) -> (Sim, Vec<NodeId>, Vec<Got2b>) {
    let mut sim = Sim::new(SimConfig { seed: SEED, ..SimConfig::default() });
    let ring: Vec<NodeId> = (0..3).map(|_| sim.add_node(Box::new(Idle))).collect();
    let mut cfg = MRingConfig::new(ring.clone(), Vec::new(), sim.add_group());
    cfg.storage = storage;
    let got: Vec<Got2b> = ring.iter().map(|_| Got2b::default()).collect();
    for (pos, &n) in ring.iter().enumerate() {
        let actor: Box<dyn Actor> = if pos == real {
            Box::new(MRingProcess::new(cfg.clone(), n, None, None))
        } else {
            Box::new(Script { sends: script(&ring, n), got_2b: got[pos].clone() })
        };
        sim.replace_actor(n, actor);
    }
    sim.run_until(Time::from_millis(20));
    (sim, ring, got)
}

/// The round a deployment starts in (Phase 1 pre-executed by the
/// coordinator, the last of the three).
fn first_round() -> Round {
    Round::new(1, 2)
}

fn one_value(bytes: u32) -> Batch {
    let v = Value {
        id: MsgId(1),
        proposer: NodeId(9),
        seq: 0,
        bytes,
        submitted: Time::ZERO,
        mask: ALL_PARTITIONS,
    };
    BatchData::new(vec![v])
}

/// A 2B is sent again only if it was sent. A mid-ring acceptor that
/// holds a 2B because its 2A was lost, asked for that 2B, sends nothing
/// until its own vote is released: after the 2A's repair, and where
/// votes are written, after the write.
#[test]
fn a_held_2b_is_not_sent_again_before_its_vote_is_released() {
    let (t_2b, t_ask, t_repair, t_ask_writing, t_ask_after) =
        (us(1_000), us(2_000), us(3_000), us(3_300), us(10_000));
    let round = first_round();
    for storage in [StorageMode::InMemory, StorageMode::SyncDisk] {
        let (sim, ring, got) = scripted_ring(storage, 1, |ring, me| {
            let a1 = ring[1];
            let ask = |at| {
                let ask = MMsg::Resend2b {
                    round,
                    instances: vec![InstanceId(0)],
                    overtaken_by: InstanceId(1),
                };
                (at, a1, ask, CTL_BYTES + 8)
            };
            if me == ring[0] {
                let batch = one_value(8192);
                let repair = MMsg::RetransRep {
                    instance: InstanceId(0),
                    batch,
                    decided: false,
                    round,
                    skip: 0,
                    mask: ALL_PARTITIONS,
                };
                vec![
                    (t_2b, a1, MMsg::Phase2b { instance: InstanceId(0), round }, CTL_BYTES),
                    (t_repair, a1, repair, 8192),
                ]
            } else {
                vec![ask(t_ask), ask(t_ask_writing), ask(t_ask_after)]
            }
        });
        let written = storage == StorageMode::SyncDisk;
        let released =
            t_repair + if written { sim.config().disk_write_time(8192) } else { Dur::ZERO };
        let at_coord = got[2].borrow();
        assert!(
            at_coord.iter().all(|&(at, i)| i == 0 && at > released),
            "{storage:?}: {at_coord:?}"
        );
        let count = |name| sim.metrics().counter(ring[1], name);
        // The ask before the repair finds the 2B held, and so does the
        // one during the write; every later one is answered.
        let unmet = if written { 2 } else { 1 };
        assert_eq!(count("rp.ask_2b_unmet"), unmet, "{storage:?}");
        assert_eq!(count("rp.retrans"), 3 - unmet, "{storage:?}");
        assert_eq!(at_coord.len() as u64, 1 + 3 - unmet, "{storage:?}: released once, then resent");
    }
}

/// The first acceptor sends a 2B again only if it sent it before the 2B
/// that overtook it: not one it sent after (still on its way), and not
/// one of an instance it never voted on.
#[test]
fn the_first_acceptor_sends_again_only_2bs_sent_before_the_overtaking_one() {
    let round = first_round();
    let two_a = |instance| MMsg::Phase2a {
        instance: InstanceId(instance),
        round,
        batch: one_value(8192),
        decisions: Rc::new(Vec::new()),
        gc_upto: InstanceId(0),
        skip: 0,
        mask: ALL_PARTITIONS,
        decided_below: InstanceId(0),
    };
    for storage in [StorageMode::InMemory, StorageMode::SyncDisk] {
        let (sim, ring, got) = scripted_ring(storage, 0, |ring, me| {
            let a0 = ring[0];
            if me == ring[2] {
                // Instance 1's 2A, then 0's, then 2's: the 2Bs leave in
                // that order.
                let at = [(1_000, 1), (2_000, 0), (3_000, 2)];
                at.into_iter().map(|(t, i)| (us(t), a0, two_a(i), 8192)).collect()
            } else if me == ring[1] {
                let ask = |instances: &[u64], by| MMsg::Resend2b {
                    round,
                    instances: instances.iter().copied().map(InstanceId).collect(),
                    overtaken_by: InstanceId(by),
                };
                vec![
                    (us(5_000), a0, ask(&[0], 1), CTL_BYTES + 8),
                    (us(6_000), a0, ask(&[1, 3], 4), CTL_BYTES + 16),
                ]
            } else {
                Vec::new()
            }
        });
        let at_a1: Vec<u64> = got[1].borrow().iter().map(|&(_, i)| i).collect();
        assert_eq!(at_a1, [1, 0, 2, 1], "{storage:?}: the three 2Bs, then 1's again");
        let count = |name| sim.metrics().counter(ring[0], name);
        assert_eq!((count("rp.retrans"), count("rp.ask_2b_unmet")), (1, 2), "{storage:?}");
    }
}

fn us(micros: u64) -> Time {
    Time::ZERO + Dur::micros(micros)
}

/// Reordering loses nothing, so every repair it provokes is wasted, and
/// so is every 2B it has asked for: there may be at most one of either
/// per reordered datagram, the spurious repairs are counted, and
/// nothing is delivered twice or out of order.
#[test]
fn reorder_burst_repairs_little_and_breaks_nothing() {
    let plan = FaultPlan::new().reorder_burst(Time::from_millis(10), Time::from_millis(50), 0.02);
    let (sim, ring) = run(deploy_classic, MSG_BYTES, plan);
    let reordered = sim.metrics().sum("net.reordered");
    assert!(reordered > 50, "the knob fired ({reordered})");
    let got = repairs(&sim);
    assert!(
        got.retrans + got.re2a + got.resubmit + got.ask_2b <= reordered,
        "{got:?} for {reordered} reordered datagrams"
    );
    assert!(got.spurious <= got.retrans + got.re2a, "{got:?}");
    check_safety_and_completeness(&sim, &ring);
}

/// Satellite of the proposal resend: after a 5 s, 1e-4-loss run every
/// proposal — the ones lost before the coordinator had them included —
/// was delivered at its proposer (so its `unacked` map is empty: an
/// entry leaves it exactly when the proposer records its latency), and
/// no learner's dedup window ever overflowed behind a hole.
#[test]
fn lost_proposals_are_resent_and_the_dedup_window_stays_quiet() {
    let mut sim = Sim::new(SimConfig { seed: 11, random_loss: 1e-4, ..SimConfig::default() });
    let stop = Time::from_secs(5);
    let opts = MRingOptions {
        ring_size: 3,
        n_learners: 2,
        n_proposers: 2,
        proposer_rate_bps: 300_000_000,
        msg_bytes: MSG_BYTES_8K,
        proposer_stop: Some(stop),
        ..MRingOptions::default()
    };
    let d = deploy_mring(&mut sim, &opts, |_| {});
    sim.run_until(stop + Dur::secs(1));
    assert!(sim.metrics().sum("rp.resubmit") > 0, "some proposal was lost and resent");
    assert_eq!(sim.metrics().sum("rp.dedup_evict"), 0);
    let proposed = sim.metrics().sum(metric::PROPOSED);
    assert_eq!(sim.metrics().latency(metric::LATENCY).count as u64, proposed);
    let log = d.log.lock().unwrap();
    log.check_total_order().expect("total order");
    for idx in 0..d.all_learners.len() {
        assert_eq!(log.sequence(idx).len() as u64, proposed);
    }
}

proptest! {
    // Each case simulates 2 s of cluster time; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Whatever the loss rate up to 2 %, everything proposed is
    /// delivered everywhere, in one order, once. The rates stay where a
    /// ring losing 2 % of its datagrams keeps up: an instance whose one
    /// fast repair is lost as well waits for a tick with every delivery
    /// behind it, and at 2 % that happens to one instance in 200.
    #[test]
    fn everything_proposed_is_delivered_under_random_loss(
        seed in 0u64..10_000,
        loss_bp in 0u32..200, // 0..2 % per datagram copy
        rate_mbps in 20u64..150,
    ) {
        let cfg = SimConfig { seed, random_loss: loss_bp as f64 / 10_000.0, ..SimConfig::default() };
        let mut sim = Sim::new(cfg);
        let opts = MRingOptions {
            ring_size: 3,
            n_learners: 2,
            n_proposers: 2,
            proposer_rate_bps: rate_mbps * 1_000_000 / 2,
            msg_bytes: MSG_BYTES_8K,
            proposer_stop: Some(Time::from_millis(300)),
            ..MRingOptions::default()
        };
        let d = deploy_mring(&mut sim, &opts, |_| {});
        sim.run_until(Time::from_secs(2));
        let log = d.log.lock().unwrap();
        log.check_total_order().map_err(|e| TestCaseError::fail(e.to_string()))?;
        let mut sent = HashSet::new();
        for &p in &d.proposers {
            for seq in 0..sim.metrics().counter(p, metric::PROPOSED) {
                sent.insert(MsgId(((p.0 as u64) << 40) | seq));
            }
        }
        log.check_integrity(&sent).map_err(|e| TestCaseError::fail(e.to_string()))?;
        for idx in 0..d.all_learners.len() {
            prop_assert_eq!(
                log.sequence(idx).len(),
                sent.len(),
                "learner {} is missing messages (seed {}, loss {} bp, {} Mb/s)",
                idx, seed, loss_bp, rate_mbps
            );
        }
    }
}
