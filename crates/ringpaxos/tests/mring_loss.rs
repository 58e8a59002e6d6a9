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
//! that no instance reaches any learner later than in the fault-free
//! run by more than [`delay_bound`] names for the position (the loss's
//! own cost), that the repairs sent are the ones [`expected_repair`]
//! names (where a learner asked, also that the reply carried what it
//! lacked and no more), and that order and integrity hold with
//! everything proposed delivered.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::rc::Rc;

use abcast::{metric, MsgId, SharedLog};
use paxos::msg::{InstanceId, Round};
use proptest::prelude::*;
use ringpaxos::cluster::{deploy_mring, layout_mring, MRingOptions};
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
/// instance arrives there one message gap later: a lost 2B is covered
/// by the next 2B's vote floor, a lost 2A fetched from a ring neighbour
/// within a round trip; a learner's loss is fetched from its
/// preferential acceptor.
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
    let opts =
        MRingOptions { ring_size: 3, n_learners: 2, n_proposers: 0, ..MRingOptions::default() };
    let layout = layout_mring(sim, &opts, &[], Some(vec![0b01, 0b10]), |cfg| {
        cfg.packet_bytes = msg_bytes;
    });
    let d = layout.install(sim, |p, _, _| Some(Box::new(p)));
    let proposers = (0..2u64)
        .map(|p| {
            sim.add_node(Box::new(Injector {
                coordinator: d.coordinator(),
                mask: 1 << p,
                bytes: msg_bytes,
                first: MSG_GAP * p,
                period: MSG_GAP * 2,
                seq: 0,
            }))
        })
        .collect();
    let ring = &d.ring;
    let (a0, a1, coord) = (ring[0], ring[1], ring[2]);
    Ring { a0, a1, coord, partitioned: true, learners: d.learners, proposers, log: d.log }
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

/// What each position costs: one repair message, or none where the loss
/// is a 2B. A lost 2A is fetched from a ring neighbour (the `retrans`):
/// the first acceptor asks its successor, a mid-ring acceptor its
/// predecessor. A lost 2B is covered by the next 2B on its hop, whose
/// vote floor passes it (`floor_2b`); the floors downstream cover it as
/// one sent, not one lost, so only the receiver of the lost hop counts
/// it.
fn expected_repair(pos: Position) -> Repairs {
    let r = Repairs::default();
    match pos {
        Position::Proposal => Repairs { resubmit: 1, ..r },
        Position::TwoBFirstHop | Position::TwoBLastHop => Repairs { floor_2b: 1, ..r },
        Position::TwoAFirst
        | Position::TwoAMid
        | Position::TwoALearner
        | Position::DecisionLearner
        | Position::DecisionForeign => Repairs { retrans: 1, ..r },
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
    /// 2Bs a vote floor stood in for: lost on the link, or not yet come.
    floor_2b: u64,
}

fn repairs(sim: &Sim) -> Repairs {
    let sum = |n| sim.metrics().sum(n);
    Repairs {
        retrans: sum("rp.retrans"),
        re2a: sum("rp.re2a"),
        resubmit: sum("rp.resubmit"),
        spurious: sum("rp.repair_spurious"),
        floor_2b: sum("rp.floor_2b"),
    }
}

/// The most a drop at `pos` may delay any instance at any learner,
/// with `msg_bytes` messages, in a classic or a `partitioned` ring:
/// what each cell reads, with some headroom. A lost 2B is covered by
/// the next 2B on its hop, one message gap later: in a classic ring its
/// decision still rides on the 2A it would have, so it costs nothing;
/// a partitioned ring announces each decision the instant it is taken,
/// so it costs that gap. A lost 2A costs an ask and the payload's
/// transfer from a ring neighbour: the first acceptor asks on 2A order,
/// one message gap after the loss; a mid-ring acceptor as soon as 2A
/// order or its predecessor's 2B shows the loss. The bounds of the 2B
/// cells and of the classic `TwoAMid` sit below what a repair by asking
/// costs there (a round trip: 0.21 / 0.29 ms for a classic 2B at 4 /
/// 8 KB, 0.37 ms partitioned; 0.43 / 0.29 ms for a mid-ring 2A asked
/// for only on its predecessor's 2B). The learner positions cost the
/// round trip to the preferential acceptor. A lost proposal shifts
/// every later instance by one message gap, and the proposal itself
/// lands in another instance; its resend shows in no bound here.
fn delay_bound(pos: Position, partitioned: bool, msg_bytes: u32) -> Dur {
    use Position::*;
    let micros = match (partitioned, msg_bytes == MSG_BYTES_8K, pos) {
        (false, _, TwoBFirstHop | TwoBLastHop) => 0,
        (false, false, Proposal) => 250,
        (false, false, TwoAFirst) => 450,
        (false, false, TwoAMid) => 250,
        (false, false, TwoALearner) => 300,
        (false, false, DecisionLearner | DecisionForeign) => 450,
        (false, true, Proposal) => 400,
        (false, true, TwoAFirst) => 325,
        (false, true, TwoAMid) => 100,
        (false, true, TwoALearner) => 550,
        (false, true, DecisionLearner | DecisionForeign) => 650,
        (true, _, TwoBFirstHop | TwoBLastHop) => 175,
        (true, _, DecisionForeign) => 250,
        (true, _, TwoALearner) => 350,
        (true, _, Proposal | TwoAFirst | TwoAMid | DecisionLearner) => 400,
    };
    Dur::micros(micros)
}

/// Each learner's deliveries in `s`, in time order: `(when, node,
/// instance)`.
fn deliveries(s: &Sim, r: &Ring) -> Vec<(Time, u32, u64)> {
    let learner = |e: &&ProbeEvent| r.learners.iter().any(|l| l.0 as u32 == e.node);
    let events = s.probe_events();
    let delivered = events.iter().filter(|e| e.code == code::DELIVER).filter(learner);
    delivered.map(|e| (e.time, e.node, instance_of(e))).collect()
}

/// When each learner delivered each instance in the fault-free run.
fn dry_times(dry: &Sim, r: &Ring) -> HashMap<(u32, u64), Time> {
    deliveries(dry, r).into_iter().map(|(t, node, i)| ((node, i), t)).collect()
}

/// How long after `drop` every learner was delivering again: the end,
/// relative to the drop, of the longest delivery gap at any learner
/// that spans the drop, or that starts within 5 ms of it and is longer
/// than between the same two deliveries in the fault-free run `dry` (a
/// gap both runs have is the stream's, not the drop's). Also returns
/// that gap's length.
fn resume_after(dry: &Sim, sim: &Sim, r: &Ring, drop: Time) -> (Dur, Dur) {
    let horizon = Dur::millis(5);
    let before = dry_times(dry, r);
    let all = deliveries(sim, r);
    let mut worst = (Dur::ZERO, Dur::ZERO);
    for &l in &r.learners {
        let mine: Vec<(Time, u64)> =
            all.iter().filter(|d| d.1 == l.0 as u32).map(|&(t, _, i)| (t, i)).collect();
        for w in mine.windows(2).filter(|w| w[1].0 >= drop && w[0].0 <= drop + horizon) {
            let gap = w[1].0.since(w[0].0);
            let dry_at = |i| before.get(&(l.0 as u32, i)).copied();
            let dry_gap = dry_at(w[0].1).zip(dry_at(w[1].1)).map(|(a, b)| b.saturating_since(a));
            let lengthened = dry_gap.is_none_or(|d| gap > d);
            if (w[0].0 <= drop || lengthened) && gap > worst.1 {
                worst = (w[1].0.saturating_since(drop), gap);
            }
        }
    }
    worst
}

/// The most any instance reached any learner later in `sim` than in its
/// fault-free run `dry`: what the drop itself cost, whatever else the
/// delivery stream does around it.
fn worst_delay(dry: &Sim, sim: &Sim, r: &Ring) -> Dur {
    let before = dry_times(dry, r);
    let delays = deliveries(sim, r)
        .into_iter()
        .filter_map(|(t, node, i)| Some(t.saturating_since(*before.get(&(node, i))?)));
    delays.max().unwrap_or(Dur::ZERO)
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
    let (resumed, gap) = resume_after(&dry, &sim, &ring, t);
    let delay = worst_delay(&dry, &sim, &ring);
    if std::env::var("LOSS_MATRIX_PRINT").is_ok() {
        println!(
            "{msg_bytes} B {pos:?}: delivering again {resumed:?} after the drop (gap {gap:?}), \
             worst delay {delay:?}; {got:?}"
        );
    }
    assert_eq!(sim.metrics().sum("net.part_drop"), 1, "{pos:?}: exactly one datagram dropped");
    assert_eq!(got, expected_repair(pos), "{pos:?}: one repair");
    let most = delay_bound(pos, ring.partitioned, msg_bytes);
    assert!(delay <= most, "{pos:?}: an instance arrived {delay:?} late (at most {most:?})");
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

/// Behind each link's repair stand two more lines: the coordinator's
/// ring-trip re-2A, and behind that the flow tick. A 2B lost in a
/// stream is covered by the next 2B's vote floor, so what they serve is
/// a repair lost as well, or the last 2B of a burst, which no later 2B
/// follows. Lose the first acceptor's 2A and its successor's repair of
/// it, and the re-2A recovers within the ring trips it costs; lose the
/// first acceptor's copy of that re-2A too, and only the tick's sweep is
/// left, 50 to 150 ms later. And lose the first hop's 2B of the last
/// instance of a burst, and the tick's sweep is all there is.
#[test]
fn lost_repair_falls_back_to_the_flow_tick() {
    let (dry, ring) = run(deploy_classic, MSG_BYTES, FaultPlan::new());
    let (t, x, y) = locate(Position::TwoAFirst, &dry.probe_events(), &ring);
    let first = || FaultPlan::new().drop_at(t, x, y);
    // The run with the first drop shows when the successor sends the
    // repair: its first payload unicast after the drop (no learner asks
    // it for anything here).
    let (once, ring) = run(deploy_classic, MSG_BYTES, first());
    let events = once.probe_events();
    let at = |n: NodeId| move |e: &&ProbeEvent| e.node == n.0 as u32;
    let repair_at = events
        .iter()
        .filter(at(ring.a1))
        .find(|e| e.code == code::NET_SEND && e.time > t && send_shape(e) == (1, true))
        .expect("the repair")
        .time;
    assert!(repair_at.since(t) < RESUME_WITHIN);
    let second = || first().drop_at(repair_at, ring.a1, ring.a0);

    // The second line: the ring-trip re-2A, the coordinator's first
    // payload multicast after the drop that opens no new instance.
    let (twice, ring) = run(deploy_classic, MSG_BYTES, second());
    assert_eq!(twice.metrics().sum("net.part_drop"), 2);
    // The repair sent (and lost), and the re-2A that restarts the relay,
    // which also brings the first acceptor the 2A it asked for.
    let repaired = Repairs { retrans: 1, spurious: 1, ..Repairs::default() };
    assert_eq!(repairs(&twice), Repairs { re2a: 1, ..repaired }, "the ring-trip re-2A");
    let (resumed, _) = resume_after(&dry, &twice, &ring, t);
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
    assert_eq!(repairs(&sim), Repairs { re2a: 2, ..repaired }, "the re-2A, then the tick's");
    let (resumed, _) = resume_after(&dry, &sim, &ring, t);
    assert!(
        resumed > Dur::millis(50) && resumed < Dur::millis(160),
        "recovered by the flow tick, not sooner or later: {resumed:?}"
    );
    check_safety_and_completeness(&sim, &ring);

    // The last 2B of a burst. The partitioned ring's injectors stop at
    // `STOP` and never resend, so no later instance follows at all.
    let (dry, ring) = run(deploy_partitioned, MSG_BYTES, FaultPlan::new());
    let events = dry.probe_events();
    let sent_2b = |e: &&ProbeEvent| e.node == ring.a0.0 as u32 && e.code == code::PHASE2B;
    let t = events.iter().rfind(sent_2b).expect("a 2B").time;
    let (sim, ring) =
        run(deploy_partitioned, MSG_BYTES, FaultPlan::new().drop_at(t, ring.a0, ring.a1));
    assert_eq!(sim.metrics().sum("net.part_drop"), 1);
    assert_eq!(repairs(&sim), Repairs { re2a: 1, ..Repairs::default() }, "the tick's re-2A");
    let delay = worst_delay(&dry, &sim, &ring);
    assert!(
        delay > Dur::millis(50) && delay < Dur::millis(160),
        "the last instance recovered by the flow tick: {delay:?} late"
    );
    check_safety_and_completeness(&sim, &ring);
}

/// What a scripted ring neighbour sends: `(when, to whom, what, wire
/// bytes)`.
type Sends = Vec<(Time, NodeId, MMsg, u32)>;
/// The `Phase2b`s a scripted neighbour received, in arrival order:
/// `(when, instance, round, through)`.
type Got2b = Rc<RefCell<Vec<(Time, u64, Round, u64)>>>;

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
        if let Some(&MMsg::Phase2b { instance, round, through }) = env.payload.downcast_ref() {
            self.got_2b.borrow_mut().push((ctx.now(), instance.0, round, through.0));
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
/// the ring and the 2Bs each position received.
///
/// Wired by hand, not through `ringpaxos::cluster`: the scripted
/// positions must be the only senders the real one hears, so no node
/// subscribes to the ring's group and only one process is M-Ring.
fn scripted_ring(
    storage: StorageMode,
    real: usize,
    script: impl Fn(&[NodeId], NodeId) -> Sends,
) -> (Vec<NodeId>, Vec<Got2b>) {
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
    (ring, got)
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

/// The coordinator's 8 KB 2A of `instance` at `round`.
fn two_a(instance: u64, round: Round) -> MMsg {
    MMsg::Phase2a {
        instance: InstanceId(instance),
        round,
        batch: one_value(8192),
        decisions: Rc::new(Vec::new()),
        gc_upto: InstanceId(0),
        skip: 0,
        mask: ALL_PARTITIONS,
        decided_below: InstanceId(0),
    }
}

/// A `Phase2b` of `instance` at `round` with floor `through`, to `to` at
/// `at` µs.
fn two_b(
    at: u64,
    to: NodeId,
    instance: u64,
    round: Round,
    through: u64,
) -> (Time, NodeId, MMsg, u32) {
    let (instance, through) = (InstanceId(instance), InstanceId(through));
    (us(at), to, MMsg::Phase2b { instance, round, through }, CTL_BYTES)
}

/// Replays what a receiver makes of the 2Bs one sender sent it, in
/// arrival order: every instance a floor newly covers — from the
/// sender's last floor at that round to this one, none on a new round —
/// must have come in a 2B of that round by then.
fn assert_floors_cover_only_sent(got: &[(Time, u64, Round, u64)]) {
    let mut link: Option<(Round, u64)> = None;
    let mut sent = BTreeSet::new();
    for &(_, instance, round, through) in got {
        sent.insert((round, instance));
        let known = match link {
            Some((r, known)) if r == round => known,
            _ => through,
        };
        for k in known..through {
            assert!(sent.contains(&(round, k)), "floor {through} at {round:?} passes {k}: {got:?}");
        }
        link = Some((round, known.max(through)));
    }
}

/// A vote floor passes only 2Bs sent. A mid-ring acceptor gets the 2As
/// of 0, 1, 3, 2 and 4, in that order (5's is lost), and its
/// predecessor's 2Bs of 0, 1, 3 and 4 together, of 2 later, and of 5
/// last. Its floor must not pass 2 — voted on, but its 2B waits for the
/// predecessor's, and under `SyncDisk` the votes of 1, 3 and 4 wait for
/// their write when 0's 2B leaves — until 2's 2B leaves, and never 5,
/// an instance it has not voted on.
#[test]
fn a_floor_passes_only_2bs_sent() {
    let round = first_round();
    for storage in [StorageMode::InMemory, StorageMode::SyncDisk] {
        let (_, got) = scripted_ring(storage, 1, |ring, me| {
            let a1 = ring[1];
            if me == ring[2] {
                let order = [0, 1, 3, 2, 4].into_iter().enumerate();
                order
                    .map(|(n, i)| (us(1_000 + 100 * n as u64), a1, two_a(i, round), 8192))
                    .collect()
            } else if me == ring[0] {
                // A predecessor that held 2: floor 2 until 2's 2B leaves.
                let b = |at, i, through| two_b(at, a1, i, round, through);
                vec![
                    b(1_500, 0, 1),
                    b(1_500, 1, 2),
                    b(1_500, 3, 2),
                    b(1_500, 4, 2),
                    b(5_000, 2, 5),
                    b(5_100, 5, 6),
                ]
            } else {
                Vec::new()
            }
        });
        let at_coord = got[2].borrow();
        let sent: Vec<(u64, u64)> =
            at_coord.iter().map(|&(_, i, _, through)| (i, through)).collect();
        assert_eq!(sent, [(0, 1), (1, 2), (3, 2), (4, 2), (2, 5)], "{storage:?}");
        assert_floors_cover_only_sent(&at_coord);
    }
}

/// A floor vouches for one round. Round 1: a mid-ring acceptor relays
/// 0 to 4 and 6, its predecessor holding 5 (floor 5). Round 2 (a
/// takeover by the same coordinator's next round) re-proposes 5 and 6
/// and proposes 7 and 8, and the predecessor's first 2Bs there are 8's
/// (floor 9), then 5's. Neither floor of round 1 covers anything at
/// round 2: the acceptor relays 8 and 5 alone, and its own floor there
/// starts at 8, not at the round-1 sends above 5.
#[test]
fn a_floor_from_an_old_round_covers_nothing_at_the_new_one() {
    let (r1, r2) = (first_round(), Round::new(2, 2));
    let (_, got) = scripted_ring(StorageMode::InMemory, 1, |ring, me| {
        let a1 = ring[1];
        if me == ring[2] {
            let old = (0..7).map(|i| (us(1_000 + 50 * i), a1, two_a(i, r1), 8192));
            let new = (5..9).map(|i| (us(3_000 + 50 * i), a1, two_a(i, r2), 8192));
            old.chain(new).collect()
        } else if me == ring[0] {
            let mut sends: Sends = (0..5).map(|i| two_b(1_500, a1, i, r1, i + 1)).collect();
            sends.push(two_b(1_500, a1, 6, r1, 5));
            sends.extend([two_b(4_000, a1, 8, r2, 9), two_b(4_100, a1, 5, r2, 9)]);
            sends
        } else {
            Vec::new()
        }
    });
    let at_coord = got[2].borrow();
    let at = |round| -> Vec<(u64, u64)> {
        at_coord.iter().filter(|e| e.2 == round).map(|&(_, i, _, through)| (i, through)).collect()
    };
    assert_eq!(at(r1), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (6, 5)]);
    assert_eq!(at(r2), [(8, 9), (5, 9)]);
    assert_floors_cover_only_sent(&at_coord);
}

fn us(micros: u64) -> Time {
    Time::ZERO + Dur::micros(micros)
}

/// The 2As the ring's acceptors asked a neighbour for: their unicasts
/// bigger than a bare control message and smaller than a payload, which
/// only a `RetransReq` is.
fn acceptor_asks(sim: &Sim, r: &Ring) -> u64 {
    let events = sim.probe_events();
    let ask = |e: &&ProbeEvent| {
        let bytes = e.arg & 0xFFFF_FFFF;
        e.code == code::NET_SEND && send_shape(e) == (1, false) && bytes > CTL_BYTES as u64
    };
    let from_acceptor = |e: &&ProbeEvent| [r.a0, r.a1].iter().any(|n| n.0 as u32 == e.node);
    events.iter().filter(from_acceptor).filter(ask).count() as u64
}

/// Reordering loses nothing, so every repair it provokes is wasted — a
/// repair message, a 2A asked of a ring neighbour, a 2B a floor stood in
/// for: there may be at most one of them per reordered datagram, the
/// spurious repairs are counted, and nothing is delivered twice or out
/// of order.
#[test]
fn reorder_burst_repairs_little_and_breaks_nothing() {
    let plan = FaultPlan::new().reorder_burst(Time::from_millis(10), Time::from_millis(50), 0.02);
    let (sim, ring) = run(deploy_classic, MSG_BYTES, plan);
    let reordered = sim.metrics().sum("net.reordered");
    assert!(reordered > 50, "the knob fired ({reordered})");
    let got = repairs(&sim);
    let asks = acceptor_asks(&sim, &ring);
    if std::env::var("LOSS_MATRIX_PRINT").is_ok() {
        println!("reorder: {got:?}, {asks} asks, {reordered} reordered");
    }
    assert!(
        got.retrans + got.re2a + got.resubmit + got.floor_2b + asks <= reordered,
        "{got:?} and {asks} asks for {reordered} reordered datagrams"
    );
    assert!(got.spurious <= got.retrans + got.re2a + asks, "{got:?} and {asks} asks");
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
