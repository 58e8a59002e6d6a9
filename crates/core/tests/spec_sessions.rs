//! The session tier speculates (ISSUE 16): at the benchmark's shape —
//! 8 tables × 125 k open-loop Zipf(0.99) sessions over a 4 × 2 partitioned
//! tree, seed 11 — a replica executes on 2A arrival and answers on the
//! decision, every speculation is confirmed, and the replicas of a
//! partition end in the same state, with and without datagram loss, and
//! under loss no query is answered twice. A coordinator takeover
//! re-proposes each command to its own partition only (also at seed 2011).

use abcast::MsgId;
use hpsmr_core::deploy::{
    deploy_smr_sessions, PartitionOptions, SessionDeployment, SessionOptions,
};
use hpsmr_core::{ReplicaState, SmrResponse, SMR_ROLLBACKS, SMR_SPEC_EXEC, SMR_SPEC_STALE};
use ringpaxos::msg::MMsg;
use simnet::prelude::*;
use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::{Rc, Weak};
use std::sync::{Arc, Mutex};
use workload::{
    WorkloadKind, SESSIONS_ABANDONED, SESSIONS_COMPLETED, SESSIONS_SHED, SESSIONS_SUBMITTED,
    SESSION_LATENCY,
};

const N_TABLES: usize = 8;
const N_PARTITIONS: usize = 4;

fn deploy(kind: WorkloadKind, rate: f64, stop_s: u64, seed: u64) -> (Sim, SessionDeployment) {
    let mut sim = Sim::new(SimConfig { seed, ..SimConfig::default() });
    let opts = SessionOptions {
        kind,
        zipf_s: 0.99,
        n_tables: N_TABLES,
        sessions_per_table: 125_000,
        rate_per_table: rate / N_TABLES as f64,
        partitions: Some(PartitionOptions {
            n: N_PARTITIONS as u32,
            replicas_per: 2,
            cross_pct: 0,
        }),
        stop_at: Some(Time::from_secs(stop_s)),
        ..SessionOptions::default()
    };
    let d = deploy_smr_sessions(&mut sim, &opts);
    (sim, d)
}

/// Replies that reached a table, per command and answering partition.
type Replies = Arc<Mutex<HashMap<(MsgId, u32), u32>>>;

/// A deployed session table, started at deployment, that counts the
/// replies reaching it before handing them on; the timers the table set
/// reach it through the tap.
struct Tap {
    table: Box<dyn Actor>,
    replies: Replies,
}

impl Actor for Tap {
    fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
        if let Some(r) = env.payload.downcast_ref::<SmrResponse>() {
            *self.replies.lock().unwrap().entry((r.id, r.partition)).or_default() += 1;
        }
        self.table.on_message(env, ctx);
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
        self.table.on_timer(token, ctx);
    }
}

/// [`deploy`], with each deployed session table behind a [`Tap`].
fn deploy_tapped(
    kind: WorkloadKind,
    rate: f64,
    stop_s: u64,
    seed: u64,
) -> (Sim, SessionDeployment, Replies) {
    let (mut sim, d) = deploy(kind, rate, stop_s, seed);
    let replies = Replies::default();
    for &t in &d.tables {
        let table = sim.replace_actor(t, Box::new(Idle)).expect("a deployed table");
        sim.replace_actor(t, Box::new(Tap { table, replies: replies.clone() }));
    }
    (sim, d, replies)
}

/// No command reached a table twice from one partition.
fn assert_answered_at_most_once(replies: &Replies, label: &str) {
    let replies = replies.lock().unwrap();
    let twice: Vec<_> = replies.iter().filter(|&(_, &n)| n > 1).collect();
    assert!(twice.is_empty(), "{label}: answered more than once: {twice:?}");
}

/// One warm-up second and a four-second window at `rate` req/s, then a
/// one-second drain; returns the window's session latency.
fn run(kind: WorkloadKind, rate: f64) -> (Sim, SessionDeployment, LatencyStats) {
    let (mut sim, d) = deploy(kind, rate, 5, 11);
    sim.run_until(Time::from_secs(1));
    let _ = sim.metrics_mut().take_latency(SESSION_LATENCY);
    sim.run_until(Time::from_secs(5));
    let lat = sim.metrics().latency(SESSION_LATENCY);
    sim.run_until(Time::from_secs(6));
    (sim, d, lat)
}

fn sum(sim: &Sim, name: &'static str) -> u64 {
    sim.metrics().sum(name)
}

/// Commands each replica delivered, in delivery-log order.
fn delivered(d: &SessionDeployment) -> Vec<u64> {
    let log = d.log.lock().unwrap();
    (0..2 * N_PARTITIONS).map(|i| log.sequence(i).len() as u64).collect()
}

/// Every request was completed, abandoned or shed.
fn assert_settled(sim: &Sim, label: &str) {
    let settled =
        sum(sim, SESSIONS_COMPLETED) + sum(sim, SESSIONS_ABANDONED) + sum(sim, SESSIONS_SHED);
    assert_eq!(sum(sim, SESSIONS_SUBMITTED), settled, "{label}: requests still open");
}

/// At quiescence the replicas of a partition hold the same tree (the same
/// digest), reached through the same number of updates, with nothing
/// speculated left over.
fn assert_replicas_agree(sim: &Sim, d: &SessionDeployment, label: &str) -> Vec<ReplicaState> {
    {
        let log = d.log.lock().unwrap();
        for p in 0..N_PARTITIONS {
            assert_eq!(log.sequence(2 * p), log.sequence(2 * p + 1), "{label}: partition {p}");
        }
    }
    let states = d.replica_states(sim);
    for (p, part) in states.iter().enumerate() {
        assert_eq!(part[0], part[1], "{label}: partition {p} diverged");
        assert_eq!(
            (part[0].speculated, part[0].undo_depth),
            (0, 0),
            "{label}: partition {p} kept speculations past quiescence"
        );
    }
    states.into_iter().map(|part| part[0]).collect()
}

#[test]
fn queries_execute_on_arrival_and_answer_on_the_decision() {
    let (sim, d, lat) = run(WorkloadKind::Queries, 12_000.0);
    // The plain path paid execution after ordering: 897 / 1 095 µs.
    assert!(lat.p50 <= Dur::micros(600), "p50 {}", lat.p50);
    // With a hash of the id picking the responder, two reads in a row
    // landed on one replica half the time: p99 823.3 µs.
    assert!(lat.p99 <= Dur::micros(790), "p99 {}", lat.p99);

    let submitted = sum(&sim, SESSIONS_SUBMITTED);
    assert!(submitted > 55_000, "only {submitted} requests offered");
    assert_eq!(submitted, sum(&sim, SESSIONS_COMPLETED));
    // One replica per partition executes a query (a scan that straddles
    // a partition boundary runs once on either side), and it did so on
    // the 2A: every execution was a speculation, and every one confirmed.
    let executed: u64 = delivered(&d).iter().step_by(2).sum();
    assert!((submitted..submitted + 20).contains(&executed), "{executed} of {submitted}");
    assert_eq!(sum(&sim, SMR_SPEC_EXEC), executed);
    assert_eq!(sum(&sim, SMR_ROLLBACKS), 0);
    assert_eq!(sum(&sim, SMR_SPEC_STALE), 0);

    let states = assert_replicas_agree(&sim, &d, "queries");
    assert!(states.iter().all(|s| s.updates == 0));
    assert_settled(&sim, "queries");
}

#[test]
fn speculated_updates_leave_replicas_identical() {
    let (sim, d, _) = run(WorkloadKind::InsDelSingle, 24_000.0);
    assert_eq!(sum(&sim, SESSIONS_SUBMITTED), sum(&sim, SESSIONS_COMPLETED));
    // Updates run on every replica of their partition.
    let executed: u64 = delivered(&d).iter().sum();
    assert_eq!(sum(&sim, SMR_SPEC_EXEC), executed);
    assert_eq!(sum(&sim, SMR_ROLLBACKS), 0);
    assert_eq!(sum(&sim, SMR_SPEC_STALE), 0);

    let states = assert_replicas_agree(&sim, &d, "updates");
    // InsDelSingle is one update per command.
    let updates: u64 = states.iter().map(|s| s.updates).sum();
    assert_eq!(2 * updates, executed);
    let mut digests: Vec<u64> = states.iter().map(|s| s.digest).collect();
    digests.dedup();
    assert_eq!(digests.len(), N_PARTITIONS, "partitions hold different keys");
    assert_settled(&sim, "updates");
}

/// Datagram loss: a replica that repairs a lost 2A delivers the instance
/// after its peer has answered and the client has dropped the command.
/// The command rides in the repaired batch, so the replica still applies
/// the update (a shared command store once dropped it: 280 such misses
/// at 1e-3, 3 360 at 1e-2), and whatever loss does to speculation —
/// payloads that arrive by repair are confirmed unspeculated and roll
/// the queue back — both replicas must end in the same state.
#[test]
fn lossy_runs_keep_replicas_identical_and_skip_nothing() {
    for loss in [1e-3, 1e-2] {
        let label = format!("loss {loss}");
        let (mut sim, d) = deploy(WorkloadKind::InsDelSingle, 24_000.0, 3, 11);
        sim.set_random_loss(loss);
        sim.run_until(Time::from_secs(3));
        // Ten retries, 200 ms doubling to 1.6 s: a request submitted at
        // the stop is abandoned some 14 s later.
        sim.run_until(Time::from_secs(20));

        let submitted = sum(&sim, SESSIONS_SUBMITTED);
        let completed = sum(&sim, SESSIONS_COMPLETED);
        let abandoned = sum(&sim, SESSIONS_ABANDONED);
        assert!(completed > 60_000, "{label}: only {completed} completed");
        assert_eq!(
            submitted,
            completed + abandoned + sum(&sim, SESSIONS_SHED),
            "{label}: requests neither completed nor abandoned"
        );
        assert!(sum(&sim, SMR_SPEC_EXEC) > 100_000, "{label}: replicas must speculate");

        let states = assert_replicas_agree(&sim, &d, &label);
        assert!(states.iter().all(|s| s.updates > 0), "{label}: {states:?}");
        assert_settled(&sim, &label);
    }
}

/// Queries under datagram loss: a lost 2A skews a replica's prediction of
/// whose turn a read is, and a read the decided order gives it but which
/// it left to its peer runs when confirmed. Every request is still
/// completed, abandoned or shed, the replicas of each partition agree,
/// and no read is answered twice: each command reaches its table at most
/// once from each partition. A lost reply is never re-sent, so about
/// `loss × submitted` requests are abandoned whoever answers: 35 and 310
/// here when an id hash picked the responder, 33 and 313 with turns, and
/// 400 / 3 581 against 399 / 3 594 summed over seeds 1–9 and 11. Twice
/// that many would mean reads going unanswered.
#[test]
fn lossy_queries_are_answered_at_most_once_and_replicas_agree() {
    for loss in [1e-3, 1e-2] {
        let label = format!("loss {loss}");
        let (mut sim, d, replies) = deploy_tapped(WorkloadKind::Queries, 12_000.0, 3, 11);
        sim.set_random_loss(loss);
        sim.run_until(Time::from_secs(3));
        // Ten retries, 200 ms doubling to 1.6 s: a request submitted at
        // the stop is abandoned some 14 s later.
        sim.run_until(Time::from_secs(20));

        let submitted = sum(&sim, SESSIONS_SUBMITTED);
        let completed = sum(&sim, SESSIONS_COMPLETED);
        let abandoned = sum(&sim, SESSIONS_ABANDONED);
        println!("{label}: {submitted} submitted, {completed} completed, {abandoned} abandoned");
        println!(
            "{label}: {} delivered per partition, {} executed speculatively, {} stale, {} rolled back",
            delivered(&d).iter().step_by(2).sum::<u64>(),
            sum(&sim, SMR_SPEC_EXEC),
            sum(&sim, SMR_SPEC_STALE),
            sum(&sim, SMR_ROLLBACKS)
        );
        assert!(completed > 30_000, "{label}: only {completed} completed");
        assert_eq!(
            submitted,
            completed + abandoned + sum(&sim, SESSIONS_SHED),
            "{label}: requests neither completed nor abandoned"
        );
        let lost_replies = loss * submitted as f64;
        assert!(abandoned as f64 <= 2.0 * lost_replies, "{label}: {abandoned} abandoned");
        assert_answered_at_most_once(&replies, &label);
        assert!(replies.lock().unwrap().len() as u64 >= completed, "{label}");
        assert_replicas_agree(&sim, &d, &label);
    }
}

/// A coordinator crash is the paper's case for rollback: the survivor
/// re-proposes undecided instances under a higher round, so 2As a replica
/// speculated on may lose their instance to another value. Stale
/// speculations are retired, mis-orders rolled back, and the replicas
/// still agree.
#[test]
fn speculation_survives_a_coordinator_change() {
    let mut sim = Sim::new(SimConfig::default());
    let opts = SessionOptions {
        n_tables: 2,
        sessions_per_table: 10_000,
        rate_per_table: 5_000.0,
        stop_at: Some(Time::from_millis(1800)),
        ..SessionOptions::default()
    };
    let d = deploy_smr_sessions(&mut sim, &opts);
    let crash = Time::from_millis(500);
    FaultPlan::new().at(crash, FaultAction::Crash(d.coordinator())).run(
        &mut sim,
        Time::from_secs(18),
        |_, _| {},
    );
    assert_eq!(sum(&sim, "rp.became_coord"), 1, "a survivor must take over");
    assert!(sum(&sim, SESSIONS_COMPLETED) > 10_000);
    assert!(sum(&sim, SMR_SPEC_EXEC) > 20_000);

    let states = d.replica_states(&sim);
    assert_eq!(states[0][0], states[0][1], "replicas diverged across the takeover");
    assert!(states[0][0].updates > 10_000);
    assert_eq!((states[0][0].speculated, states[0][0].undo_depth), (0, 0));
    assert_settled(&sim, "takeover");
    let log = d.log.lock().unwrap();
    assert_eq!(log.sequence(0), log.sequence(1));
}

/// A takeover re-proposes every undecided instance a promise revealed.
/// The batch carries its own partition mask, so on the benchmark's 4 × 2
/// shape the re-proposal reaches its own partition's replicas alone,
/// and the others pass the instance over by a repair (§4.2.2: a
/// partition's replicas receive only the commands that access it). When
/// the mask rode beside the batch, a takeover lost it and re-proposed to
/// every partition: on the three update runs 1 / 1 / 4 commands were
/// delivered in all four partitions, and 0 / 1 / 2 deliveries missed
/// the shared command store of the time. On the query run the re-proposed 2As skew the
/// replicas' predictions of whose turn a read is, and still no command
/// reaches its table twice from one partition.
#[test]
fn a_takeover_re_proposes_a_command_to_its_own_partition_only() {
    for (kind, rate, seed) in [
        (WorkloadKind::InsDelSingle, 8_000.0, 11),
        (WorkloadKind::InsDelSingle, 8_000.0, 2011),
        (WorkloadKind::InsDelSingle, 24_000.0, 11),
        (WorkloadKind::Queries, 8_000.0, 11),
    ] {
        let label = format!("{kind:?} at {rate} req/s, seed {seed}");
        let (mut sim, d, replies) = deploy_tapped(kind, rate, 3, seed);
        let crash = Time::from_millis(1500);
        FaultPlan::new().at(crash, FaultAction::Crash(d.coordinator())).run(
            &mut sim,
            Time::from_secs(8),
            |_, _| {},
        );
        assert_eq!(sum(&sim, "rp.became_coord"), 1, "{label}: one survivor takes over");
        {
            let log = d.log.lock().unwrap();
            // The partitions each command was delivered in, ascending.
            let mut partitions: HashMap<MsgId, Vec<usize>> = HashMap::new();
            for replica in 0..2 * N_PARTITIONS {
                for id in log.sequence(replica) {
                    let ps = partitions.entry(*id).or_default();
                    if ps.last() != Some(&(replica / 2)) {
                        ps.push(replica / 2);
                    }
                }
            }
            // A one-key update touches one partition; a 1000-key scan may
            // straddle the bound between two.
            let reach = usize::from(kind == WorkloadKind::Queries);
            for (id, ps) in &partitions {
                assert!(ps[ps.len() - 1] - ps[0] <= reach, "{label}: {id:?} delivered in {ps:?}");
            }
        }
        assert_answered_at_most_once(&replies, &label);
        assert_replicas_agree(&sim, &d, &label);
    }
}

/// The first command a 2A brought a replica, held weakly.
type First = Rc<RefCell<Option<Weak<dyn Any>>>>;

/// A deployed replica behind a hook that keeps a weak handle to the
/// first command a 2A brings it.
struct Grab {
    replica: Box<dyn Actor>,
    first: First,
}

impl Actor for Grab {
    fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
        if let Some(MMsg::Phase2a { batch, .. }) = env.payload.downcast_ref::<MMsg>() {
            let mut first = self.first.borrow_mut();
            if first.is_none() {
                *first = batch.commands().next().map(|(_, cmd)| Rc::downgrade(cmd));
            }
        }
        self.replica.on_message(env, ctx);
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
        self.replica.on_timer(token, ctx);
    }
}

/// A command lives in the batches that carry it and with its client
/// until it is answered, nowhere else: an early command of a long run is
/// freed while the run goes on, so command memory does not grow with the
/// run's length.
#[test]
fn an_early_command_is_freed_while_the_run_goes_on() {
    let (mut sim, d) = deploy(WorkloadKind::InsDelSingle, 24_000.0, 4, 11);
    let replica = d.replicas[0][0];
    let first = First::default();
    let inner = sim.replace_actor(replica, Box::new(Idle)).expect("a deployed replica");
    sim.replace_actor(replica, Box::new(Grab { replica: inner, first: first.clone() }));
    sim.run_until(Time::from_millis(100));
    let first = first.borrow().clone().expect("a 2A brought commands");
    assert!(first.upgrade().is_some(), "the command is held while it is ordered");
    sim.run_until(Time::from_secs(4));
    assert!(sum(&sim, SESSIONS_COMPLETED) > 90_000);
    assert!(first.upgrade().is_none(), "the first command outlived its run's first second");
}
