//! Session-tier gates: the open-loop arrival sequence is a pure function
//! of the seed, and mass sessions ride out a coordinator failover — and
//! once it is over, stop sending to the dead coordinator.

use std::sync::{Arc, Mutex};

use hpsmr_core::deploy::{
    deploy_smr_sessions, PartitionOptions, SessionDeployment, SessionOptions,
};
use ringpaxos::msg::MMsg;
use simnet::prelude::*;
use workload::{
    RetryPolicy, SESSIONS_ARRIVAL_US, SESSIONS_COMPLETED, SESSIONS_RETRIES, SESSIONS_SHED,
    SESSIONS_SUBMITTED, SESSION_LATENCY,
};

fn options() -> SessionOptions {
    SessionOptions {
        n_tables: 2,
        sessions_per_table: 1_000,
        rate_per_table: 5_000.0,
        stop_at: Some(Time::from_millis(300)),
        ..SessionOptions::default()
    }
}

/// The arrival pin: per-table `(submitted, Σ arrival µs)`. Together
/// these commit to the whole arrival sequence — a single arrival moved,
/// added, or dropped changes the sum.
fn arrival_pin(sim: &Sim, d: &SessionDeployment) -> Vec<(u64, u64)> {
    d.tables
        .iter()
        .map(|&t| {
            (
                sim.metrics().counter(t, SESSIONS_SUBMITTED),
                sim.metrics().counter(t, SESSIONS_ARRIVAL_US),
            )
        })
        .collect()
}

fn counters(sim: &Sim) -> Vec<(usize, String, u64)> {
    let mut v = Vec::new();
    sim.metrics().for_each_counter(|node, name, val| v.push((node.0, name.to_string(), val)));
    v
}

fn run() -> (Sim, SessionDeployment) {
    let mut sim = Sim::new(SimConfig::default());
    let d = deploy_smr_sessions(&mut sim, &options());
    sim.run_until(Time::from_millis(400));
    (sim, d)
}

#[test]
fn open_loop_arrivals_are_pure_in_seed() {
    let (one, d1) = run();
    let (two, d2) = run();

    let pin = arrival_pin(&one, &d1);
    assert!(pin.iter().all(|&(sub, _)| sub > 500), "arrivals must flow: {pin:?}");
    // No arrival may be shed (a shed skips the generator's RNG draws,
    // which would legitimately fork the stream).
    let shed: u64 = d1.tables.iter().map(|&t| one.metrics().counter(t, SESSIONS_SHED)).sum();
    assert_eq!(shed, 0, "shedding would perturb the pin");
    assert_eq!(pin, arrival_pin(&two, &d2), "arrival sequence diverged");
    // The whole counter surface matches, not just the arrival pin.
    assert_eq!(counters(&one), counters(&two));
}

#[test]
fn sessions_ride_out_coordinator_failover() {
    let mut sim = Sim::new(SimConfig::default());
    let opts = SessionOptions {
        n_tables: 2,
        sessions_per_table: 10_000,
        rate_per_table: 5_000.0,
        stop_at: Some(Time::from_millis(1800)),
        ..SessionOptions::default()
    };
    let d = deploy_smr_sessions(&mut sim, &opts);
    let completed = |sim: &Sim| -> u64 {
        d.tables.iter().map(|&t| sim.metrics().counter(t, SESSIONS_COMPLETED)).sum()
    };

    sim.run_until(Time::from_millis(500));
    let at_crash = completed(&sim);
    assert!(at_crash > 0, "requests must flow before the crash");

    // Scheduled mid-run crash of the ring coordinator: suspicion
    // (200 ms) + M-Ring takeover + the tables' retry rotation across
    // surviving ring members must get requests completing again.
    FaultPlan::new().at(Time::from_millis(500), FaultAction::Crash(d.coordinator())).run(
        &mut sim,
        Time::from_millis(2500),
        |_, _| {},
    );

    let after = completed(&sim);
    assert!(
        after > at_crash + 500,
        "sessions must re-find the leader and keep completing: {at_crash} -> {after}"
    );
    let retries: u64 = d.tables.iter().map(|&t| sim.metrics().counter(t, SESSIONS_RETRIES)).sum();
    assert!(retries > 0, "the outage must have triggered deadline retries");

    // The latency histogram backs p50/p99/p999 reporting.
    for frac in [0.50, 0.99, 0.999] {
        assert!(
            sim.metrics().percentile(SESSION_LATENCY, frac).is_some(),
            "missing p{frac} of session latency"
        );
    }
    let (p50, p99) = (
        sim.metrics().percentile(SESSION_LATENCY, 0.50).unwrap(),
        sim.metrics().percentile(SESSION_LATENCY, 0.99).unwrap(),
    );
    assert!(p50 <= p99, "quantiles must be monotone: {p50:?} > {p99:?}");
}

/// Stands in for a crashed coordinator: it does nothing, as a crashed
/// node does, and logs each proposal a client still sends it.
struct Crashed {
    proposals: Arc<Mutex<Vec<(Time, NodeId)>>>,
}

impl Actor for Crashed {
    fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
        if let Some(MMsg::Propose(..)) = env.payload.downcast_ref::<MMsg>() {
            self.proposals.lock().unwrap().push((ctx.now(), env.src));
        }
    }
}

/// A crash times out every request in flight at once, and after a
/// takeover the ring still loses a few hundred requests for good (they
/// retry until abandoned). A table moves its submission point past a
/// target only once, and only while nothing sent there later has been
/// answered, so once the takeover is done and one retry round has
/// passed no proposal goes to the dead coordinator and the tail is back
/// at its pre-crash level (Fig 10.2's load, 24 k req/s). When every
/// blown deadline moved the cursor, the burst spun it through the ring
/// members, dead coordinator included, and left it anywhere: every 2 s
/// window to the end of the run carried 1 400 to 5 300 proposals per
/// table to the dead node, and the last window's p99 read 692 ms
/// against 440 µs before the crash. Moving once per target but on any
/// timeout still sent ~1 000 per table in two later windows: the lost
/// requests' retries timed out at a live member and moved the cursor
/// back onto the dead one.
#[test]
fn after_a_takeover_no_proposal_goes_to_the_dead_coordinator() {
    const WINDOW: Dur = Dur::secs(2);
    let crash = Time::from_secs(2);
    let end = Time::from_secs(16);
    let mut sim = Sim::new(SimConfig::default());
    let opts = SessionOptions {
        n_tables: 8,
        sessions_per_table: 10_000,
        rate_per_table: 3_000.0,
        partitions: Some(PartitionOptions { n: 4, replicas_per: 2, cross_pct: 0 }),
        stop_at: Some(end),
        ..SessionOptions::default()
    };
    let d = deploy_smr_sessions(&mut sim, &opts);
    let dead = d.coordinator();

    sim.run_until(Time::from_millis(500));
    let _ = sim.metrics_mut().take_latency(SESSION_LATENCY);
    sim.run_until(crash);
    let before = sim.metrics_mut().take_latency(SESSION_LATENCY);
    let proposals = Arc::new(Mutex::new(Vec::new()));
    sim.replace_actor(dead, Box::new(Crashed { proposals: proposals.clone() }));

    // Step to the takeover, then through the windows to the end.
    let mut takeover = None;
    while takeover.is_none() && sim.now() < end {
        sim.run_until(sim.now() + Dur::millis(10));
        let became: u64 = d.ring.iter().map(|&r| sim.metrics().counter(r, "rp.became_coord")).sum();
        takeover = (became > 0).then(|| sim.now());
    }
    let takeover = takeover.expect("a survivor must take over");
    let mut last = before;
    let mut t = crash;
    while t < end {
        t += WINDOW;
        sim.run_until(t);
        last = sim.metrics_mut().take_latency(SESSION_LATENCY);
    }

    // Per table and 2 s window: the proposals it sent the dead node.
    let policy = RetryPolicy::default();
    let settled = takeover + policy.backoff(0) + policy.tick;
    let log = proposals.lock().unwrap();
    let mut late = 0;
    for (i, &table) in d.tables.iter().enumerate() {
        let counts: Vec<usize> = (0..(end.since(crash).as_nanos() / WINDOW.as_nanos()))
            .map(|w| {
                let from = crash + WINDOW * w;
                log.iter()
                    .filter(|&&(at, src)| src == table && at >= from && at < from + WINDOW)
                    .count()
            })
            .collect();
        println!("table {i}: proposals to the dead coordinator per 2 s window from the crash: {counts:?}");
        late += log.iter().filter(|&&(at, src)| src == table && at >= settled).count();
    }
    println!(
        "takeover at {takeover}; p99 before the crash {}, in the last window {}",
        before.p99, last.p99
    );
    assert_eq!(late, 0, "proposals sent to the dead coordinator after {settled}");
    assert!(last.count > 1000, "the last window must carry load: {}", last.count);
    assert!(
        last.p99 <= before.p99 * 2,
        "last window p99 {} against {} before the crash",
        last.p99,
        before.p99
    );
}

/// Pins a finding, not a fix (ROADMAP open items, "eviction means
/// loss"): under partitioning a replica sees only its partition's slice
/// of each table's dense seq, so its duplicate filter never advances a
/// watermark, fills to `MAX_OVERFLOW` and from then on evicts on every
/// delivery. The counter makes that visible; full replication (every
/// learner sees every seq) stays at zero.
#[test]
fn partitioned_replicas_evict_from_the_dedup_window() {
    let evictions = |partitions: Option<PartitionOptions>| -> (u64, u64) {
        let mut sim = Sim::new(SimConfig::default());
        let opts = SessionOptions {
            n_tables: 2,
            sessions_per_table: 10_000,
            rate_per_table: 15_000.0,
            partitions,
            stop_at: Some(Time::from_millis(900)),
            ..SessionOptions::default()
        };
        let d = deploy_smr_sessions(&mut sim, &opts);
        sim.run_until(Time::from_secs(1));
        let sum = |nodes: &[NodeId], name: &'static str| -> u64 {
            nodes.iter().map(|&n| sim.metrics().counter(n, name)).sum()
        };
        (sum(&d.tables, SESSIONS_COMPLETED), sum(&d.cfg.learners, "rp.dedup_evict"))
    };

    let (completed, evicted) = evictions(None);
    assert!(completed > 20_000, "scenario: {completed} commands completed");
    assert_eq!(evicted, 0, "a learner that sees every seq never parks one");

    let four = PartitionOptions { n: 4, replicas_per: 2, cross_pct: 0 };
    let (completed, evicted) = evictions(Some(four));
    assert!(completed > 20_000, "scenario: {completed} commands completed");
    assert!(evicted > 0, "each replica delivered > MAX_OVERFLOW sliced seqs without evicting");
}

/// The session tier lays no queries across partitions: a `cross_pct` it
/// would ignore is refused at deployment instead.
#[test]
#[should_panic(expected = "cross_pct must be 0")]
fn the_session_tier_refuses_cross_partition_commands() {
    let mut sim = Sim::new(SimConfig::default());
    let partitions = Some(PartitionOptions { n: 2, replicas_per: 2, cross_pct: 10 });
    deploy_smr_sessions(&mut sim, &SessionOptions { partitions, ..options() });
}
