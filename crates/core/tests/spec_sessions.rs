//! The session tier speculates (ISSUE 16): at the benchmark's shape —
//! 8 tables × 125 k open-loop Zipf(0.99) sessions over a 4 × 2 partitioned
//! tree, seed 11 — a replica executes on 2A arrival and answers on the
//! decision, every speculation is confirmed, and the replicas of a
//! partition end in the same state, with and without datagram loss. A
//! coordinator takeover re-proposes each command to its own partition
//! only (also at seed 2011).

use hpsmr_core::deploy::{
    deploy_smr_sessions, PartitionOptions, SessionDeployment, SessionOptions,
};
use hpsmr_core::{ReplicaState, SMR_REGISTRY_MISS, SMR_ROLLBACKS, SMR_SPEC_EXEC, SMR_SPEC_STALE};
use simnet::prelude::*;
use std::collections::HashMap;
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

/// At quiescence the replicas of a partition hold the same tree, reached
/// through the same number of updates, with nothing speculated left over.
fn assert_replicas_agree(sim: &mut Sim, d: &SessionDeployment, label: &str) -> Vec<ReplicaState> {
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
    assert_eq!(sum(sim, SMR_REGISTRY_MISS), 0, "{label}: a delivered command was skipped");
    states.into_iter().map(|part| part[0]).collect()
}

#[test]
fn queries_execute_on_arrival_and_answer_on_the_decision() {
    let (mut sim, d, lat) = run(WorkloadKind::Queries, 12_000.0);
    // The plain path paid execution after ordering: 897 / 1 095 µs.
    assert!(lat.p50 <= Dur::micros(600), "p50 {}", lat.p50);
    assert!(lat.p99 <= Dur::micros(950), "p99 {}", lat.p99);

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

    let states = assert_replicas_agree(&mut sim, &d, "queries");
    assert!(states.iter().all(|s| s.updates == 0));
    assert!(d.registry.is_empty(), "{} commands outlived their run", d.registry.len());
}

#[test]
fn speculated_updates_leave_replicas_identical() {
    let (mut sim, d, _) = run(WorkloadKind::InsDelSingle, 24_000.0);
    assert_eq!(sum(&sim, SESSIONS_SUBMITTED), sum(&sim, SESSIONS_COMPLETED));
    // Updates run on every replica of their partition.
    let executed: u64 = delivered(&d).iter().sum();
    assert_eq!(sum(&sim, SMR_SPEC_EXEC), executed);
    assert_eq!(sum(&sim, SMR_ROLLBACKS), 0);
    assert_eq!(sum(&sim, SMR_SPEC_STALE), 0);

    let states = assert_replicas_agree(&mut sim, &d, "updates");
    // InsDelSingle is one update per command.
    let updates: u64 = states.iter().map(|s| s.updates).sum();
    assert_eq!(2 * updates, executed);
    let mut digests: Vec<u64> = states.iter().map(|s| s.digest).collect();
    digests.dedup();
    assert_eq!(digests.len(), N_PARTITIONS, "partitions hold different keys");
    assert!(d.registry.is_empty(), "{} commands outlived their run", d.registry.len());
}

/// Datagram loss: a replica that repairs a lost 2A delivers the instance
/// after its peer has answered and the client has dropped its registry
/// entry. It must still apply the update (the parent skipped it: 280 such
/// misses at 1e-3, 3 360 at 1e-2), and whatever loss does to speculation
/// — payloads that arrive by repair are confirmed unspeculated and roll
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

        let states = assert_replicas_agree(&mut sim, &d, &label);
        assert!(states.iter().all(|s| s.updates > 0), "{label}: {states:?}");
        // What is left in the registry is what no replica ever delivered.
        assert_eq!(d.registry.len(), d.registry.orphans(), "{label}");
        assert!(d.registry.orphans() as u64 <= abandoned, "{label}");
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

    let states = d.replica_states(&mut sim);
    assert_eq!(states[0][0], states[0][1], "replicas diverged across the takeover");
    assert!(states[0][0].updates > 10_000);
    assert_eq!((states[0][0].speculated, states[0][0].undo_depth), (0, 0));
    assert_eq!(sum(&sim, SMR_REGISTRY_MISS), 0);
    let log = d.log.lock().unwrap();
    assert_eq!(log.sequence(0), log.sequence(1));
}

/// A takeover re-proposes every undecided instance a promise revealed.
/// The batch carries its own partition mask, so on the benchmark's 4 × 2
/// shape the re-proposal reaches its own partition's replicas alone,
/// and the others pass the instance over by a repair (§4.2.2: a
/// partition's replicas receive only the commands that access it). When
/// the mask rode beside the batch, a takeover lost it and re-proposed to
/// every partition: on these three runs 1 / 1 / 4 commands were
/// delivered in all four partitions, and 0 / 1 / 2 deliveries missed
/// the client registry.
#[test]
fn a_takeover_re_proposes_a_command_to_its_own_partition_only() {
    for (rate, seed) in [(8_000.0, 11), (8_000.0, 2011), (24_000.0, 11)] {
        let label = format!("{rate} req/s, seed {seed}");
        let (mut sim, d) = deploy(WorkloadKind::InsDelSingle, rate, 3, seed);
        let crash = Time::from_millis(1500);
        FaultPlan::new().at(crash, FaultAction::Crash(d.coordinator())).run(
            &mut sim,
            Time::from_secs(8),
            |_, _| {},
        );
        assert_eq!(sum(&sim, "rp.became_coord"), 1, "{label}: one survivor takes over");
        {
            let log = d.log.lock().unwrap();
            let mut partition_of = HashMap::new();
            for replica in 0..2 * N_PARTITIONS {
                let p = replica / 2;
                for id in log.sequence(replica) {
                    let first = *partition_of.entry(*id).or_insert(p);
                    assert_eq!(first, p, "{label}: {id:?} delivered in partitions {first} and {p}");
                }
            }
        }
        assert_replicas_agree(&mut sim, &d, &label);
    }
}
