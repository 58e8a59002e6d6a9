//! Golden traces of the replicated B⁺-tree: the session tier's
//! `deploy_smr_sessions` at the benchmark's shape (8 tables of 125 k
//! open-loop Zipf(0.99) sessions over a 4 × 2 partitioned tree), once
//! with `smr_update`'s mix, once with `smr_query`'s and once with its
//! coordinator crashed mid-run; ch. 4's closed-loop `deploy_smr` (2
//! replicas, 4 one-session clients of single updates), plain and
//! speculative; and the client-server baseline `deploy_cs`, with single
//! updates and with queries, each for a fraction of a virtual second.
//! Each pins the event count, per-replica deliveries, the counter
//! checksum, the session latency count and mean, and every replica's
//! digest (`golden/mod.rs`, shared with the ring's golden traces; the CS
//! server has no ring and no digest to read). Re-capture after an
//! *intentional* semantic change:
//!
//! ```text
//! GOLDEN_PRINT=1 cargo test -p hpsmr_core --test golden_trace -- --nocapture
//! ```

#[path = "../../ringpaxos/tests/golden/mod.rs"]
mod golden;

use golden::{harvest, harvest_crashed, report, Golden};
use hpsmr_core::deploy::{
    deploy_cs, deploy_smr, deploy_smr_sessions, PartitionOptions, SessionOptions, SmrOptions,
};
use simnet::prelude::*;
use workload::{WorkloadKind, SESSION_LATENCY};

const N_TABLES: usize = 8;

/// The session tier at the benchmark's shape, arrivals stopped at
/// 200 ms and drained to 300 ms. With `crash`, its coordinator goes down
/// then, and the run goes on to 1.5 s: the takeover completes and every
/// request submitted is answered, retried ones included.
fn sessions_run(kind: WorkloadKind, rate: f64, seed: u64, crash: Option<Time>) -> Golden {
    let mut sim = Sim::new(SimConfig { seed, ..SimConfig::default() });
    let opts = SessionOptions {
        kind,
        zipf_s: 0.99,
        n_tables: N_TABLES,
        sessions_per_table: 125_000,
        rate_per_table: rate / N_TABLES as f64,
        partitions: Some(PartitionOptions { n: 4, replicas_per: 2, cross_pct: 0 }),
        stop_at: Some(Time::from_millis(200)),
        ..SessionOptions::default()
    };
    let d = deploy_smr_sessions(&mut sim, &opts);
    let end = match crash {
        None => Time::from_millis(300),
        Some(at) => {
            sim.run_until(at);
            sim.set_node_up(d.coordinator(), false);
            Time::from_millis(1500)
        }
    };
    sim.run_until(end);
    let replicas: Vec<NodeId> = d.replicas.iter().flatten().copied().collect();
    let mut got = match crash {
        None => harvest(&sim, &replicas, SESSION_LATENCY),
        Some(_) => harvest_crashed(&sim, &replicas, SESSION_LATENCY),
    };
    got.digests = d.replica_states(&sim).into_iter().flatten().map(|s| s.digest).collect();
    got
}

#[test]
fn sessions_update_golden_trace() {
    let want = Golden {
        events: 108237,
        delivered: vec![1457, 1457, 1149, 1149, 1131, 1131, 984, 984],
        checksum: 0x513b91999195e310,
        latency_count: 4721,
        latency_mean_ns: 350180,
        digests: vec![
            0xa9ef7db9e7d19165,
            0xa9ef7db9e7d19165,
            0xa628c9edaa57ec0c,
            0xa628c9edaa57ec0c,
            0x7108c76231ca1230,
            0x7108c76231ca1230,
            0x478ee18796437432,
            0x478ee18796437432,
        ],
    };
    report("sessions_update", &sessions_run(WorkloadKind::InsDelSingle, 24_000.0, 11, None), &want);
}

#[test]
fn sessions_query_golden_trace() {
    let want = Golden {
        events: 59973,
        delivered: vec![694, 694, 582, 582, 586, 586, 508, 508],
        checksum: 0x2d84b137aee6ade5,
        latency_count: 2370,
        latency_mean_ns: 559970,
        digests: vec![
            0xc4211a59287d8fc1,
            0xc4211a59287d8fc1,
            0xb393f23dda7b2a2e,
            0xb393f23dda7b2a2e,
            0xa87c4b07458f7662,
            0xa87c4b07458f7662,
            0x27b0105e89f26a0a,
            0x27b0105e89f26a0a,
        ],
    };
    report("sessions_query", &sessions_run(WorkloadKind::Queries, 12_000.0, 11, None), &want);
}

/// `deploy_smr` with 2 replicas and 4 closed-loop clients of single
/// updates, arrivals stopped at 200 ms and drained to 250 ms.
fn closed_loop_run(speculative: bool) -> Golden {
    let mut sim = Sim::new(SimConfig { seed: 11, ..SimConfig::default() });
    let opts = SmrOptions {
        n_replicas: 2,
        n_clients: 4,
        workload: WorkloadKind::InsDelSingle,
        speculative,
        stop_at: Some(Time::from_millis(200)),
        ..SmrOptions::default()
    };
    let d = deploy_smr(&mut sim, &opts);
    sim.run_until(Time::from_millis(250));
    let mut got = harvest(&sim, &d.all_replicas(), SESSION_LATENCY);
    got.digests = d.replica_states(&sim).into_iter().flatten().map(|s| s.digest).collect();
    got
}

#[test]
fn smr_closed_loop_golden_trace() {
    let want = Golden {
        events: 41179,
        delivered: vec![1801, 1801],
        checksum: 0x8be8589b332aa500,
        latency_count: 1801,
        latency_mean_ns: 444560,
        digests: vec![0x671e4e9cee63aa5a, 0x671e4e9cee63aa5a],
    };
    report("smr_closed_loop", &closed_loop_run(false), &want);
}

#[test]
fn smr_closed_loop_speculative_golden_trace() {
    let want = Golden {
        events: 38578,
        delivered: vec![1834, 1834],
        checksum: 0xae57b48185d1520b,
        latency_count: 1834,
        latency_mean_ns: 436467,
        digests: vec![0xe0344b5844e17002, 0xe0344b5844e17002],
    };
    report("smr_closed_loop_speculative", &closed_loop_run(true), &want);
}

/// A takeover: the coordinator of the 4 × 2 update run goes
/// down at 100 ms, a ring member takes over and re-proposes what it
/// finds undecided, each batch on its own partitions.
#[test]
fn sessions_update_coordinator_crash_golden_trace() {
    let want = Golden {
        events: 40149,
        delivered: vec![465, 465, 397, 397, 382, 382, 313, 313],
        checksum: 0xf5eb2bcef968d719,
        latency_count: 1557,
        latency_mean_ns: 329464863,
        digests: vec![
            0x0a2ebf53ec59c5bf,
            0x0a2ebf53ec59c5bf,
            0xd400322c6c5e7984,
            0xd400322c6c5e7984,
            0x7dd0f522567854b9,
            0x7dd0f522567854b9,
            0x9341e55cc95d72e7,
            0x9341e55cc95d72e7,
        ],
    };
    let got = sessions_run(WorkloadKind::InsDelSingle, 8_000.0, 11, Some(Time::from_millis(100)));
    report("sessions_update_coordinator_crash", &got, &want);
}

/// `deploy_cs` with 4 closed-loop clients, arrivals stopped at 200 ms
/// and drained to 250 ms. Only the server and its clients run, so the
/// values pin the server's execution and reply timing.
fn cs_run(workload: WorkloadKind) -> Golden {
    let mut sim = Sim::new(SimConfig { seed: 11, ..SimConfig::default() });
    deploy_cs(&mut sim, 4, workload, Some(Time::from_millis(200)));
    sim.run_until(Time::from_millis(250));
    harvest(&sim, &[], SESSION_LATENCY)
}

#[test]
fn cs_update_golden_trace() {
    let want = Golden {
        events: 28360,
        delivered: vec![],
        checksum: 0xe7fc3dd883f6c780,
        latency_count: 5672,
        latency_mean_ns: 141115,
        digests: vec![],
    };
    report("cs_update", &cs_run(WorkloadKind::InsDelSingle), &want);
}

#[test]
fn cs_query_golden_trace() {
    let want = Golden {
        events: 3800,
        delivered: vec![],
        checksum: 0x1e263df9a6e1b7d9,
        latency_count: 760,
        latency_mean_ns: 1055453,
        digests: vec![],
    };
    report("cs_query", &cs_run(WorkloadKind::Queries), &want);
}
