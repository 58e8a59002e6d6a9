//! Golden traces of the replicated B⁺-tree: the session tier's
//! `deploy_smr_sessions` at the benchmark's shape (8 tables of 125 k
//! open-loop Zipf(0.99) sessions over a 4 × 2 partitioned tree), once
//! with `smr_update`'s mix and once with `smr_query`'s, and ch. 4's
//! closed-loop `deploy_smr` (2 replicas, 4 one-session clients of
//! single updates), plain and speculative, each for a fraction of a
//! virtual second. Each pins the event count, per-replica deliveries, the counter checksum,
//! the session latency count and mean, and every replica's digest
//! (`golden/mod.rs`, shared with the ring's golden traces). Re-capture
//! after an *intentional* semantic change:
//!
//! ```text
//! GOLDEN_PRINT=1 cargo test -p hpsmr_core --test golden_trace -- --nocapture
//! ```

#[path = "../../ringpaxos/tests/golden/mod.rs"]
mod golden;

use golden::{harvest, report, Golden};
use hpsmr_core::deploy::{
    deploy_smr, deploy_smr_sessions, PartitionOptions, SessionOptions, SmrOptions,
};
use simnet::prelude::*;
use workload::{WorkloadKind, SESSION_LATENCY};

const N_TABLES: usize = 8;

fn sessions_run(kind: WorkloadKind, rate: f64, seed: u64) -> Golden {
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
    sim.run_until(Time::from_millis(300));
    let replicas: Vec<NodeId> = d.replicas.iter().flatten().copied().collect();
    let mut got = harvest(&sim, &replicas, SESSION_LATENCY);
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
    report("sessions_update", &sessions_run(WorkloadKind::InsDelSingle, 24_000.0, 11), &want);
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
    report("sessions_query", &sessions_run(WorkloadKind::Queries, 12_000.0, 11), &want);
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
