//! Golden traces of the session tier: `deploy_smr_sessions` at the
//! benchmark's shape (8 tables of 125 k open-loop Zipf(0.99) sessions
//! over a 4 × 2 partitioned tree), once with `smr_update`'s mix and
//! once with `smr_query`'s, for a fraction of a virtual second. Each
//! pins the event count, per-replica deliveries, the counter checksum,
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
use hpsmr_core::deploy::{deploy_smr_sessions, PartitionOptions, SessionOptions};
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
    got.digests = d.replica_states(&mut sim).into_iter().flatten().map(|s| s.digest).collect();
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
