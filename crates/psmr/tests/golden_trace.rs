//! Golden trace of P-SMR: `deploy_parallel` with `ExecModel::Psmr` (four
//! workers, one Multi-Ring group each, 40 closed-loop clients) for a
//! fraction of a virtual second. It pins the event count, per-replica
//! deliveries, the counter checksum, the session latency count and mean,
//! and every replica's store digest (`golden/mod.rs`, shared with the
//! ring's golden traces). Re-capture after an *intentional* semantic
//! change:
//!
//! ```text
//! GOLDEN_PRINT=1 cargo test -p psmr --test golden_trace -- --nocapture
//! ```

#[path = "../../ringpaxos/tests/golden/mod.rs"]
mod golden;

use golden::{harvest, report, Golden};
use psmr::{deploy_parallel, ExecModel, ParallelOptions, PsmrWorkload};
use simnet::prelude::*;
use workload::SESSION_LATENCY;

#[test]
fn psmr_golden_trace() {
    let mut sim = Sim::new(SimConfig { seed: 0x5312, cores_per_node: 8, ..SimConfig::default() });
    let opts = ParallelOptions {
        model: ExecModel::Psmr { workers: 4 },
        workload: PsmrWorkload { dep_pct: 10, ..PsmrWorkload::default() },
        stop_at: Some(Time::from_millis(200)),
        ..ParallelOptions::default()
    };
    let d = deploy_parallel(&mut sim, &opts);
    sim.run_until(Time::from_millis(300));
    let mut got = harvest(&sim, &d.replicas, SESSION_LATENCY);
    got.digests = d.stores(&sim).iter().map(|s| s.digest()).collect();
    let want = Golden {
        events: 139156,
        delivered: vec![5530, 5530],
        checksum: 0xd1923de486f865ec,
        latency_count: 4201,
        latency_mean_ns: 1912366,
        digests: vec![0x941c18e48eb2d6e0, 0x941c18e48eb2d6e0],
    };
    report("psmr", &got, &want);
}
