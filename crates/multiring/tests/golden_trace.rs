//! Golden trace of Multi-Ring Paxos: `deploy_multiring` with its default
//! two rings merged by one learner, at 1e-3 datagram loss, with ring 1's
//! offered load doubled mid-run. It pins the event count, the learner's
//! deliveries, the counter checksum and the merged latency count and
//! mean (`golden/mod.rs`, shared with the ring's golden traces).
//! Re-capture after an *intentional* semantic change:
//!
//! ```text
//! GOLDEN_PRINT=1 cargo test -p multiring --test golden_trace -- --nocapture
//! ```

#[path = "../../ringpaxos/tests/golden/mod.rs"]
mod golden;

use golden::{harvest, report, Golden};
use multiring::{deploy_multiring, MultiRingOptions, MRP_LATENCY};
use simnet::prelude::*;

#[test]
fn multiring_lossy_rate_step_golden_trace() {
    let mut sim = Sim::new(SimConfig { seed: 11, random_loss: 1e-3, ..SimConfig::default() });
    let d = deploy_multiring(&mut sim, &MultiRingOptions::default());
    sim.run_until(Time::from_millis(150));
    d.rings[1].set_rate(&mut sim, 200_000_000);
    sim.run_until(Time::from_millis(300));
    let got = harvest(&sim, &d.learners, MRP_LATENCY);
    let want = Golden {
        events: 37189,
        delivered: vec![1141],
        checksum: 0x4149e4806f9b5eaf,
        latency_count: 1141,
        latency_mean_ns: 890748,
        digests: vec![],
    };
    report("multiring_lossy_rate_step", &got, &want);
}
