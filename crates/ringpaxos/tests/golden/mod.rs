//! Golden-trace support shared by the golden tests of `ringpaxos`,
//! `hpsmr_core`, `psmr` and `multiring` (the last three include this
//! file by path).
//!
//! A golden run is a seeded deployment whose exact event count,
//! per-learner deliveries, checksum over every per-node counter, latency
//! count and mean, and — where there is a service — replica digests are
//! pinned. Any change that reorders events, perturbs the RNG stream or
//! miscounts a metric shows up as a hard failure. To re-capture after an
//! *intentional* semantic change, run the golden test with
//! `GOLDEN_PRINT=1` and `--nocapture`, and paste what it prints.

#![allow(dead_code)]

use simnet::prelude::*;

/// FNV-1a over every non-zero `(node, name, value)` counter triple in
/// deterministic order.
pub fn counter_checksum(sim: &Sim) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut byte = |b: u8| {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    };
    sim.metrics().for_each_counter(|node, name, v| {
        for b in (node.0 as u64).to_le_bytes() {
            byte(b);
        }
        for b in name.bytes() {
            byte(b);
        }
        for b in v.to_le_bytes() {
            byte(b);
        }
    });
    h
}

/// The pinned values of one golden run.
#[derive(Debug, PartialEq)]
pub struct Golden {
    pub events: u64,
    pub delivered: Vec<u64>,
    pub checksum: u64,
    pub latency_count: usize,
    pub latency_mean_ns: u64,
    /// Replica state digests, in deployment order; empty without a
    /// service.
    pub digests: Vec<u64>,
}

/// Prints `got` under `GOLDEN_PRINT`, else asserts it equals `want`.
pub fn report(label: &str, got: &Golden, want: &Golden) {
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!(
            "{label}: events={} delivered={:?} checksum={:#x} latency_count={} \
             latency_mean_ns={} digests={:#x?}",
            got.events,
            got.delivered,
            got.checksum,
            got.latency_count,
            got.latency_mean_ns,
            got.digests
        );
        return;
    }
    assert_eq!(got.events, want.events, "{label}: event count drifted");
    assert_eq!(got.delivered, want.delivered, "{label}: per-learner deliveries drifted");
    assert_eq!(got.checksum, want.checksum, "{label}: counter checksum drifted");
    assert_eq!(got.latency_count, want.latency_count, "{label}: latency sample count drifted");
    assert_eq!(got.latency_mean_ns, want.latency_mean_ns, "{label}: latency mean drifted");
    assert_eq!(got.digests, want.digests, "{label}: replica digests drifted");
}

/// The golden values of a finished run: `learners`' deliveries, and the
/// `latency` histogram over all nodes. Digests are left for the caller.
pub fn harvest(sim: &Sim, learners: &[NodeId], latency: &'static str) -> Golden {
    // Eviction from a learner's dedup window means possible loss. Here
    // every learner sees every proposer's dense seq: never an eviction.
    // And where no datagram is lost nothing may be repaired or asked
    // for, and no 2B taken from a vote floor: M-Ring's loss recovery
    // fires on evidence of a loss, never on a clock alone.
    // And none of these runs is past the knee: the proposers' byte
    // window holds nothing back and sheds nothing, with or
    // without loss.
    let loss_free = sim.config().random_loss == 0.0;
    sim.metrics().for_each_counter(|node, name, v| {
        assert!(name != "rp.dedup_evict" || v == 0, "{node:?} evicted {v} dedup entries");
        let repair = ["rp.retrans", "rp.re2a", "rp.resubmit", "rp.repair_spurious", "rp.floor_2b"];
        assert!(!(loss_free && repair.contains(&name)) || v == 0, "{node:?}: {name} = {v}");
        let window = ["rp.window_held", "rp.proposer_shed"];
        assert!(!window.contains(&name) || v == 0, "{node:?}: {name} = {v}");
    });
    let lat = sim.metrics().latency(latency);
    Golden {
        events: sim.events_processed(),
        delivered: learners
            .iter()
            .map(|&n| sim.metrics().counter(n, abcast::metric::DELIVERED_MSGS))
            .collect(),
        checksum: counter_checksum(sim),
        latency_count: lat.count,
        latency_mean_ns: lat.mean.as_nanos(),
        digests: Vec::new(),
    }
}
