//! The paced M-Ring proposer's byte window (`mring` module docs, "Flow
//! control"): past the knee the ring stays at link rate instead of
//! collapsing, the window never binds below it, and nothing made due is
//! lost — not across a coordinator crash either.
//!
//! `OVERLOAD_PRINT=1 cargo test --release -p ringpaxos --test
//! mring_overload -- --nocapture` prints the counters of the
//! benchmark's two top rungs (ROADMAP, "Performance notes — PR 14").

use std::collections::HashSet;

use abcast::{metric, MsgId};
use ringpaxos::cluster::{deploy_mring, MRingDeployment, MRingOptions};
use simnet::prelude::*;
use simnet::probe::{category, code};

/// The benchmark's `mring_stream` message and packet size.
const MSG_BYTES: u32 = 8192;
/// The proposer window at the default configuration:
/// `flow.initial_window` (64) packets of `packet_bytes` (8 KB).
const WINDOW_BYTES: u64 = 64 * 8192;
const WARMUP: Time = Time(1_000_000_000);

/// The benchmark's `mring_stream` deployment: ring of 3, two learners,
/// two paced proposer-learners sharing `mbps` of `msg_bytes` messages.
fn options(mbps: u64, msg_bytes: u32, stop: Time) -> MRingOptions {
    MRingOptions {
        ring_size: 3,
        n_learners: 2,
        n_proposers: 2,
        proposer_rate_bps: mbps * 1_000_000 / 2,
        msg_bytes,
        proposer_stop: Some(stop),
        ..MRingOptions::default()
    }
}

/// The benchmark's network: 1e-4 loss on every datagram copy.
fn lossy(seed: u64) -> Sim {
    Sim::new(SimConfig { seed, random_loss: 1e-4, ..SimConfig::default() })
}

/// Every id a proposer made due (`abcast.proposed` counts them).
fn made_due(sim: &Sim, d: &MRingDeployment) -> HashSet<MsgId> {
    let mut out = HashSet::new();
    for &p in &d.proposers {
        for seq in 0..sim.metrics().counter(p, metric::PROPOSED) {
            out.insert(MsgId(((p.0 as u64) << 40) | seq));
        }
    }
    out
}

fn check_order_and_integrity(sim: &Sim, d: &MRingDeployment) {
    let log = d.log.lock().unwrap();
    log.check_total_order().expect("total order");
    log.check_integrity(&made_due(sim, d)).expect("integrity");
}

/// What one rung of the benchmark's ladder reads: 1 s warm-up, a 4 s
/// window, the observer's goodput and the proposers' latency over it.
struct Rung {
    sim: Sim,
    d: MRingDeployment,
    goodput: f64,
    p50: Dur,
    p99: Dur,
}

fn rung(mbps: u64, msg_bytes: u32, seed: u64) -> Rung {
    let window = Dur::secs(4);
    let mut sim = lossy(seed);
    let d = deploy_mring(&mut sim, &options(mbps, msg_bytes, WARMUP + window), |_| {});
    sim.run_until(WARMUP);
    let _ = sim.metrics_mut().take_latency(metric::LATENCY);
    let observer = d.learners[0];
    let before = sim.metrics().counter(observer, metric::DELIVERED_MSGS);
    sim.run_until(WARMUP + window);
    let done = sim.metrics().counter(observer, metric::DELIVERED_MSGS) - before;
    let pct = |f| sim.metrics().percentile(metric::LATENCY, f).expect("latency samples");
    let (p50, p99) = (pct(0.50), pct(0.99));
    Rung { goodput: done as f64 / window.as_secs_f64(), p50, p99, sim, d }
}

fn print_rung(mbps: u64, r: &Rung) {
    let sum = |n| r.sim.metrics().sum(n);
    println!(
        "{mbps} Mb/s: goodput {:.1} msg/s, p50 {:?}, p99 {:?}; abcast.proposed {}, \
         abcast.instances {}, rp.drop {}, net.switch_drop {}, net.rand_drop {}, rp.retrans {}, \
         rp.re2a {}, rp.resubmit {}, rp.repair_spurious {}, rp.dedup_evict {}, rp.slowdown {}, \
         rp.window_held {}, rp.proposer_shed {}",
        r.goodput,
        r.p50,
        r.p99,
        sum(metric::PROPOSED),
        sum(metric::INSTANCES),
        sum("rp.drop"),
        sum("net.switch_drop"),
        sum("net.rand_drop"),
        sum("rp.retrans"),
        sum("rp.re2a"),
        sum("rp.resubmit"),
        sum("rp.repair_spurious"),
        sum("rp.dedup_evict"),
        sum("rp.slowdown"),
        sum("rp.window_held"),
        sum("rp.proposer_shed"),
    );
}

/// The benchmark's overload rung: two proposers offer 2 × 500 Mb/s of
/// frames to a coordinator behind a 1 Gb/s port. The window keeps what
/// cannot be ordered yet at the proposers, so the ring runs at link
/// rate: nothing tail-dropped, nothing refused, and repairs in
/// proportion to what the network actually lost.
#[test]
fn overload_keeps_the_ring_at_link_rate() {
    let r = rung(1000, MSG_BYTES, 11);
    if std::env::var("OVERLOAD_PRINT").is_ok() {
        print_rung(950, &rung(950, MSG_BYTES, 11));
        print_rung(1000, &r);
    }
    let sum = |n| r.sim.metrics().sum(n);
    assert!(r.goodput >= 13_000.0, "observer goodput {:.1} msg/s", r.goodput);
    assert_eq!(sum("rp.drop"), 0, "the coordinator refused proposals");
    assert_eq!(sum("net.switch_drop"), 0, "a switch port overflowed");
    let repairs = sum("rp.retrans") + sum("rp.re2a") + sum("rp.resubmit");
    let dropped = sum("net.rand_drop");
    assert!(repairs <= 2 * dropped, "{repairs} repairs for {dropped} datagrams lost");
    assert_eq!(sum("rp.repair_spurious"), 0, "a repair was asked for and not needed");
    assert!(sum("rp.window_held") > 0, "the window bound");
    assert_eq!(sum("rp.proposer_shed"), 0);
    check_order_and_integrity(&r.sim, &r.d);
}

/// Sent and unacknowledged never exceeds the budget: polled every
/// virtual millisecond at the overload rung, each proposer's proposals
/// on the wire (its payload datagrams, less timed resends) minus its
/// own deliveries — `proposed − delivered-own − held` — stays within
/// the window, and reaches it.
#[test]
fn unacknowledged_bytes_stay_within_the_window() {
    let stop = Time::from_secs(3);
    let mut sim = lossy(11);
    let d = deploy_mring(&mut sim, &options(1000, MSG_BYTES, stop), |_| {});
    // NET probes show each datagram a node hands to its NIC; re-arming
    // them empties the buffer, so a poll sees one millisecond's worth.
    let net = ProbeConfig { categories: category::NET, ..ProbeConfig::all() };
    sim.set_probes(net);
    let budget = WINDOW_BYTES / MSG_BYTES as u64;
    let n = d.proposers.len();
    let (mut sent, mut own, mut cursor) = (vec![0u64; n], vec![0u64; n], vec![0usize; n]);
    let mut peak = 0;
    let mut now = Time::ZERO;
    while now < stop {
        now += Dur::millis(1);
        sim.run_until(now);
        for e in sim.probe_events() {
            let proposal = e.code == code::NET_SEND
                && e.arg >> 32 == 1
                && e.arg & 0xFFFF_FFFF >= MSG_BYTES as u64;
            let from = d.proposers.iter().position(|p| p.0 as u32 == e.node);
            if let (true, Some(i)) = (proposal, from) {
                sent[i] += 1;
            }
        }
        assert_eq!(sim.probe_dropped(), 0);
        sim.set_probes(net);
        let log = d.log.lock().unwrap();
        for (i, &p) in d.proposers.iter().enumerate() {
            // Proposers follow the dedicated learners in the log.
            let seq = log.sequence(d.learners.len() + i);
            own[i] += seq[cursor[i]..].iter().filter(|m| m.0 >> 40 == p.0 as u64).count() as u64;
            cursor[i] = seq.len();
            let resent = sim.metrics().counter(p, "rp.resubmit");
            let in_flight = sent[i] - resent - own[i];
            assert!(in_flight <= budget, "{p:?} has {in_flight} in flight at {now:?}");
            peak = peak.max(in_flight);
            let held = sim.metrics().counter(p, metric::PROPOSED) - (sent[i] - resent);
            assert!(held <= sim.metrics().counter(p, "rp.window_held"));
        }
    }
    assert_eq!(peak, budget, "the window filled");
}

/// The budget is bytes, not messages: 200-byte messages at a rate the
/// ring sustains run more than 64 in flight per proposer and never wait
/// — goodput and latency pinned. At 300 Mb/s (187 512 msg/s, p50 / p99
/// 1 003.5 / 1 089.5 µs while a partial batch waited for its tick) 43
/// are in flight now that it leaves on arrival, so the rung is 450 Mb/s
/// (89 in flight), below the knee (collapse at 600 Mb/s).
#[test]
fn small_messages_are_not_throttled_to_a_message_count() {
    let r = rung(450, 200, 11);
    let in_flight_msgs = r.p50.as_nanos() as f64 * 1e-9 * r.goodput / 2.0;
    assert!(in_flight_msgs > 64.0, "{in_flight_msgs:.0} in flight per proposer");
    assert_eq!(r.sim.metrics().sum("rp.window_held"), 0);
    let got = (r.goodput, r.p50.as_nanos(), r.p99.as_nanos());
    assert_eq!(got, (281_245.5, 634_880, 675_840), "the pinned values");
    check_order_and_integrity(&r.sim, &r.d);
}

/// The coordinator crashes under load: through the outage the window
/// fills and the FIFO behind it grows. After the takeover the window's
/// worth is resent at once, the rest follows at the new ring's pace,
/// and every proposal made due — before, during and after the outage —
/// is delivered exactly once at every learner — at the benchmark's
/// `mring_stream` rate, where a `Phase1b` revealing the whole vote log
/// would overflow the candidate's switch port.
#[test]
fn coordinator_crash_with_a_full_window_loses_nothing() {
    let stop = Time::from_millis(1500);
    let mut sim = Sim::new(SimConfig { seed: 11, ..SimConfig::default() });
    let opts = MRingOptions { spares: 2, ..options(600, MSG_BYTES, stop) };
    let d = deploy_mring(&mut sim, &opts, |_| {});
    sim.run_until(Time::from_millis(500));
    assert_eq!(sim.metrics().sum("rp.window_held"), 0, "600 Mb/s runs inside the window");
    sim.set_node_up(d.coordinator(), false);
    sim.run_until(Time::from_secs(4));

    let sum = |n| sim.metrics().sum(n);
    assert_eq!(sum("rp.became_coord"), 1, "an acceptor took over");
    assert_eq!(sum("rp.takeover"), 1, "at its first attempt");
    assert_eq!(sum("net.switch_drop"), 0, "no promise overflowed a port");
    let window = WINDOW_BYTES / MSG_BYTES as u64;
    // The outage outlasts the window: both proposers filled it and
    // queued behind it; each resent its window once, not its backlog.
    assert!(sum("rp.window_held") > window, "{} held", sum("rp.window_held"));
    assert_eq!(sum("rp.proposer_shed"), 0);
    assert_eq!(sum("rp.resubmit"), 2 * window);
    let due = made_due(&sim, &d);
    assert_eq!(due.len() as u64, 2 * (1 + 1500 * 300_000 / (8 * MSG_BYTES as u64)));
    let log = d.log.lock().unwrap();
    log.check_total_order().expect("total order across failover");
    log.check_integrity(&due).expect("exactly once");
    for idx in 0..d.all_learners.len() {
        assert_eq!(log.sequence(idx).len(), due.len(), "learner {idx} delivered everything");
    }
}

/// Below the knee the window is not there: 5 s runs with the
/// benchmark's loss at its main rate and at its highest passing rung
/// never hold a proposal back.
#[test]
fn the_window_never_binds_below_the_knee() {
    for mbps in [600, 900] {
        let stop = Time::from_secs(5);
        let mut sim = lossy(11);
        let d = deploy_mring(&mut sim, &options(mbps, MSG_BYTES, stop), |_| {});
        sim.run_until(stop + Dur::secs(1));
        assert!(sim.metrics().sum("net.rand_drop") > 0, "datagrams were lost");
        assert_eq!(sim.metrics().sum("rp.window_held"), 0, "{mbps} Mb/s");
        assert_eq!(sim.metrics().sum("rp.proposer_shed"), 0);
        let due = made_due(&sim, &d);
        let log = d.log.lock().unwrap();
        for idx in 0..d.all_learners.len() {
            assert_eq!(log.sequence(idx).len(), due.len(), "learner {idx} delivered everything");
        }
    }
}
