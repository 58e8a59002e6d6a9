//! Chapter 10 experiments — the unified client tier at scale. These go
//! beyond the thesis's evaluation (closed-loop clients, one actor each):
//! a [`workload::SessionTable`] hosts a million open-loop sessions over
//! the partitioned B⁺-tree, keys drawn Zipfian, and the figures track
//! throughput *and* the latency tail — first against key skew, then
//! through a mid-run coordinator crash injected by a [`FaultPlan`].

use hpsmr_core::deploy::{
    deploy_smr_sessions, PartitionOptions, SessionDeployment, SessionOptions,
};
use hpsmr_core::{SMR_ROLLBACKS, SMR_SPEC_EXEC, SMR_SPEC_STALE};
use simnet::prelude::*;
use workload::{WorkloadKind, SESSIONS_COMPLETED, SESSIONS_RETRIES, SESSION_LATENCY};

use crate::harness::{cpu_pct, header, pctl_cell};
use crate::Experiment;

/// All ch. 10 experiments in order.
pub fn experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "fig10_01",
            title: "open-loop session throughput and tail vs Zipf skew",
            run: fig10_01,
        },
        Experiment {
            id: "fig10_02",
            title: "one million sessions through a coordinator crash",
            run: fig10_02,
        },
    ]
}

/// Eight tables over a 4-partition tree: the same shape the perf smoke
/// (`perf_smoke --sessions`) measures, sized by the caller.
fn opts(hosted: u64, rate_per_table: f64, zipf_s: f64) -> SessionOptions {
    let n_tables = 8;
    SessionOptions {
        n_tables,
        sessions_per_table: hosted.div_ceil(n_tables as u64),
        rate_per_table,
        zipf_s,
        partitions: Some(PartitionOptions { n: 4, replicas_per: 2, cross_pct: 0 }),
        ..SessionOptions::default()
    }
}

fn completed(sim: &Sim, d: &SessionDeployment) -> u64 {
    d.tables.iter().map(|&t| sim.metrics().counter(t, SESSIONS_COMPLETED)).sum()
}

fn fig10_01() {
    println!("Fig 10.1 — 200k open-loop sessions, 32k req/s offered: key skew vs");
    println!("  throughput and the response-time tail (uniform to Zipf 0.99)");
    header(&["zipf s", "completed/s", "p50/p99/p999"]);
    for &s in &[0.0f64, 0.5, 0.99] {
        let mut sim = Sim::new(SimConfig::default());
        let d = deploy_smr_sessions(&mut sim, &opts(200_000, 4_000.0, s));
        // Skip the ramp-up second, then measure four.
        sim.run_until(Time::from_secs(1));
        let _ = sim.metrics_mut().take_latency(SESSION_LATENCY);
        let before = completed(&sim, &d);
        sim.run_until(Time::from_secs(5));
        let rate = (completed(&sim, &d) - before) as f64 / 4.0;
        println!("  {s:6.2} | {rate:11.0} | {}", pctl_cell(&sim, SESSION_LATENCY));
    }
    println!("  shape: ordering is skew-blind (one total order regardless of key), so");
    println!("  throughput holds; the tail moves only via per-partition execution load —");
    println!("  scattered keys keep even Zipf 0.99 spread across the four partitions.");

    println!();
    println!("Fig 10.1b — one million sessions reading (1000-key scans, Zipf 0.99): offered");
    println!("  rate vs goodput, the tail, the busiest core of any replica, and what became");
    println!("  of the speculations (executed on 2A arrival / rolled back / gone stale)");
    header(&[
        "offered/s",
        "completed/s",
        "p50/p99/p999",
        "busiest replica core",
        "spec_exec/rollbacks/spec_stale",
    ]);
    for &rate in &[12_000.0f64, 16_000.0, 20_000.0, 24_000.0, 40_000.0] {
        let mut sim = Sim::new(SimConfig::default());
        let o = SessionOptions { kind: WorkloadKind::Queries, ..opts(1_000_000, rate / 8.0, 0.99) };
        let d = deploy_smr_sessions(&mut sim, &o);
        let cores: Vec<(NodeId, usize)> = d
            .replicas
            .iter()
            .flatten()
            .flat_map(|&r| (0..sim.config().cores_per_node).map(move |c| (r, c)))
            .collect();
        let busy =
            |sim: &Sim| -> Vec<Dur> { cores.iter().map(|&(r, c)| sim.cpu_busy(r, c)).collect() };
        sim.run_until(Time::from_secs(1));
        let _ = sim.metrics_mut().take_latency(SESSION_LATENCY);
        let (done0, busy0) = (completed(&sim, &d), busy(&sim));
        sim.run_until(Time::from_secs(5));
        let goodput = (completed(&sim, &d) - done0) as f64 / 4.0;
        let (pct, (node, core)) = busy(&sim)
            .iter()
            .zip(&busy0)
            .map(|(&after, &before)| cpu_pct(before, after, Dur::secs(4)))
            .zip(&cores)
            .max_by(|a, b| a.0.total_cmp(&b.0))
            .expect("replicas have cores");
        let m = sim.metrics();
        println!(
            "  {rate:9.0} | {goodput:11.0} | {} | {pct:5.1} % (node {}, core {core}) | {} / {} / {}",
            pctl_cell(&sim, SESSION_LATENCY),
            node.0,
            m.sum(SMR_SPEC_EXEC),
            m.sum(SMR_ROLLBACKS),
            m.sum(SMR_SPEC_STALE),
        );
    }
    println!("  shape: scans bind at the replicas, not the ring. Zipf 0.99 sends 31 % of them");
    println!("  to partition 0; its two replicas spread them over both execution cores (1 and");
    println!("  3), so the ladder holds to 40k — with one execution thread the same replicas");
    println!("  owed a full core-second per second at 24k and the tail left the 5 ms limit.");
    println!("  Every scan runs when its 2A arrives and is answered on the decision (§4.2.1):");
    println!("  spec_exec counts every execution, and without loss none is undone.");
}

fn fig10_02() {
    const CRASH_AT: u64 = 10; // s
    let target = 1_000_000u64;
    println!("Fig 10.2 — one million Zipf(0.99) open-loop sessions at 24k req/s; the ring");
    println!(
        "  coordinator crashes at t={CRASH_AT}s and a survivor takes over (suspicion + rotation)"
    );
    header(&["t (s)", "completed/s", "window p50", "window p99", "event"]);
    let mut sim = Sim::new(SimConfig::default());
    let o = opts(target, 3_000.0, 0.99);
    let d = deploy_smr_sessions(&mut sim, &o);
    let mut plan =
        FaultPlan::new().at(Time::from_secs(CRASH_AT), FaultAction::Crash(d.coordinator()));
    let step = Dur::secs(2);
    let mut prev = 0u64;
    let mut n = 0u64;
    while completed(&sim, &d) < target && n < 40 {
        n += 1;
        let t = Time::ZERO + step * n;
        plan.step(&mut sim, t, &mut |_, _| {});
        sim.run_until(t);
        let cur = completed(&sim, &d);
        // Windowed drain: the crash bucket's p99 spike *is* the figure.
        let lat = sim.metrics_mut().take_latency(SESSION_LATENCY);
        let event = match t.as_secs_f64() as u64 {
            x if x == CRASH_AT + 2 => "<- coordinator crashed",
            x if x == CRASH_AT + 4 => "   (takeover + backlog drain)",
            _ => "",
        };
        println!(
            "  {:5.0} | {:11.0} | {:10} | {:10} | {event}",
            t.as_secs_f64(),
            (cur - prev) as f64 / step.as_secs_f64(),
            format!("{}", lat.p50),
            format!("{}", lat.p99),
        );
        prev = cur;
    }
    let done = completed(&sim, &d);
    let retries: u64 = d.tables.iter().map(|&t| sim.metrics().counter(t, SESSIONS_RETRIES)).sum();
    let takeovers: u64 = d.ring.iter().map(|&r| sim.metrics().counter(r, "rp.became_coord")).sum();
    println!(
        "  {done} sessions completed ({} hosted), {retries} deadline retries, {takeovers} takeover(s)",
        o.sessions_per_table * o.n_tables as u64,
    );
    assert!(done >= target, "the run must complete the full million: {done}");
    println!("  shape: the crash bucket stalls completions and blows the window p99 out to");
    println!("  the retry backoff; the survivor takes over within the suspicion timeout and");
    println!("  the outage backlog drains, but the two-member ring runs closer to its knee,");
    println!("  so the tail settles higher than before the crash while throughput holds the");
    println!("  offered rate. Offer more than the degraded ring can order and the open loop");
    println!("  never drains — the retry storm collapses it (the knee ch. 10's smoke probes).");
}
