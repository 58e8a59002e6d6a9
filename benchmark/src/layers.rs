//! The layer ledger, measured from outside: counts read through the
//! simulator's public counters, stage times from the traced
//! repetition, and drill unit costs — folded into the per-layer metric
//! list and the layer-share table.

use crate::drills::Drills;
use crate::report::LAYER_METRICS;
use crate::rules::median;
use crate::workloads::{Kind, Rep, Spec};

/// The single-node client-server baseline (`deploy_cs`, same command
/// kind, 20 closed-loop clients).
#[derive(Clone, Copy, Debug, Default)]
pub struct CsBaseline {
    /// Commands completed per virtual second.
    pub goodput: f64,
    /// Median response time, µs.
    pub p50_us: f64,
}

/// Everything the per-layer metrics are computed from.
pub struct LayerPass {
    /// An untraced main-rate repetition.
    pub base: Rep,
    /// The traced repetition of the same seed.
    pub traced: Rep,
    /// Drill unit costs.
    pub drills: Drills,
    /// The top (overload) ladder rung, where the workload has sessions.
    pub top: Option<Rep>,
    /// The single-node baseline, where the workload has a service.
    pub cs: Option<CsBaseline>,
}

/// Median host µs per op over a repetition's chunks.
pub fn chunk_median_us(rep: &Rep) -> f64 {
    if rep.chunk_us_per_op.is_empty() {
        return 0.0;
    }
    median(&rep.chunk_us_per_op)
}

fn per(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// Every per-layer metric as `(name, unit, value)`, in
/// `report::LAYER_METRICS` order.
///
/// # Panics
/// Panics if the list below and the registry have drifted apart.
pub fn layer_metrics(spec: &Spec, inp: &LayerPass) -> Vec<(&'static str, &'static str, f64)> {
    let values = layer_values(spec, inp);
    assert_eq!(values.len(), LAYER_METRICS.len(), "layer list and registry differ in length");
    LAYER_METRICS
        .iter()
        .zip(values)
        .map(|(def, (name, value))| {
            assert_eq!(def.0, name, "layer list and registry differ in order");
            (def.0, def.1, value)
        })
        .collect()
}

fn layer_values(spec: &Spec, inp: &LayerPass) -> Vec<(&'static str, f64)> {
    let (b, d) = (&inp.base, &inp.drills);
    let ops = b.ops.max(1);
    let window_ns = (b.window_s * 1e9) as u64;
    let pct = |busy_label: &str| per(b.count(busy_label) * 100, window_ns);
    let kop = |label: &str| per(b.count(label) * 1000, ops);
    let events_per_op = per(b.count("events"), ops);
    let base_us = chunk_median_us(b);
    let st = inp.traced.stages.unwrap_or_default();
    // Session-tier stress numbers come from the top rung when it ran.
    let stress = inp.top.as_ref().unwrap_or(b);
    let uring = spec.kind == Kind::UringFailover;
    let opt = |v: Option<f64>| v.unwrap_or(0.0);
    vec![
        ("simnet.events_per_op", events_per_op),
        (
            "simnet.host_ns_per_event",
            if events_per_op > 0.0 { base_us * 1e3 / events_per_op } else { 0.0 },
        ),
        ("simnet.net.pkts_per_op", per(b.count("sent_pkts"), ops)),
        ("simnet.net.bytes_per_op", per(b.count("sent_bytes"), ops)),
        ("simnet.net.drops_per_kop", kop("drops")),
        ("simnet.disk.bytes_per_op", per(b.count("disk_bytes"), ops)),
        ("simnet.dispatch.mean_batch", per(b.count("dispatched_msgs"), b.count("dispatches"))),
        ("simnet.timer_host_ns", d.timer_ns),
        ("simnet.udp_host_ns", d.udp_ns),
        ("simnet.tcp_seg_host_ns", d.tcp_seg_ns),
        ("simnet.mcast_rx_host_ns", d.mcast_rx_ns),
        ("simnet.payload_host_ns", d.payload_ns),
        ("simnet.stats_record_host_ns", d.stats_record_ns),
        ("simnet.wheel_host_ns", d.wheel_ns),
        (
            "simnet.probe.trace_overhead_pct",
            if base_us > 0.0 {
                (chunk_median_us(&inp.traced) / base_us - 1.0) * 100.0
            } else {
                0.0
            },
        ),
        ("paxos.instance_host_ns", d.paxos_instance_ns),
        ("ringpaxos.ops_per_instance", per(b.ops, b.count("instances"))),
        ("ringpaxos.coord_cpu_pct", pct("coord_busy_ns")),
        ("ringpaxos.acceptor_cpu_pct", pct("acceptor_busy_ns")),
        ("ringpaxos.retrans_per_kop", kop("retrans")),
        ("ringpaxos.buffered_per_kop", kop("buffered")),
        ("ringpaxos.stage.propose_2a_p50_us", st.p50_us[0]),
        ("ringpaxos.stage.propose_2a_p99_us", st.p99_us[0]),
        ("ringpaxos.stage.2a_2b_p50_us", st.p50_us[1]),
        ("ringpaxos.stage.2a_2b_p99_us", st.p99_us[1]),
        ("ringpaxos.stage.2b_decide_p50_us", st.p50_us[2]),
        ("ringpaxos.stage.2b_decide_p99_us", st.p99_us[2]),
        ("ringpaxos.stage.decide_deliver_p50_us", st.p50_us[3]),
        ("ringpaxos.stage.decide_deliver_p99_us", st.p99_us[3]),
        ("ringpaxos.dedup_host_ns", d.dedup_ns),
        ("ringpaxos.batch_pack_host_ns", d.batch_pack_ns),
        ("ringpaxos.takeover_ms", opt(b.takeover_ms)),
        ("ringpaxos.takeovers", b.count("takeovers") as f64),
        ("ringpaxos.ring_repairs", b.count("ring_repairs") as f64),
        ("ringpaxos.stale_2ab", b.count("stale_2ab") as f64),
        ("ringpaxos.epoch_reproposals", b.count("epoch_reproposals") as f64),
        ("recovery.catchup_instances", b.count("catchup_instances") as f64),
        ("recovery.checkpoints", b.count("checkpoints") as f64),
        ("recovery.transfer_bytes", b.count("transfer_bytes") as f64),
        ("recovery.state_transfers", b.count("state_transfers") as f64),
        ("recovery.checkpoint_host_us", d.checkpoint_us),
        ("recovery.catchup_replay_host_ns", d.catchup_replay_ns),
        ("core.replica_cpu_pct", pct("replica_busy_ns")),
        ("core.spec_rollbacks", b.count("spec_rollbacks") as f64),
        ("core.cs_goodput_ops_s", inp.cs.map_or(0.0, |c| c.goodput)),
        ("core.cs_latency_p50_us", inp.cs.map_or(0.0, |c| c.p50_us)),
        ("btree.update_host_ns", d.btree_update_ns),
        ("btree.range1000_host_ns", d.btree_range1000_ns),
        ("btree.get_host_ns", d.btree_get_ns),
        ("workload.retries_per_kop", per(stress.count("retries") * 1000, stress.submitted)),
        ("workload.shed", stress.count("shed") as f64),
        ("workload.abandoned", stress.count("abandoned") as f64),
        ("workload.offered_ratio", b.submitted as f64 / (spec.main_rate * b.window_s)),
        ("workload.arrival_gap_mean_us", b.arrival_gap_mean_us),
        ("workload.table_cpu_pct", pct("table_busy_ns")),
        ("workload.zipf_host_ns", d.zipf_ns),
        ("workload.command_host_ns", d.command_ns),
        ("abcast.check_host_ns_per_delivery", per((b.check_s * 1e9) as u64, b.deliveries_checked)),
        ("failed_share", opt(b.failed_share)),
        ("outage_ms", if uring { opt(b.outage_ms) } else { 0.0 }),
        ("recover_ms", if uring { opt(b.recover_ms) } else { 0.0 }),
    ]
}

/// One row of the layer-share table.
#[derive(Clone, Debug)]
pub struct ShareRow {
    /// Layer and operation.
    pub layer: &'static str,
    /// Drill unit cost, host ns per call.
    pub unit_ns: f64,
    /// Calls of that shape the workload made in its window.
    pub calls: u64,
    /// `unit × calls` as a share of the window's measured wall, %.
    pub share_pct: f64,
    /// The cost is already inside another row (shown, not summed).
    pub nested: bool,
}

/// The layer-share table of one workload: drill unit cost × the
/// workload's own call count ÷ its measured wall. Call counts come
/// from the window's counters; where the engine exposes no counter the
/// count is derived and the derivation is in the README (timer events
/// are total events minus two — with TCP acks three — per reception).
/// The last row is the unexplained remainder.
pub fn share_table(spec: &Spec, b: &Rep, d: &Drills) -> Vec<ShareRow> {
    let wall_ns = b.measure_wall_s * 1e9;
    let tcp = spec.kind == Kind::UringFailover;
    let (sent, recv, events) = (b.count("sent_pkts"), b.count("recv_pkts"), b.count("events"));
    let timers = events.saturating_sub(recv * if tcp { 3 } else { 2 });
    let smr = spec.is_smr();
    let sessions = if smr { b.submitted } else { 0 };
    let mut rows: Vec<(&'static str, f64, u64, bool)> = Vec::new();
    if tcp {
        rows.push(("simnet.tcp_seg", d.tcp_seg_ns, recv, false));
    } else {
        rows.push(("simnet.net_send", (d.udp_ns - d.mcast_rx_ns).max(0.0), sent, false));
        rows.push(("simnet.net_recv", d.mcast_rx_ns, recv, false));
    }
    rows.push(("simnet.payload", d.payload_ns, sent, true));
    rows.push(("simnet.timer", d.timer_ns, timers, false));
    rows.push(("simnet.stats_record", d.stats_record_ns, b.lat.count + sessions, false));
    rows.push(("simnet.wheel", d.wheel_ns, sessions + b.count("retries"), false));
    rows.push(("paxos.instance", d.paxos_instance_ns, b.count("instances"), false));
    rows.push(("ringpaxos.batch_pack", d.batch_pack_ns, b.count("instances"), false));
    rows.push(("ringpaxos.dedup", d.dedup_ns, b.count("delivered_all"), false));
    rows.push((
        "recovery.catchup_replay",
        d.catchup_replay_ns,
        b.count("catchup_instances"),
        false,
    ));
    // Updates execute at every replica of the partition, queries only at
    // the designated one.
    let updates = if spec.kind == Kind::SmrUpdate { b.count("delivered_all") } else { 0 };
    let scans = if spec.kind == Kind::SmrQuery { b.ops } else { 0 };
    rows.push(("btree.update", d.btree_update_ns, updates, false));
    rows.push(("btree.range1000", d.btree_range1000_ns, scans, false));
    rows.push(("workload.command", d.command_ns, sessions, false));
    rows.push(("workload.zipf", d.zipf_ns, sessions, true));
    let mut out: Vec<ShareRow> = rows
        .into_iter()
        .map(|(layer, unit_ns, calls, nested)| ShareRow {
            layer,
            unit_ns,
            calls,
            share_pct: if wall_ns > 0.0 { unit_ns * calls as f64 / wall_ns * 100.0 } else { 0.0 },
            nested,
        })
        .collect();
    let explained: f64 = out.iter().filter(|r| !r.nested).map(|r| r.share_pct).sum();
    out.push(ShareRow {
        layer: "unexplained (actor handlers, dispatch, queueing)",
        unit_ns: 0.0,
        calls: 0,
        share_pct: 100.0 - explained,
        nested: false,
    });
    out
}
