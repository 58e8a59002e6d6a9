//! Chapter 3 experiments: the Ring Paxos evaluation (Figs. 3.2–3.14,
//! Tables 3.2–3.4).

use abcast::metric;
use baselines::{deploy_lcr, deploy_libpaxos, deploy_pfsb, deploy_spaxos, deploy_totem};
use ringpaxos::cluster::{deploy_mring, deploy_uring, layout_mring, MRingOptions, URingOptions};
use ringpaxos::StorageMode;
use simnet::prelude::*;

use crate::harness::{cpu_pct, header, Window};
use crate::Experiment;

/// All ch. 3 experiments in paper order.
pub fn experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "fig3_02",
            title: "one-to-many: unicast vs multicast vs pipeline",
            run: fig3_02,
        },
        Experiment { id: "fig3_03", title: "multi-sender ip-multicast packet loss", run: fig3_03 },
        Experiment { id: "fig3_04", title: "many-to-one: pipeline vs unicast", run: fig3_04 },
        Experiment {
            id: "fig3_07",
            title: "Ring Paxos vs other atomic broadcast protocols",
            run: fig3_07,
        },
        Experiment { id: "tab3_02", title: "protocol efficiency at 10 receivers", run: tab3_02 },
        Experiment { id: "fig3_08", title: "impact of processes in the ring", run: fig3_08 },
        Experiment { id: "fig3_09", title: "impact of synchronous disk writes", run: fig3_09 },
        Experiment { id: "fig3_10", title: "M-Ring Paxos vs message size", run: fig3_10 },
        Experiment { id: "fig3_11", title: "U-Ring Paxos vs message size", run: fig3_11 },
        Experiment { id: "fig3_12", title: "M-Ring Paxos vs socket buffer size", run: fig3_12 },
        Experiment { id: "fig3_13", title: "U-Ring Paxos vs socket buffer size", run: fig3_13 },
        Experiment { id: "fig3_14", title: "flow control under a slow learner", run: fig3_14 },
        Experiment { id: "tab3_03", title: "CPU and memory per role, M-Ring Paxos", run: tab3_03 },
        Experiment { id: "tab3_04", title: "CPU and memory per role, U-Ring Paxos", run: tab3_04 },
        Experiment {
            id: "probe3_uring",
            title: "U-Ring latency decomposition (probe layer)",
            run: crate::probes::probe3_uring,
        },
    ]
}

/// A sender that paces raw datagrams to a destination set, unicast or
/// multicast, in bursts (used by the motivation experiments).
struct RawSender {
    dsts: Vec<NodeId>,
    group: Option<GroupId>,
    pacer: abcast::Pacer,
    relay: Option<NodeId>,
    start_offset: Dur,
}

impl Actor for RawSender {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(self.start_offset, TimerToken(1));
    }
    fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
        // Pipeline relay: forward to the successor.
        if let Some(next) = self.relay {
            ctx.udp_forward(next, env.payload.clone(), env.wire_bytes);
            ctx.counter_add("raw.recv", env.wire_bytes as u64);
        }
    }
    fn on_timer(&mut self, _t: TimerToken, ctx: &mut Ctx) {
        let due = self.pacer.due(ctx.now());
        let bytes = self.pacer.msg_bytes();
        for _ in 0..due {
            match self.group {
                Some(g) => ctx.mcast(g, 0u8, bytes),
                None => {
                    for &d in &self.dsts {
                        ctx.udp_send(d, 0u8, bytes);
                    }
                }
            }
        }
        ctx.set_timer(self.pacer.interval(), TimerToken(1));
    }
}

struct RawReceiver {
    relay: Option<NodeId>,
}
impl Actor for RawReceiver {
    fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
        ctx.counter_add("raw.recv", env.wire_bytes as u64);
        if let Some(next) = self.relay {
            ctx.udp_forward(next, env.payload.clone(), env.wire_bytes);
        }
    }
}

fn fig3_02() {
    println!(
        "Fig 3.2 — one-to-many, 8 KB packets, per-receiver throughput (Mbps) and sender CPU (%)"
    );
    header(&[
        "receivers",
        "unicast Mbps",
        "mcast Mbps",
        "pipeline Mbps",
        "uni CPU",
        "mc CPU",
        "pipe CPU",
    ]);
    for &n in &[1usize, 5, 10, 15, 20, 25] {
        let mut row = vec![format!("{n:9}")];
        let mut cpus = Vec::new();
        for mode in ["unicast", "mcast", "pipeline"] {
            let mut sim = Sim::new(SimConfig::default());
            let sender = sim.add_node(Box::new(Idle));
            let receivers: Vec<NodeId> = (0..n)
                .map(|i| {
                    let relay_pending = mode == "pipeline" && i > 0;
                    let _ = relay_pending;
                    sim.add_node(Box::new(RawReceiver { relay: None }))
                })
                .collect();
            // Pipeline: receiver i relays to i+1.
            if mode == "pipeline" {
                for i in 0..n.saturating_sub(1) {
                    sim.replace_actor(
                        receivers[i],
                        Box::new(RawReceiver { relay: Some(receivers[i + 1]) }),
                    );
                }
            }
            let group = sim.add_group();
            for &r in &receivers {
                sim.subscribe(r, group);
            }
            // A saturating sender offers the link rate in total; the
            // unicast sender divides it across its n copies.
            let rate = if mode == "unicast" { 960_000_000 / n as u64 } else { 960_000_000 };
            let pacer = abcast::Pacer::new(rate, 8192, 1);
            let actor = RawSender {
                dsts: if mode == "unicast" { receivers.clone() } else { vec![receivers[0]] },
                group: (mode == "mcast").then_some(group),
                pacer,
                relay: None,
                start_offset: Dur::ZERO,
            };
            sim.replace_actor(sender, Box::new(actor));
            let w = Window::open(&mut sim, Dur::millis(200), Dur::secs(1), &[]);
            let before = w.snapshot(&sim, &receivers, "raw.recv");
            let cpu0 = sim.cpu_busy(sender, 0);
            w.close(&mut sim);
            let after = w.snapshot(&sim, &receivers, "raw.recv");
            let last = receivers.len() - 1;
            let tput = w.mbps_of(before[last], after[last]);
            let cpu = cpu_pct(cpu0, sim.cpu_busy(sender, 0), w.len());
            row.push(format!("{tput:12.0}"));
            cpus.push(format!("{cpu:7.0}"));
        }
        println!("  {} | {} | ", row.join(" | "), cpus.join(" | "));
    }
    println!(
        "  shape: unicast falls ~1/n; multicast and pipeline stay near wire speed (paper Fig 3.2)."
    );
}

fn fig3_03() {
    println!("Fig 3.3 — packet loss vs aggregate rate, 14 multicast receivers, bursty senders");
    header(&["senders", "rate Mbps", "lost %"]);
    for &senders in &[1usize, 2, 5] {
        for &rate in &[200u64, 400, 600, 800, 950] {
            let mut cfg = SimConfig::default();
            // The motivation experiment runs with commodity defaults:
            // small switch port buffers expose burst collisions.
            cfg.switch_port_buffer = 96 * 1024;
            let mut sim = Sim::new(cfg);
            let txs: Vec<NodeId> = (0..senders).map(|_| sim.add_node(Box::new(Idle))).collect();
            let receivers: Vec<NodeId> =
                (0..14).map(|_| sim.add_node(Box::new(RawReceiver { relay: None }))).collect();
            let group = sim.add_group();
            for &r in &receivers {
                sim.subscribe(r, group);
            }
            for (i, &t) in txs.iter().enumerate() {
                // Timer-driven app batching: each sender wakes every
                // ~10 ms and blasts its accumulated data at wire speed;
                // longer bursts (higher rates) overlap more often, which
                // is what makes concurrent multicast senders collide.
                let per_sender = rate * 1_000_000 / senders as u64;
                let burst = ((per_sender / 100 / 8) / 8192).max(1) as u32;
                // Slightly different periods per sender: burst phases
                // drift past each other instead of staying locked, so
                // overlap becomes probabilistic (as on real hosts).
                let jitter = per_sender * (1000 + 13 * i as u64) / 1000;
                let pacer = abcast::Pacer::new(jitter, 8192, burst);
                sim.replace_actor(
                    t,
                    Box::new(RawSender {
                        dsts: vec![],
                        group: Some(group),
                        pacer,
                        relay: None,
                        start_offset: Dur::micros(1_300 * i as u64),
                    }),
                );
            }
            sim.run_until(Time::from_secs(1));
            let sent: u64 = txs.iter().map(|&t| sim.metrics().counter(t, "net.sent_pkts")).sum();
            let dropped: u64 =
                receivers.iter().map(|&r| sim.metrics().counter(r, "net.switch_drop")).sum();
            let copies = sent * receivers.len() as u64;
            let lost = dropped as f64 / copies.max(1) as f64 * 100.0;
            println!("  {senders:7} | {rate:9} | {lost:6.2}");
        }
    }
    println!("  shape: more senders -> loss starts at lower aggregate rates (paper Fig 3.3).");
}

fn fig3_04() {
    println!("Fig 3.4 — many-to-one (4 senders -> 1 receiver): pipeline vs unicast");
    header(&["packet KB", "uni Mbps", "pipe Mbps", "uni rcv CPU%", "pipe rcv CPU%"]);
    for &kb in &[1u32, 2, 4, 8] {
        let mut per_mode = Vec::new();
        for pipeline in [false, true] {
            let mut sim = Sim::new(SimConfig::default());
            let receiver = sim.add_node(Box::new(RawReceiver { relay: None }));
            let senders: Vec<NodeId> = (0..4).map(|_| sim.add_node(Box::new(Idle))).collect();
            for (i, &s) in senders.iter().enumerate() {
                let next = if pipeline {
                    if i + 1 < senders.len() {
                        senders[i + 1]
                    } else {
                        receiver
                    }
                } else {
                    receiver
                };
                let pacer = abcast::Pacer::new(300_000_000, kb * 1024, 1);
                let actor = RawSender {
                    dsts: vec![next],
                    group: None,
                    pacer,
                    relay: if pipeline && i > 0 { Some(next) } else { None },
                    start_offset: Dur::ZERO,
                };
                sim.replace_actor(s, Box::new(actor));
            }
            let w = Window::open(&mut sim, Dur::millis(200), Dur::secs(1), &[]);
            let before = sim.metrics().counter(receiver, "raw.recv");
            let cpu0 = sim.cpu_busy(receiver, 0);
            w.close(&mut sim);
            let after = sim.metrics().counter(receiver, "raw.recv");
            let tput = w.mbps_of(before, after);
            let cpu = cpu_pct(cpu0, sim.cpu_busy(receiver, 0), w.len());
            per_mode.push((tput, cpu));
        }
        println!(
            "  {kb:9} | {:8.0} | {:9.0} | {:12.0} | {:13.0}",
            per_mode[0].0, per_mode[1].0, per_mode[0].1, per_mode[1].1
        );
    }
    println!("  shape: pipelining batches small messages and balances links (paper Fig 3.4).");
}

/// Per-receiver delivered Mbps for one protocol at `n` receivers.
fn protocol_tput(proto: &str, receivers: usize) -> f64 {
    let mut sim = Sim::new(SimConfig::default());
    let (node, _all): (NodeId, Vec<NodeId>) = match proto {
        "mring" => {
            let opts = MRingOptions {
                ring_size: 3,
                n_learners: receivers,
                n_proposers: 2,
                proposer_rate_bps: 475_000_000,
                msg_bytes: 8192,
                ..MRingOptions::default()
            };
            let d = deploy_mring(&mut sim, &opts, |_| {});
            (d.learners[0], d.learners.clone())
        }
        "uring" => {
            let n = receivers.max(3);
            let opts = URingOptions {
                ring_len: n,
                n_acceptors: n.div_ceil(2),
                proposer_positions: (0..n).collect(),
                proposer_rate_bps: 1_100_000_000 / n as u64,
                msg_bytes: 32 * 1024,
                ..URingOptions::default()
            };
            let d = deploy_uring(&mut sim, &opts, |_| {});
            (d.ring[n / 2], d.ring.clone())
        }
        "lcr" => {
            let n = receivers.max(2);
            let (ring, _) = deploy_lcr(&mut sim, n, 1_100_000_000 / n as u64, 32 * 1024);
            (ring[n / 2], ring)
        }
        "spaxos" => {
            let (replicas, _) = deploy_spaxos(&mut sim, 2, 75_000_000, 32 * 1024);
            (replicas[0], replicas)
        }
        "totem" => {
            let (rx, _) = deploy_totem(&mut sim, 3, receivers, 3, 150_000_000, 16 * 1024);
            (rx[0], rx)
        }
        "libpaxos" => {
            let (_cfg, learners, _) = deploy_libpaxos(&mut sim, 1, receivers, 2, 100_000_000, 4096);
            (learners[0], learners)
        }
        "pfsb" => {
            let (learners, _) = deploy_pfsb(&mut sim, 1, receivers, 2, 50_000_000, 200);
            (learners[0], learners)
        }
        _ => unreachable!("unknown protocol"),
    };
    let w = Window::open(&mut sim, Dur::secs(1), Dur::secs(2), &[]);
    let before = sim.metrics().counter(node, metric::DELIVERED_BYTES);
    w.close(&mut sim);
    let after = sim.metrics().counter(node, metric::DELIVERED_BYTES);
    w.mbps_of(before, after)
}

fn fig3_07() {
    println!("Fig 3.7 — Ring Paxos vs other protocols, per-receiver Mbps (best message size each)");
    let protos = ["mring", "uring", "lcr", "spaxos", "totem", "libpaxos", "pfsb"];
    header(&["receivers", "M-RP", "U-RP", "LCR", "S-Paxos", "Spread", "Libpaxos", "PFSB"]);
    for &n in &[5usize, 10, 20] {
        let row: Vec<String> =
            protos.iter().map(|p| format!("{:8.0}", protocol_tput(p, n))).collect();
        println!("  {n:9} | {}", row.join(" | "));
    }
    println!("  shape: ring/multicast protocols flat near wire speed; S-Paxos/Spread/Libpaxos/PFSB far below (paper Fig 3.7).");
}

fn tab3_02() {
    println!("Table 3.2 — efficiency at 10 receivers (paper: LCR 91%, U-RP 90.4%, M-RP 90%, S-Paxos 31.2%, Spread 18%, PFSB 4%, Libpaxos 3%)");
    header(&["protocol", "msg size", "Mbps", "efficiency %"]);
    for (proto, label, size) in [
        ("lcr", "LCR", "32 KB"),
        ("uring", "U-Ring Paxos", "32 KB"),
        ("mring", "M-Ring Paxos", "8 KB"),
        ("spaxos", "S-Paxos", "32 KB"),
        ("totem", "Spread", "16 KB"),
        ("pfsb", "PFSB", "200 B"),
        ("libpaxos", "Libpaxos", "4 KB"),
    ] {
        let tput = protocol_tput(proto, 10);
        println!("  {label:<13} | {size:>8} | {tput:6.0} | {:10.1}", tput / 10.0);
    }
}

fn fig3_08() {
    println!("Fig 3.8 — throughput and latency vs processes in the ring");
    header(&["processes", "M-RP Mbps", "M-RP lat", "U-RP Mbps", "U-RP lat", "LCR Mbps", "LCR lat"]);
    for &n in &[3usize, 5, 9, 15, 21] {
        let mut cells = Vec::new();
        // M-Ring Paxos: n = acceptors in the ring.
        {
            let mut sim = Sim::new(SimConfig::default());
            let opts = MRingOptions {
                ring_size: n,
                n_learners: 2,
                n_proposers: 2,
                proposer_rate_bps: 475_000_000,
                msg_bytes: 8192,
                ..MRingOptions::default()
            };
            let d = deploy_mring(&mut sim, &opts, |_| {});
            let w = Window::open(&mut sim, Dur::secs(1), Dur::secs(1), &[metric::LATENCY]);
            let b = sim.metrics().counter(d.learners[0], metric::DELIVERED_BYTES);
            w.close(&mut sim);
            let a = sim.metrics().counter(d.learners[0], metric::DELIVERED_BYTES);
            let lat = sim.metrics().latency(metric::LATENCY).mean;
            cells.push(format!("{:9.0} | {:8}", w.mbps_of(b, a), format!("{lat}")));
        }
        // U-Ring Paxos and LCR: n = all processes.
        {
            let mut sim = Sim::new(SimConfig::default());
            let opts = URingOptions {
                ring_len: n,
                n_acceptors: n.div_ceil(2),
                proposer_positions: (0..n).collect(),
                proposer_rate_bps: 1_100_000_000 / n as u64,
                msg_bytes: 32 * 1024,
                ..URingOptions::default()
            };
            let d = deploy_uring(&mut sim, &opts, |_| {});
            let w = Window::open(&mut sim, Dur::secs(1), Dur::secs(1), &[metric::LATENCY]);
            let b = sim.metrics().counter(d.ring[n / 2], metric::DELIVERED_BYTES);
            w.close(&mut sim);
            let a = sim.metrics().counter(d.ring[n / 2], metric::DELIVERED_BYTES);
            let lat = sim.metrics().latency(metric::LATENCY).mean;
            cells.push(format!("{:9.0} | {:8}", w.mbps_of(b, a), format!("{lat}")));
        }
        {
            let mut sim = Sim::new(SimConfig::default());
            let (ring, _) = deploy_lcr(&mut sim, n, 1_100_000_000 / n as u64, 32 * 1024);
            let w = Window::open(&mut sim, Dur::secs(1), Dur::secs(1), &[metric::LATENCY]);
            let b = sim.metrics().counter(ring[n / 2], metric::DELIVERED_BYTES);
            w.close(&mut sim);
            let a = sim.metrics().counter(ring[n / 2], metric::DELIVERED_BYTES);
            let lat = sim.metrics().latency(metric::LATENCY).mean;
            cells.push(format!("{:8.0} | {:7}", w.mbps_of(b, a), format!("{lat}")));
        }
        println!("  {n:9} | {}", cells.join(" | "));
    }
    println!(
        "  shape: throughput ~flat; latency grows with ring size, least for M-RP (paper Fig 3.8)."
    );
}

fn fig3_09() {
    println!("Fig 3.9 — synchronous disk writes: latency vs ring size (400 Mbps offered)");
    header(&["processes", "M-RP lat", "U-RP lat", "M-RP Mbps", "U-RP Mbps"]);
    for &n in &[3usize, 5, 9] {
        let mut sim = Sim::new(SimConfig::default());
        let opts = MRingOptions {
            ring_size: n,
            n_learners: 2,
            n_proposers: 2,
            proposer_rate_bps: 200_000_000,
            msg_bytes: 8192,
            ..MRingOptions::default()
        };
        let d = deploy_mring(&mut sim, &opts, |c| c.storage = StorageMode::SyncDisk);
        let w = Window::open(&mut sim, Dur::secs(1), Dur::secs(1), &[metric::LATENCY]);
        let b = sim.metrics().counter(d.learners[0], metric::DELIVERED_BYTES);
        w.close(&mut sim);
        let a = sim.metrics().counter(d.learners[0], metric::DELIVERED_BYTES);
        let m_lat = sim.metrics().latency(metric::LATENCY).trimmed_mean_95;
        let m_tput = w.mbps_of(b, a);

        let mut sim = Sim::new(SimConfig::default());
        let opts = URingOptions {
            ring_len: n,
            n_acceptors: n.div_ceil(2),
            proposer_positions: (0..n).collect(),
            proposer_rate_bps: 400_000_000 / n as u64,
            msg_bytes: 32 * 1024,
            ..URingOptions::default()
        };
        let d = deploy_uring(&mut sim, &opts, |c| c.storage = StorageMode::SyncDisk);
        let w = Window::open(&mut sim, Dur::secs(1), Dur::secs(1), &[metric::LATENCY]);
        let b = sim.metrics().counter(d.ring[n / 2], metric::DELIVERED_BYTES);
        w.close(&mut sim);
        let a = sim.metrics().counter(d.ring[n / 2], metric::DELIVERED_BYTES);
        let u_lat = sim.metrics().latency(metric::LATENCY).trimmed_mean_95;
        let u_tput = w.mbps_of(b, a);
        println!("  {n:9} | {m_lat:8} | {u_lat:8} | {m_tput:9.0} | {u_tput:9.0}");
    }
    println!("  shape: both rings carry the offered 400 Mbps. Votes that queue behind a write");
    println!("  share the next one, so a log drains toward the disk's 450 Mbps transfer rate;");
    println!("  the paper's ~270 Mbps (Fig 3.9) is one 32 KB write per 973 us op. At 89 % of");
    println!("  the transfer rate each write carries a large group, so latency is group-commit");
    println!("  waiting; U-RP's grows with the writing acceptors a 2B must pass (1 / 2 / 4).");
}

fn msg_size_sweep(uring: bool) {
    let sizes: &[u32] = if uring {
        &[200, 1024, 2048, 4096, 8192, 32 * 1024]
    } else {
        &[200, 1024, 2048, 4096, 8192]
    };
    header(&["msg bytes", "Mbps", "latency", "msgs/s", "batches/s"]);
    for &size in sizes {
        let mut sim = Sim::new(SimConfig::default());
        let (node, coord) = if uring {
            let opts = URingOptions {
                ring_len: 5,
                n_acceptors: 3,
                proposer_positions: vec![0, 1, 2, 3, 4],
                proposer_rate_bps: 240_000_000,
                msg_bytes: size,
                ..URingOptions::default()
            };
            let d = deploy_uring(&mut sim, &opts, |_| {});
            (d.ring[2], d.ring[0])
        } else {
            let opts = MRingOptions {
                ring_size: 3,
                n_learners: 2,
                n_proposers: 2,
                proposer_rate_bps: 475_000_000,
                msg_bytes: size,
                ..MRingOptions::default()
            };
            let d = deploy_mring(&mut sim, &opts, |_| {});
            (d.learners[0], d.coordinator())
        };
        let w = Window::open(&mut sim, Dur::secs(1), Dur::secs(1), &[metric::LATENCY]);
        let b_bytes = sim.metrics().counter(node, metric::DELIVERED_BYTES);
        let b_msgs = sim.metrics().counter(node, metric::DELIVERED_MSGS);
        let b_inst = sim.metrics().counter(coord, metric::INSTANCES);
        w.close(&mut sim);
        let a_bytes = sim.metrics().counter(node, metric::DELIVERED_BYTES);
        let a_msgs = sim.metrics().counter(node, metric::DELIVERED_MSGS);
        let a_inst = sim.metrics().counter(coord, metric::INSTANCES);
        let lat = sim.metrics().latency(metric::LATENCY).mean;
        println!(
            "  {size:9} | {:4.0} | {:7} | {:6.0} | {:9.0}",
            w.mbps_of(b_bytes, a_bytes),
            format!("{lat}"),
            w.rate_of(b_msgs, a_msgs),
            w.rate_of(b_inst, a_inst),
        );
    }
}

fn fig3_10() {
    println!("Fig 3.10 — M-Ring Paxos vs application message size (8 KB consensus packets)");
    msg_size_sweep(false);
    println!("  shape: throughput rises with message size; small messages batch many per instance (paper Fig 3.10).");
}

fn fig3_11() {
    println!("Fig 3.11 — U-Ring Paxos vs application message size (32 KB consensus packets)");
    msg_size_sweep(true);
    println!("  shape: throughput rises to the 32 KB packet size (paper Fig 3.11).");
}

fn fig3_12() {
    println!("Fig 3.12 — M-Ring Paxos vs socket buffer size");
    header(&["buffer", "Mbps", "latency"]);
    for &buf in &[100_000u32, 1_000_000, 4_000_000, 16_000_000] {
        let mut cfg = SimConfig::default();
        cfg.udp_socket_buffer = buf;
        let mut sim = Sim::new(cfg);
        let opts = MRingOptions {
            ring_size: 3,
            n_learners: 2,
            n_proposers: 2,
            proposer_rate_bps: 475_000_000,
            msg_bytes: 8192,
            ..MRingOptions::default()
        };
        let d = deploy_mring(&mut sim, &opts, |_| {});
        let w = Window::open(&mut sim, Dur::secs(1), Dur::secs(1), &[metric::LATENCY]);
        let b = sim.metrics().counter(d.learners[0], metric::DELIVERED_BYTES);
        w.close(&mut sim);
        let a = sim.metrics().counter(d.learners[0], metric::DELIVERED_BYTES);
        let lat = sim.metrics().latency(metric::LATENCY).mean;
        println!("  {:>8} | {:4.0} | {lat}", format!("{}K", buf / 1000), w.mbps_of(b, a));
    }
    println!("  shape: near max even with small buffers (retransmission absorbs losses) (paper Fig 3.12).");
}

fn fig3_13() {
    println!("Fig 3.13 — U-Ring Paxos vs socket buffer (TCP window) size");
    header(&["buffer", "Mbps", "latency"]);
    for &buf in &[100_000u32, 500_000, 1_000_000, 4_000_000, 16_000_000] {
        let mut cfg = SimConfig::default();
        // The TCP window tracks the configured socket buffer (halved for
        // congestion-control headroom).
        cfg.tcp_window_bytes = buf / 2;
        let mut sim = Sim::new(cfg);
        let opts = URingOptions {
            ring_len: 5,
            n_acceptors: 3,
            proposer_positions: vec![0, 1, 2, 3, 4],
            proposer_rate_bps: 240_000_000,
            msg_bytes: 32 * 1024,
            ..URingOptions::default()
        };
        let d = deploy_uring(&mut sim, &opts, |_| {});
        let w = Window::open(&mut sim, Dur::secs(1), Dur::secs(1), &[metric::LATENCY]);
        let b = sim.metrics().counter(d.ring[2], metric::DELIVERED_BYTES);
        w.close(&mut sim);
        let a = sim.metrics().counter(d.ring[2], metric::DELIVERED_BYTES);
        let lat = sim.metrics().latency(metric::LATENCY).mean;
        println!("  {:>8} | {:4.0} | {lat}", format!("{}K", buf / 1000), w.mbps_of(b, a));
    }
    println!("  shape: buffers below ~1 MB throttle TCP throughput (paper Fig 3.13).");
}

fn fig3_14() {
    println!("Fig 3.14 — flow control trace: learner slows down during t=[20,40)s (compressed to [0.75,1.75)s)");
    header(&["t (s)", "deliver Mbps", "coord window", "slowdowns"]);
    let mut sim = Sim::new(SimConfig::default());
    let opts = MRingOptions {
        ring_size: 3,
        n_learners: 3,
        n_proposers: 2,
        proposer_rate_bps: 250_000_000,
        msg_bytes: 8192,
        ..MRingOptions::default()
    };
    // The slow learner's per-batch application cost is flipped at runtime
    // through a cost control, attached to learner 0 as it is installed.
    let slow_cost = std::sync::Arc::new(std::sync::Mutex::new(Dur::ZERO));
    let layout = layout_mring(&mut sim, &opts, &[], None, |cfg| {
        cfg.flow.learner_threshold = 256;
    });
    let slow = layout.d.learners[0];
    layout.install(&mut sim, |p, n, _| {
        Some(Box::new(if n == slow { p.with_cost_control(slow_cost.clone()) } else { p }))
    });

    let mut prev = 0u64;
    for step in 1..=10u64 {
        let t = Time::from_millis(step * 250);
        if t == Time::from_millis(750) {
            *slow_cost.lock().unwrap() = Dur::micros(150); // can only process ~6.7k batches/s
        }
        if t == Time::from_millis(1750) {
            *slow_cost.lock().unwrap() = Dur::ZERO;
        }
        sim.run_until(t);
        let cur = sim.metrics().counter(slow, metric::DELIVERED_BYTES);
        let slowdowns = sim.metrics().counter(slow, "rp.slowdown");
        println!(
            "  {:5.2} | {:12.0} | {:12} | {slowdowns:9}",
            t.as_secs_f64(),
            mbps(cur - prev, Dur::millis(250)),
            "-",
        );
        prev = cur;
    }
    println!("  shape: delivery dips while the learner is slow, coordinator throttles, then recovers (paper Fig 3.14).");
}

fn tab3_03() {
    println!("Table 3.3 — M-Ring Paxos CPU per role at peak (paper: proposer 37%, coord 88%, acceptor 24%, learner 21%)");
    let mut sim = Sim::new(SimConfig::default());
    let opts = MRingOptions {
        ring_size: 3,
        n_learners: 2,
        n_proposers: 2,
        proposer_rate_bps: 475_000_000,
        msg_bytes: 8192,
        ..MRingOptions::default()
    };
    let d = deploy_mring(&mut sim, &opts, |_| {});
    let w = Window::open(&mut sim, Dur::secs(1), Dur::secs(2), &[]);
    let nodes = [
        ("proposer", d.proposers[0]),
        ("coordinator", d.coordinator()),
        ("acceptor", d.ring[0]),
        ("learner", d.learners[0]),
    ];
    let before: Vec<Dur> = nodes.iter().map(|&(_, n)| sim.cpu_busy(n, 0)).collect();
    w.close(&mut sim);
    header(&["role", "CPU %", "memory (buffer)"]);
    for (i, &(role, n)) in nodes.iter().enumerate() {
        let pct = cpu_pct(before[i], sim.cpu_busy(n, 0), w.len());
        let mem = if role == "proposer" { "90 MB" } else { "160 MB circular buffer" };
        println!("  {role:<12} | {pct:5.0} | {mem}");
    }
}

fn tab3_04() {
    println!("Table 3.4 — U-Ring Paxos CPU per role at peak (paper: ~48% each, 80 MB)");
    let mut sim = Sim::new(SimConfig::default());
    let opts = URingOptions {
        ring_len: 5,
        n_acceptors: 3,
        proposer_positions: vec![0, 1, 2, 3, 4],
        proposer_rate_bps: 240_000_000,
        msg_bytes: 32 * 1024,
        ..URingOptions::default()
    };
    let d = deploy_uring(&mut sim, &opts, |_| {});
    let w = Window::open(&mut sim, Dur::secs(1), Dur::secs(2), &[]);
    let before: Vec<Dur> = d.ring.iter().map(|&n| sim.cpu_busy(n, 0)).collect();
    w.close(&mut sim);
    header(&["position", "CPU %", "memory (buffer)"]);
    for (i, &n) in d.ring.iter().enumerate() {
        let pct = cpu_pct(before[i], sim.cpu_busy(n, 0), w.len());
        println!("  {i:<8} | {pct:5.0} | 16 MB per proposer (80 MB)");
    }
}
