//! Layer drills: the harness calls each layer's public functions
//! directly — the shapes `crates/bench/benches/micro.rs` uses — and
//! times them on the host clock. A drill's unit cost times the number
//! of such calls a workload made, over that workload's measured wall,
//! is the layer's share of it (`layers::share_table`).

use std::hint::black_box;
use std::time::Instant;

use abcast::MsgId;
use btree::{Partitioning, TreeCommand, TreeService};
use hpsmr_core::deploy::POPULATE_COUNT;
use hpsmr_core::snapshot::Snapshot;
use paxos::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use recovery::DecidedCache;
use ringpaxos::{BatchData, DeliveredTracker, Value};
use simnet::prelude::*;
use simnet::stats::mid;
use workload::{KeyedWorkload, WorkloadKind, ZipfSampler};

use crate::rules::median;
use crate::spans::Spans;

/// Each drill repeats its batch at least this often and for at least
/// this long, and reports the median batch.
const MIN_BATCHES: usize = 5;
const MIN_SECONDS: f64 = 0.03;

/// Median host nanoseconds per call of a batch of `calls` calls.
fn ns_per_call(calls: u64, mut batch: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let t0 = Instant::now();
    while samples.len() < MIN_BATCHES || t0.elapsed().as_secs_f64() < MIN_SECONDS {
        let t = Instant::now();
        batch();
        samples.push(t.elapsed().as_secs_f64() * 1e9 / calls as f64);
    }
    median(&samples)
}

struct Quiet;
impl Actor for Quiet {
    fn on_message(&mut self, _env: &Envelope, _ctx: &mut Ctx) {}
}

/// Sets `n` timers at start and ignores them.
struct Fanout(u64);
impl Actor for Fanout {
    fn on_start(&mut self, ctx: &mut Ctx) {
        for i in 0..self.0 {
            ctx.set_timer(Dur::micros(4 * i), TimerToken(i));
        }
    }
    fn on_message(&mut self, _env: &Envelope, _ctx: &mut Ctx) {}
    fn on_timer(&mut self, _token: TimerToken, _ctx: &mut Ctx) {}
}

/// Far enough ahead that every drill sim has gone idle.
const IDLE: Time = Time(60_000_000_000);

fn value(i: u64, bytes: u32) -> Value {
    Value {
        id: MsgId(i),
        proposer: NodeId((i % 3) as usize),
        seq: i / 3,
        bytes,
        submitted: Time::ZERO,
        mask: u32::MAX,
    }
}

/// What the drills need to know about the workload they are sized for.
#[derive(Clone, Copy, Debug)]
pub struct DrillShape {
    /// Datagram size on the hot path, bytes.
    pub msg_bytes: u32,
    /// Values per consensus instance in the workload (≥ 1).
    pub values_per_instance: u64,
    /// Seed for the command generators.
    pub seed: u64,
}

/// Unit costs, host ns per call unless the name says otherwise.
#[derive(Clone, Copy, Debug, Default)]
pub struct Drills {
    /// One timer event through the engine.
    pub timer_ns: f64,
    /// One unicast datagram, send to delivery.
    pub udp_ns: f64,
    /// One TCP message, send to delivery, ack included.
    pub tcp_seg_ns: f64,
    /// One further reception of a multicast datagram.
    pub mcast_rx_ns: f64,
    /// Payload allocate + two clones + drops.
    pub payload_ns: f64,
    /// Two counter adds and one latency record.
    pub stats_record_ns: f64,
    /// One timer-wheel entry scheduled and fired.
    pub wheel_ns: f64,
    /// One consensus instance: propose, three 2A receipts, 2B quorum.
    pub paxos_instance_ns: f64,
    /// One `DeliveredTracker::fresh`.
    pub dedup_ns: f64,
    /// One `BatchData::new` of the workload's batch size.
    pub batch_pack_ns: f64,
    /// Snapshot + restore of a 10 k-entry tree, µs.
    pub checkpoint_us: f64,
    /// One instance served from the decided cache and de-duplicated.
    pub catchup_replay_ns: f64,
    /// One insert-or-delete applied to a populated tree.
    pub btree_update_ns: f64,
    /// One 1000-key range scan applied to a populated tree.
    pub btree_range1000_ns: f64,
    /// One point lookup in a populated tree.
    pub btree_get_ns: f64,
    /// One `ZipfSampler::sample`.
    pub zipf_ns: f64,
    /// One `KeyedWorkload::next_command`.
    pub command_ns: f64,
}

/// Runs every drill, one host span each.
pub fn run_all(shape: DrillShape, spans: &mut Spans) -> Drills {
    let mut d = Drills::default();
    let bytes = shape.msg_bytes;
    let mut drill = |name: &str, f: &mut dyn FnMut() -> f64| -> f64 {
        spans.scope(format!("drill:{name}"), |_| f())
    };

    d.timer_ns = drill("simnet.timer", &mut || {
        let n = 10_000;
        ns_per_call(n, || {
            let mut sim = Sim::new(SimConfig::default());
            sim.add_node(Box::new(Fanout(n)));
            sim.run_until(IDLE);
            black_box(sim.events_processed());
        })
    });
    d.udp_ns = drill("simnet.udp", &mut || {
        let n = 2_000;
        ns_per_call(n, || {
            let mut sim = Sim::new(SimConfig::default());
            let a = sim.add_node(Box::new(Quiet));
            let b = sim.add_node(Box::new(Quiet));
            sim.with_ctx(a, |ctx| {
                for i in 0..n {
                    ctx.udp_send(b, black_box(i), bytes);
                }
            });
            sim.run_until(IDLE);
            black_box(sim.events_processed());
        })
    });
    d.mcast_rx_ns = drill("simnet.mcast_rx", &mut || {
        // A multicast to `fanout` receivers costs one send plus
        // `fanout` receptions; against the unicast drill that isolates
        // the reception.
        let (n, fanout) = (2_000u64, 4u64);
        let per_mcast = ns_per_call(n, || {
            let mut sim = Sim::new(SimConfig::default());
            let a = sim.add_node(Box::new(Quiet));
            let g = sim.add_group();
            for _ in 0..fanout {
                let r = sim.add_node(Box::new(Quiet));
                sim.subscribe(r, g);
            }
            sim.with_ctx(a, |ctx| {
                for i in 0..n {
                    ctx.mcast(g, black_box(i), bytes);
                }
            });
            sim.run_until(IDLE);
            black_box(sim.events_processed());
        });
        ((per_mcast - d.udp_ns) / (fanout - 1) as f64).max(0.0)
    });
    d.tcp_seg_ns = drill("simnet.tcp_seg", &mut || {
        let n = 1_000;
        ns_per_call(n, || {
            let mut sim = Sim::new(SimConfig::default());
            let a = sim.add_node(Box::new(Quiet));
            let b = sim.add_node(Box::new(Quiet));
            sim.with_ctx(a, |ctx| {
                for i in 0..n {
                    ctx.tcp_send(b, black_box(i), bytes);
                }
            });
            sim.run_until(IDLE);
            black_box(sim.events_processed());
        })
    });
    d.payload_ns = drill("simnet.payload", &mut || {
        #[derive(Clone, Copy)]
        struct Msg {
            _instance: u64,
            _round: u64,
            _bytes: u32,
        }
        let n = 10_000;
        ns_per_call(n, || {
            let mut live = 0u32;
            for i in 0..n {
                let p = Payload::new(Msg { _instance: i, _round: 1, _bytes: 8192 });
                let q = p.clone();
                let r = q.clone();
                live += r.is::<Msg>() as u32;
            }
            black_box(live);
        })
    });
    d.stats_record_ns = drill("simnet.stats_record", &mut || {
        let n = 10_000;
        ns_per_call(n, || {
            let mut m = Metrics::new();
            for i in 0..n {
                let node = NodeId((i % 8) as usize);
                m.add_id(node, mid::NET_SENT_BYTES, i);
                m.add_id(node, mid::NET_SENT_PKTS, 1);
                m.record_latency("drill.lat", Dur::nanos(i * 131 % 10_000_000));
            }
            black_box(m.sum_id(mid::NET_SENT_PKTS));
        })
    });
    d.wheel_ns = drill("simnet.wheel", &mut || {
        // The session table's shape: 100 ms ticks, 256 slots, deadlines
        // 200 ms out, drained tick by tick.
        let n = 10_000u64;
        ns_per_call(n, || {
            let tick = Dur::millis(100);
            let mut wheel = TimerWheel::new(tick, 256);
            let mut fired = 0u64;
            let mut now = Time::ZERO;
            for i in 0..n {
                wheel.schedule(now + Dur::millis(200), i);
                if i % 100 == 99 {
                    now += tick;
                    wheel.advance(now, |_| fired += 1);
                }
            }
            wheel.advance(now + Dur::secs(1), |_| fired += 1);
            black_box(fired);
        })
    });
    d.paxos_instance_ns = drill("paxos.instance", &mut || {
        let mut coord: Coordinator<u64> = Coordinator::new(0, 3);
        let mut accs: Vec<Acceptor<u64>> = (0..3).map(|_| Acceptor::new()).collect();
        let PaxosMsg::Phase1a { round } = coord.start_phase1(Round::ZERO) else {
            unreachable!("start_phase1 returns a 1A")
        };
        for (i, a) in accs.iter_mut().enumerate() {
            if let Some(PaxosMsg::Phase1b { round, votes }) = a.receive_1a(round) {
                coord.receive_1b(i as u32, round, &votes);
            }
        }
        let n = 2_000;
        ns_per_call(n, || {
            let mut last = InstanceId(0);
            for v in 0..n {
                let (inst, msg) = coord.propose(black_box(v)).expect("phase 1 done");
                let PaxosMsg::Phase2a { round, value, .. } = msg else {
                    unreachable!("propose returns a 2A")
                };
                for (i, a) in accs.iter_mut().enumerate() {
                    if a.receive_2a(inst, round, value).is_some() {
                        let _ = coord.receive_2b(i as u32, inst, round);
                    }
                }
                last = inst;
            }
            // Keep the windows bounded like the rings' periodic GC does.
            let _ = coord.gc_below(InstanceId(last.0.saturating_sub(128)));
            for a in &mut accs {
                a.gc_below(InstanceId(last.0.saturating_sub(128)));
            }
            black_box(last);
        })
    });
    d.dedup_ns = drill("ringpaxos.dedup", &mut || {
        let n = 10_000u64;
        ns_per_call(n, || {
            let mut t = DeliveredTracker::new();
            let mut fresh = 0u64;
            for i in 0..n {
                fresh += t.fresh(NodeId((i % 8) as usize), i / 8) as u64;
            }
            black_box(fresh);
        })
    });
    d.batch_pack_ns = drill("ringpaxos.batch_pack", &mut || {
        let k = shape.values_per_instance.max(1);
        let n = 2_000u64;
        ns_per_call(n, || {
            for i in 0..n {
                let vals: Vec<Value> = (0..k).map(|j| value(i * k + j, 256)).collect();
                black_box(BatchData::new(vals));
            }
        })
    });
    d.checkpoint_us = drill("recovery.checkpoint", &mut || {
        let mut svc = TreeService::new();
        for k in 0..10_000u64 {
            svc.apply(TreeCommand::Insert { key: k.wrapping_mul(0x9e37_79b9_7f4a_7c15), value: k });
        }
        svc.commit();
        ns_per_call(1, || {
            let snap = svc.snapshot();
            let mut fresh = TreeService::new();
            Snapshot::restore(&mut fresh, &snap);
            black_box((snap.len(), fresh.tree().len()));
        }) / 1e3
    });
    d.catchup_replay_ns = drill("recovery.catchup_replay", &mut || {
        let n = 1_000u64;
        let mut cache: DecidedCache<ringpaxos::Batch> = DecidedCache::new();
        for i in 0..n {
            let vals: Vec<Value> = (0..4).map(|j| value(i * 4 + j, bytes)).collect();
            cache.record(InstanceId(i), BatchData::new(vals));
        }
        ns_per_call(n, || {
            let mut tracker = DeliveredTracker::new();
            let mut next = InstanceId(0);
            let mut delivered = 0u64;
            loop {
                let chunk = cache.serve(next, 64);
                if chunk.is_empty() {
                    break;
                }
                for (i, batch) in &chunk {
                    for v in batch.iter() {
                        delivered += tracker.fresh(v.proposer, v.seq) as u64;
                    }
                    next = i.next();
                }
            }
            black_box(delivered);
        })
    });

    // The tree drills replay commands drawn from the workload's own
    // generator against one partition's populated tree.
    let span = Partitioning::new(4).span;
    let tree_drill = |kind: WorkloadKind| {
        let mut svc = TreeService::populated(0, span, POPULATE_COUNT);
        let mut gen = KeyedWorkload::zipfian(kind, span, 0.99);
        let mut rng = SmallRng::seed_from_u64(shape.seed);
        let cmds: Vec<TreeCommand> = (0..2_000).flat_map(|_| gen.next_command(&mut rng)).collect();
        ns_per_call(cmds.len() as u64, || {
            for &c in &cmds {
                black_box(svc.apply(c));
            }
            svc.commit();
        })
    };
    d.btree_update_ns = drill("btree.update", &mut || tree_drill(WorkloadKind::InsDelSingle));
    d.btree_range1000_ns = drill("btree.range1000", &mut || tree_drill(WorkloadKind::Queries));
    d.btree_get_ns = drill("btree.get", &mut || {
        let svc = TreeService::populated(0, span, POPULATE_COUNT);
        let zipf = ZipfSampler::new(span, 0.99);
        let mut rng = SmallRng::seed_from_u64(shape.seed);
        let keys: Vec<u64> = (0..10_000).map(|_| zipf.sample(&mut rng)).collect();
        ns_per_call(keys.len() as u64, || {
            for &k in &keys {
                black_box(svc.tree().get(k));
            }
        })
    });
    d.zipf_ns = drill("workload.zipf", &mut || {
        let zipf = ZipfSampler::new(span * 4, 0.99);
        let mut rng = SmallRng::seed_from_u64(shape.seed);
        let n = 10_000;
        ns_per_call(n, || {
            for _ in 0..n {
                black_box(zipf.sample(&mut rng));
            }
        })
    });
    d.command_ns = drill("workload.command", &mut || {
        let mut gen = KeyedWorkload::zipfian(WorkloadKind::InsDelSingle, span * 4, 0.99);
        let mut rng = SmallRng::seed_from_u64(shape.seed);
        let n = 10_000;
        ns_per_call(n, || {
            for _ in 0..n {
                black_box(gen.next_command(&mut rng));
            }
        })
    });
    d
}
