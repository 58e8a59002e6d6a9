//! Criterion micro-benchmarks for the hot paths under every experiment:
//! B⁺-tree operations, Paxos role state machines, the deterministic
//! merge, and a short end-to-end M-Ring Paxos simulation.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::rc::Rc;

use abcast::MsgId;
use btree::{BPlusTree, TreeCommand, TreeService};
use multiring::{DeterministicMerge, MergeEntry};
use paxos::prelude::*;
use psmr::{Engine, EngineCosts, ExecModel, PCommand, PStored};
use ringpaxos::cluster::{deploy_mring, MRingOptions};
use simnet::prelude::*;

fn bench_btree(c: &mut Criterion) {
    let mut g = c.benchmark_group("btree");
    g.sample_size(20);
    g.bench_function("insert_10k", |b| {
        b.iter(|| {
            let mut t = BPlusTree::new();
            for k in 0..10_000u64 {
                t.insert(black_box(k * 7 % 10_000), k);
            }
            black_box(t.len())
        })
    });
    let mut tree = BPlusTree::new();
    for k in 0..100_000u64 {
        tree.insert(k, k);
    }
    g.bench_function("range_1000_of_100k", |b| {
        b.iter(|| black_box(tree.range(black_box(40_000), black_box(40_999)).len()))
    });
    g.bench_function("get_of_100k", |b| b.iter(|| black_box(tree.get(black_box(77_777)))));
    g.finish();
}

fn bench_service_undo(c: &mut Criterion) {
    c.bench_function("service/apply_rollback_100", |b| {
        b.iter(|| {
            let mut s = TreeService::new();
            for k in 0..100u64 {
                s.apply(TreeCommand::Insert { key: k, value: k });
            }
            s.rollback(100);
            black_box(s.tree().len())
        })
    });
}

fn bench_paxos_window(c: &mut Criterion) {
    // Steady-state coordinator pipeline over a sliding window: propose,
    // quorum of 2Bs, periodic GC — the dense per-instance window's hot
    // loop (previously one BTreeMap search per 2B).
    c.bench_function("paxos/window_pipeline_1k", |b| {
        let mut coord: Coordinator<u64> = Coordinator::new(0, 3);
        let PaxosMsg::Phase1a { round } = coord.start_phase1(Round::ZERO) else { unreachable!() };
        for a in 0..3 {
            coord.receive_1b(a, round, &[]);
        }
        b.iter(|| {
            let mut last = InstanceId(0);
            for v in 0..1_000u64 {
                let (inst, _) = coord.propose(black_box(v)).expect("ready");
                for a in 0..2 {
                    let _ = coord.receive_2b(a, inst, round);
                }
                last = inst;
                if v % 256 == 255 {
                    let _ = coord.gc_below(InstanceId(inst.0 - 128));
                }
            }
            black_box(last)
        })
    });
}

fn bench_paxos_roles(c: &mut Criterion) {
    c.bench_function("paxos/phase2_roundtrip", |b| {
        let mut coord: Coordinator<u64> = Coordinator::new(0, 3);
        let mut accs: Vec<Acceptor<u64>> = (0..3).map(|_| Acceptor::new()).collect();
        let PaxosMsg::Phase1a { round } = coord.start_phase1(Round::ZERO) else { unreachable!() };
        for (i, a) in accs.iter_mut().enumerate() {
            if let Some(PaxosMsg::Phase1b { round, votes }) = a.receive_1a(round) {
                coord.receive_1b(i as u32, round, &votes);
            }
        }
        b.iter(|| {
            let (inst, msg) = coord.propose(black_box(42)).expect("ready");
            let PaxosMsg::Phase2a { round, value, .. } = msg else { unreachable!() };
            for (i, a) in accs.iter_mut().enumerate() {
                if a.receive_2a(inst, round, value).is_some() {
                    let _ = coord.receive_2b(i as u32, inst, round);
                }
            }
            black_box(inst)
        })
    });
}

fn bench_merge(c: &mut Criterion) {
    c.bench_function("multiring/merge_4rings_1k", |b| {
        b.iter(|| {
            let mut m = DeterministicMerge::new(4, 1);
            for i in 0..1000u64 {
                let entry = MergeEntry { batch: ringpaxos::BatchData::empty(), weight: 1 };
                m.push((i % 4) as usize, entry);
            }
            let mut n = 0;
            while m.pop().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });
}

fn bench_psmr_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("psmr_engine");
    let mk = |i: u64, groups: Vec<u8>| {
        Rc::new(PStored {
            cmd: PCommand {
                writes: groups.iter().map(|&x| (x as u64, i)).collect(),
                groups,
                cost: Dur::micros(100),
            },
            client: NodeId(0),
            reply_bytes: 64,
        })
    };
    g.bench_function("psmr_10k_independent", |b| {
        b.iter(|| {
            let mut e = Engine::new(ExecModel::Psmr { workers: 8 }, EngineCosts::default());
            let mut last = Time::ZERO;
            for i in 0..10_000u64 {
                let grp = (i % 8) as u8;
                if let Some((.., s)) =
                    e.deliver(MsgId(i), &mk(i, vec![grp]), Some(grp), Time::ZERO).pop()
                {
                    last = s.done;
                }
            }
            black_box(last)
        })
    });
    g.bench_function("sdpe_10k_mixed", |b| {
        b.iter(|| {
            let mut e = Engine::new(ExecModel::Sdpe { workers: 8 }, EngineCosts::default());
            let mut last = Time::ZERO;
            for i in 0..10_000u64 {
                let groups = if i % 10 == 0 { vec![0u8, 1, 2, 3] } else { vec![(i % 8) as u8] };
                if let Some((.., s)) = e.deliver(MsgId(i), &mk(i, groups), None, Time::ZERO).pop() {
                    last = s.done;
                }
            }
            black_box(last)
        })
    });
    g.bench_function("psmr_barriers_2k_dependent", |b| {
        b.iter(|| {
            let mut e = Engine::new(ExecModel::Psmr { workers: 4 }, EngineCosts::default());
            let all = vec![0u8, 1, 2, 3];
            let mut last = Time::ZERO;
            for i in 0..2_000u64 {
                for g in 0..4u8 {
                    if let Some((.., s)) =
                        e.deliver(MsgId(i), &mk(i, all.clone()), Some(g), Time::ZERO).pop()
                    {
                        last = s.done;
                    }
                }
            }
            black_box(last)
        })
    });
    g.finish();
}

fn bench_mring_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim");
    g.sample_size(10);
    g.bench_function("mring_100ms_sim", |b| {
        b.iter(|| {
            let mut sim = Sim::new(SimConfig::default());
            let opts = MRingOptions {
                ring_size: 3,
                n_learners: 2,
                n_proposers: 2,
                proposer_rate_bps: 200_000_000,
                ..MRingOptions::default()
            };
            let d = deploy_mring(&mut sim, &opts, |_| {});
            sim.run_until(Time::from_millis(100));
            black_box(sim.metrics().counter(d.learners[0], "abcast.delivered_msgs"))
        })
    });
    g.finish();
}

fn bench_recovery(c: &mut Criterion) {
    use hpsmr_core::snapshot::Snapshot;
    use recovery::DecidedCache;
    use ringpaxos::{BatchData, DeliveredTracker, Value};

    let mut g = c.benchmark_group("recovery");
    g.sample_size(20);

    // Checkpoint write path: externalize a 10k-entry tree and restore a
    // fresh service from it (what every periodic checkpoint and every
    // state transfer pays per snapshot, beyond the modelled disk time).
    let mut svc = TreeService::new();
    for k in 0..10_000u64 {
        svc.apply(TreeCommand::Insert { key: k.wrapping_mul(0x9e3779b97f4a7c15), value: k });
    }
    svc.commit();
    g.bench_function("checkpoint_write_10k", |b| {
        b.iter(|| {
            let snap = svc.snapshot();
            let mut fresh = TreeService::new();
            Snapshot::restore(&mut fresh, &snap);
            black_box((snap.len(), fresh.tree().len()))
        })
    });

    // Catch-up replay path: serve 1k decided batches from the cache in
    // chunks and re-run the delivery filter over them (the recovering
    // learner's CPU-side work per CatchupRep).
    let mut cache: DecidedCache<ringpaxos::Batch> = DecidedCache::new();
    for i in 0..1000u64 {
        let vals: Vec<Value> = (0..4)
            .map(|j| Value {
                id: MsgId(i * 4 + j),
                proposer: NodeId((j % 3) as usize),
                seq: i * 4 + j,
                bytes: 8192,
                submitted: Time::ZERO,
                mask: u32::MAX,
            })
            .collect();
        cache.record(paxos::msg::InstanceId(i), BatchData::new(vals));
    }
    g.bench_function("catchup_replay_1k", |b| {
        b.iter(|| {
            let mut tracker = DeliveredTracker::new();
            let mut next = paxos::msg::InstanceId(0);
            let mut delivered = 0u64;
            loop {
                let chunk = cache.serve(next, 64);
                if chunk.is_empty() {
                    break;
                }
                for (i, batch) in &chunk {
                    for v in batch.iter() {
                        if tracker.fresh(v.proposer, v.seq) {
                            delivered += 1;
                        }
                    }
                    next = i.next();
                }
            }
            black_box(delivered)
        })
    });
    g.finish();
}

fn bench_simcore(c: &mut Criterion) {
    let mut g = c.benchmark_group("simcore");
    g.sample_size(20);

    // Raw per-datagram engine cost: send path, switch, receive path,
    // event queue — no protocol logic on top.
    g.bench_function("datagram_dispatch_5k", |b| {
        b.iter(|| {
            let mut sim = Sim::new(SimConfig::default());
            let a = sim.add_node(Box::new(Idle));
            let dst = sim.add_node(Box::new(Idle));
            sim.with_ctx(a, |ctx| {
                for i in 0..5_000u32 {
                    ctx.udp_send(dst, black_box(i), 1_000);
                }
            });
            sim.run_to_idle();
            black_box(sim.events_processed())
        })
    });

    // TCP under a small window: exercises the dense channel table on
    // every segment, ack, and pump step.
    g.bench_function("tcp_pump_small_window_1k", |b| {
        b.iter(|| {
            let mut cfg = SimConfig::default();
            cfg.tcp_window_bytes = 64 * 1024;
            let mut sim = Sim::new(cfg);
            let a = sim.add_node(Box::new(Idle));
            let dst = sim.add_node(Box::new(Idle));
            sim.with_ctx(a, |ctx| {
                for i in 0..1_000u32 {
                    ctx.tcp_send(dst, black_box(i), 32 * 1024);
                }
            });
            sim.run_to_idle();
            black_box(sim.events_processed())
        })
    });

    // Payload churn in isolation: one `Rc` allocation + two clones +
    // drops per iteration, the per-packet pattern of a 3-hop relay.
    g.bench_function("payload_roundtrip_10k", |b| {
        #[derive(Clone, Copy)]
        struct Msg {
            _instance: u64,
            _round: u64,
            _bytes: u32,
        }
        b.iter(|| {
            let mut live = 0u32;
            for i in 0..10_000u64 {
                let p = Payload::new(Msg { _instance: i, _round: 1, _bytes: 8192 });
                let q = p.clone();
                let r = q.clone();
                live += r.is::<Msg>() as u32;
            }
            black_box(live)
        })
    });

    // Event-queue churn: 10 000 timers pushed up front and popped in
    // time order, dense near-future ones (0–40 ms, 4 µs apart) with
    // every 100th a far-future one (0.1–1 s).
    g.bench_function("event_queue_10k", |b| {
        struct Fanout;
        impl Actor for Fanout {
            fn on_start(&mut self, ctx: &mut Ctx) {
                for i in 0..10_000u64 {
                    // 0..40 ms of near timers plus every 100th at 0.1-1 s.
                    let delay = if i % 100 == 0 {
                        Dur::millis(100 + i % 900)
                    } else {
                        Dur::micros(4 * (i % 10_000))
                    };
                    ctx.set_timer(delay, TimerToken(i));
                }
            }
            fn on_message(&mut self, _env: &Envelope, _ctx: &mut Ctx) {}
            fn on_timer(&mut self, _token: TimerToken, _ctx: &mut Ctx) {}
        }
        b.iter(|| {
            let mut sim = Sim::new(SimConfig::default());
            sim.add_node(Box::new(Fanout));
            sim.run_to_idle();
            black_box(sim.events_processed())
        })
    });

    // Counter matrix and histogram recorder in isolation.
    g.bench_function("metrics_record_10k", |b| {
        b.iter(|| {
            let mut m = Metrics::new();
            for i in 0..10_000u64 {
                let node = NodeId((i % 8) as usize);
                m.add_id(node, simnet::stats::mid::NET_SENT_BYTES, i);
                m.add_id(node, simnet::stats::mid::NET_SENT_PKTS, 1);
                m.record_latency("bench.lat", Dur::nanos(i * 131 % 10_000_000));
            }
            black_box((m.sum_id(simnet::stats::mid::NET_SENT_PKTS), m.latency("bench.lat").p99))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_btree,
    bench_service_undo,
    bench_paxos_window,
    bench_paxos_roles,
    bench_merge,
    bench_psmr_engine,
    bench_mring_sim,
    bench_recovery,
    bench_simcore
);
criterion_main!(benches);
