//! Dispatch order depends on `(time, seq)` and on nothing else: the same
//! seed run twice must agree on every observable, down to the bytes of
//! the probe stream. Anything that lets host state leak into the order —
//! a `HashMap` iteration, an address, a wall clock — shows up here.

use simnet::prelude::*;

#[derive(Debug)]
struct Note(u32);

/// Echoes a third of the datagrams it receives, relays some over TCP,
/// logs every fifth delivery to disk and keeps a timer chain going, so
/// every event kind the engine has is in flight at once.
struct Mixer {
    peers: Vec<NodeId>,
    group: GroupId,
}

impl Actor for Mixer {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(Dur::micros(100), TimerToken(0));
    }

    fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
        let n = env.payload.downcast_ref::<Note>().expect("Note").0;
        ctx.probe(700, n as u64);
        if env.transport != Transport::Tcp && n.is_multiple_of(3) {
            ctx.udp_send(env.src, Note(n + 1), 256);
        }
        if env.transport == Transport::Udp && n.is_multiple_of(4) {
            let to = self.peers[(ctx.id().0 + 2) % self.peers.len()];
            ctx.tcp_send(to, Note(n), 8 * 1024);
        }
        if n.is_multiple_of(5) {
            ctx.disk_write(4096, TimerToken(1000));
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
        if token.0 >= 1000 {
            ctx.counter_add("app.disk_done", 1);
            return;
        }
        let t = token.0 as u32;
        let next = self.peers[(ctx.id().0 + 1) % self.peers.len()];
        for i in 0..6 {
            ctx.udp_send(next, Note(t * 6 + i), 1000 + i * 7);
        }
        ctx.mcast(self.group, Note(t), 4096);
        if token.0 < 60 {
            ctx.set_timer(Dur::micros(100 + 13 * ctx.id().0 as u64), TimerToken(token.0 + 1));
        }
    }
}

/// FNV-1a over every non-zero `(node, name, value)` counter triple.
fn counter_checksum(sim: &Sim) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    sim.metrics().for_each_counter(|node, name, v| {
        let bytes =
            (node.0 as u64).to_le_bytes().into_iter().chain(name.bytes()).chain(v.to_le_bytes());
        for b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
    });
    h
}

fn run() -> (u64, u64, Vec<u8>) {
    let mut cfg = SimConfig::default();
    cfg.seed = 0xD15C;
    cfg.random_loss = 1e-3;
    let mut sim = Sim::new(cfg);
    sim.set_probes(ProbeConfig::all());
    let group = sim.add_group();
    let peers: Vec<NodeId> = (0..5).map(NodeId).collect();
    for _ in &peers {
        let n = sim.add_node(Box::new(Mixer { peers: peers.clone(), group }));
        sim.subscribe(n, group);
    }
    sim.run_until(Time::from_millis(2));
    sim.set_node_up(peers[2], false);
    sim.run_until(Time::from_millis(4));
    sim.restart_node(peers[2]);
    sim.run_to_idle();
    assert!(sim.metrics().sum("net.rand_drop") > 0, "the loss path must run");
    assert!(sim.metrics().sum("net.tcp_reset_bytes") > 0, "the crash must catch TCP in flight");
    assert!(sim.metrics().sum("app.disk_done") > 0, "disk completions must run");
    assert_eq!(sim.probe_dropped(), 0);
    (sim.events_processed(), counter_checksum(&sim), probe::encode(&sim.probe_events()))
}

#[test]
fn same_seed_same_dispatch_order() {
    let (events, checksum, probes) = run();
    assert!(events > 10_000, "only {events} events");
    assert_eq!((events, checksum, probes), run());
}
