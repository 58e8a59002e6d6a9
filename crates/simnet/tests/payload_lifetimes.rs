//! A payload lives exactly as long as something in the engine can still
//! deliver it. Every path that discards a datagram or a segment — a
//! random drop, a full switch port or socket buffer, a downed node, a TCP
//! reset — must let the message go, so once a run drains, and again once
//! the `Sim` is dropped, no message may be alive.

use std::cell::Cell;
use std::rc::Rc;

use simnet::prelude::*;

/// A message that counts its live instances.
struct Counted(Rc<Cell<i64>>);

impl Counted {
    fn new(live: &Rc<Cell<i64>>) -> Counted {
        live.set(live.get() + 1);
        Counted(live.clone())
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.0.set(self.0.get() - 1);
    }
}

/// Receives, optionally burns CPU per message (a slow reader fills its
/// socket buffer), and keeps nothing.
struct Sink {
    cost: Dur,
}

impl Actor for Sink {
    fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
        assert!(env.payload.is::<Counted>());
        ctx.counter_add("app.recv", 1);
        ctx.charge_cpu(0, self.cost);
    }
}

/// Re-multicasts every unicast datagram it receives, sharing the handle.
struct Relay {
    group: GroupId,
}

impl Actor for Relay {
    fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
        ctx.counter_add("app.recv", 1);
        if env.transport == Transport::Udp {
            ctx.mcast_forward(self.group, env.payload.clone(), env.wire_bytes);
        }
    }
}

fn sink() -> Box<dyn Actor> {
    Box::new(Sink { cost: Dur::ZERO })
}

/// Runs `sim` to idle, checks that the scenario's discard path fired,
/// and that no message outlives the run or the simulator.
fn assert_all_dropped(mut sim: Sim, live: &Rc<Cell<i64>>, fired: impl Fn(&Metrics)) {
    assert!(live.get() > 0, "the scenario must have messages in flight");
    sim.run_to_idle();
    fired(sim.metrics());
    assert!(sim.metrics().sum("app.recv") > 0, "some messages must get through");
    assert_eq!(live.get(), 0, "payloads alive after the run drained");
    drop(sim);
    assert_eq!(live.get(), 0, "payloads alive after the Sim was dropped");
}

#[test]
fn lost_datagrams_drop_their_payloads() {
    let live = Rc::new(Cell::new(0));
    let mut sim = Sim::new(SimConfig::default());
    sim.set_random_loss(0.05);
    let src = sim.add_node(sink());
    let group = sim.add_group();
    let relay = sim.add_node(Box::new(Relay { group }));
    let dsts: Vec<NodeId> = (0..3).map(|_| sim.add_node(sink())).collect();
    for &d in &dsts {
        sim.subscribe(d, group);
    }
    sim.with_ctx(src, |ctx| {
        for _ in 0..200 {
            ctx.udp_send(relay, Counted::new(&live), 1024);
            ctx.mcast(group, Counted::new(&live), 4096);
            ctx.tcp_send(dsts[0], Counted::new(&live), 8192);
        }
    });
    assert_all_dropped(sim, &live, |m| assert!(m.sum("net.rand_drop") > 0, "no loss drawn"));
}

#[test]
fn full_switch_ports_and_socket_buffers_drop_their_payloads() {
    let live = Rc::new(Cell::new(0));
    let mut cfg = SimConfig::default();
    cfg.switch_port_buffer = 64 * 1024;
    let mut sim = Sim::new(cfg);
    let senders: Vec<NodeId> = (0..3).map(|_| sim.add_node(sink())).collect();
    let hot = sim.add_node(sink());
    let slow = sim.add_node(Box::new(Sink { cost: Dur::micros(500) }));
    sim.set_udp_socket_buffer(slow, 32 * 1024);
    let group = sim.add_group();
    sim.subscribe(hot, group);
    sim.subscribe(slow, group);
    for &s in &senders {
        sim.with_ctx(s, |ctx| {
            for _ in 0..100 {
                ctx.udp_send(hot, Counted::new(&live), 8192);
                ctx.mcast(group, Counted::new(&live), 8192);
            }
        });
    }
    assert_all_dropped(sim, &live, |m| {
        assert!(m.sum("net.switch_drop") > 0, "no switch-port overflow");
        assert!(m.sum("net.socket_drop") > 0, "no socket-buffer overflow");
    });
}

#[test]
fn a_node_taken_down_mid_transfer_drops_its_payloads() {
    let live = Rc::new(Cell::new(0));
    let mut cfg = SimConfig::default();
    cfg.tcp_window_bytes = 256 * 1024;
    let mut sim = Sim::new(cfg);
    let src = sim.add_node(sink());
    let dst = sim.add_node(sink());
    let group = sim.add_group();
    sim.subscribe(dst, group);
    sim.with_ctx(src, |ctx| {
        for _ in 0..200 {
            ctx.tcp_send(dst, Counted::new(&live), 32 * 1024);
            ctx.mcast(group, Counted::new(&live), 8192);
        }
    });
    // Segments are on the wire and queued behind the window when the
    // receiver goes down; the reset writes the queue off at the sender.
    sim.run_until(Time::from_millis(2));
    sim.set_node_up(dst, false);
    sim.with_ctx(src, |ctx| ctx.udp_send(dst, Counted::new(&live), 1024));
    assert_all_dropped(sim, &live, |m| {
        assert!(m.counter(src, "net.tcp_reset_bytes") > 0, "no TCP reset");
        assert!(m.counter(dst, "net.down_drop") > 0, "nothing reached the downed node");
    });
}
