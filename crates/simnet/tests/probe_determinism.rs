//! Probe-layer determinism gates (ISSUE 9):
//!
//! * same seed → byte-identical probe stream;
//! * enabling probes does not perturb the simulation (events, time,
//!   counter totals identical to a probe-free run).

use simnet::prelude::*;

/// Ring workload: every timer tick, one UDP datagram to the next node
/// and one TCP segment to the node after that, then re-arm — timers,
/// datagrams, TCP acks, and disk writes.
struct RingSender {
    next: NodeId,
    tcp_to: NodeId,
    period: Dur,
    ticks: u32,
}

impl Actor for RingSender {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(self.period, TimerToken(1));
    }
    fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
        if env.wire_bytes > 900 {
            ctx.counter_add("app.tcp_in", 1);
        } else {
            ctx.counter_add("app.udp_in", 1);
            // A protocol-category probe from actor code, with an
            // explicit earlier timestamp sprinkled in so the stream
            // exercises the (time, record order) sort.
            let at = Time::ZERO + ctx.now().saturating_since(Time::ZERO + Dur::micros(5));
            ctx.probe_at(600, env.wire_bytes as u64, at);
        }
    }
    fn on_timer(&mut self, _token: TimerToken, ctx: &mut Ctx) {
        ctx.udp_send(self.next, self.ticks, 700);
        ctx.tcp_send(self.tcp_to, self.ticks, 1200);
        ctx.disk_write(512, TimerToken(2));
        self.ticks += 1;
        if self.ticks < 40 {
            ctx.set_timer(self.period, TimerToken(1));
        }
    }
}

fn observe(sim: &Sim) -> (Time, u64, Vec<(usize, String, u64)>) {
    let mut counters = Vec::new();
    sim.metrics().for_each_counter(|node, name, v| {
        counters.push((node.0, name.to_string(), v));
    });
    (sim.now(), sim.events_processed(), counters)
}

fn run(probes: Option<ProbeConfig>) -> Sim {
    let mut sim = Sim::new(SimConfig::default());
    if let Some(cfg) = probes {
        sim.set_probes(cfg);
    }
    let n = 8;
    for i in 0..n {
        let period = Dur::micros(150 + 17 * i as u64);
        sim.add_node(Box::new(RingSender {
            next: NodeId((i + 1) % n),
            tcp_to: NodeId((i + 2) % n),
            period,
            ticks: 0,
        }));
    }
    sim.run_until(Time::from_millis(30));
    sim
}

#[test]
fn same_seed_gives_byte_identical_probe_stream() {
    let one = probe::encode(&run(Some(ProbeConfig::all())).probe_events());
    let two = probe::encode(&run(Some(ProbeConfig::all())).probe_events());
    assert!(!one.is_empty(), "workload must record probe events");
    assert_eq!(one, two);
}

#[test]
fn probe_stream_covers_every_category() {
    let sim = run(Some(ProbeConfig::all()));
    let events = sim.probe_events();
    let has = |code: u16| events.iter().any(|e| e.code == code);
    assert!(has(probe::code::NET_SEND));
    assert!(has(probe::code::NET_RECV));
    assert!(has(probe::code::HOST_TIMER));
    assert!(has(probe::code::HOST_DISK));
    assert!(has(600), "actor-defined protocol probe");
    // The stream is time-sorted even with probe_at back-stamps.
    for w in events.windows(2) {
        assert!(w[0].time <= w[1].time);
    }
    assert_eq!(sim.probe_dropped(), 0);
}

#[test]
fn enabling_probes_does_not_perturb_the_run() {
    // Bit-identical (now, events, counters) with probes off, on, and
    // on-with-a-tiny-ring (drop path exercised).
    let off = observe(&run(None));
    let on = observe(&run(Some(ProbeConfig::all())));
    let tiny = run(Some(ProbeConfig { categories: probe::category::ALL, capacity: 8 }));
    assert_eq!(off, on);
    assert_eq!(off, observe(&tiny));
    assert!(tiny.probe_dropped() > 0, "a tiny ring must wrap");
    assert!(tiny.probe_events().len() <= 8);
}
