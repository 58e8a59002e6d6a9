//! Fault-injection schedules: [`FaultPlan`], a timed list of
//! [`FaultAction`]s driven over a running [`Sim`].
//!
//! Beyond crash/recover/restart/respawn of single nodes it injects
//!
//! * **link partitions** — symmetric cuts between node sets that drop
//!   every transport, TCP included (`net.part_drop`); healing resets
//!   the TCP channels across the former cut so wedged windows reopen;
//!   a cut of one instant is a targeted one-shot drop
//!   ([`FaultPlan::drop_at`]),
//! * **loss / reorder / duplication bursts** — timed changes to the
//!   network's `random_loss` / `random_reorder` / `random_duplication`
//!   knobs (counters `net.rand_drop`, `net.reordered`,
//!   `net.duplicated`),
//! * **stragglers** — per-node CPU or disk slowdown factors
//!   ([`Sim::set_cpu_slowdown`] / [`Sim::set_disk_slowdown`]),
//! * **repeated crash/respawn cycles**: the respawn closure installs a
//!   fresh actor over the node's stable store.
//!
//! Every action is applied from the control plane between events
//! (`sim.run_until(at)` first), so schedules compose with the engine's
//! determinism: the same plan over the same seed yields the same
//! trace. Tests, proptests, and the `bench` failover figures all drive
//! failures through this one layer.

use crate::ids::NodeId;
use crate::sim::Sim;
use crate::time::Time;

/// One timed fault-injection action.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultAction {
    /// `set_node_up(node, false)`: the node drops all traffic.
    Crash(NodeId),
    /// `set_node_up(node, true)`: back up, actor state preserved,
    /// timers it missed while down are gone.
    Recover(NodeId),
    /// `restart_node(node)`: back up and the existing actor's
    /// `on_start` re-runs (SIGSTOP/SIGCONT semantics — actors must
    /// tolerate the resulting duplicate timer chains).
    Restart(NodeId),
    /// Bring the node up and hand it to the respawn closure, which
    /// installs a fresh actor over the node's stable store
    /// (process-restart-with-recovery semantics).
    Respawn(NodeId),
    /// Cut every link between a node of the first set and a node of
    /// the second (symmetric; drops all transports).
    CutLinks(Vec<NodeId>, Vec<NodeId>),
    /// Heal the cuts between the two sets (TCP channels across the
    /// former cut are reset so their windows reopen).
    HealLinks(Vec<NodeId>, Vec<NodeId>),
    /// Set the datagram loss probability.
    SetLoss(f64),
    /// Set the datagram reorder probability.
    SetReorder(f64),
    /// Set the datagram duplication probability.
    SetDuplication(f64),
    /// Multiply every CPU cost on the node by the factor (1.0 heals).
    SlowCpu(NodeId, f64),
    /// Multiply every disk write time on the node by the factor
    /// (1.0 heals).
    SlowDisk(NodeId, f64),
}

/// A timed fault schedule driven over a simulation (module docs).
#[derive(Default)]
pub struct FaultPlan {
    events: Vec<(Time, FaultAction)>,
}

impl FaultPlan {
    /// Creates an empty plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds an action at `at` (builder style). Actions need not be
    /// inserted in time order; `run` sorts stably, so same-instant
    /// actions apply in insertion order.
    pub fn at(mut self, at: Time, action: FaultAction) -> FaultPlan {
        self.events.push((at, action));
        self
    }

    /// A crash at `down_at` followed by a respawn (fresh actor over the
    /// stable store) at `up_at`.
    pub fn crash_cycle(self, node: NodeId, down_at: Time, up_at: Time) -> FaultPlan {
        self.at(down_at, FaultAction::Crash(node)).at(up_at, FaultAction::Respawn(node))
    }

    /// A loss burst: probability `p` from `from`, back to zero at
    /// `until`.
    pub fn loss_burst(self, from: Time, until: Time, p: f64) -> FaultPlan {
        self.at(from, FaultAction::SetLoss(p)).at(until, FaultAction::SetLoss(0.0))
    }

    /// A reorder burst over `[from, until)`.
    pub fn reorder_burst(self, from: Time, until: Time, p: f64) -> FaultPlan {
        self.at(from, FaultAction::SetReorder(p)).at(until, FaultAction::SetReorder(0.0))
    }

    /// A duplication burst over `[from, until)`.
    pub fn duplication_burst(self, from: Time, until: Time, p: f64) -> FaultPlan {
        self.at(from, FaultAction::SetDuplication(p)).at(until, FaultAction::SetDuplication(0.0))
    }

    /// A link partition between node sets `a` and `b` over
    /// `[from, until)`, healed (with TCP resets) at `until`.
    pub fn partition_burst(self, from: Time, until: Time, a: &[NodeId], b: &[NodeId]) -> FaultPlan {
        self.at(from, FaultAction::CutLinks(a.to_vec(), b.to_vec()))
            .at(until, FaultAction::HealLinks(a.to_vec(), b.to_vec()))
    }

    /// A one-shot targeted drop: the link between `a` and `b` is cut for
    /// the single instant `at`, so exactly the datagrams either node
    /// sends the other *at* `at` are lost (a send is checked against the
    /// cut table at the instant its handler runs). Take the instant from
    /// a fault-free run of the same seed — a probe or counter timestamp
    /// of the send to lose; the two runs are identical up to the drop.
    pub fn drop_at(self, at: Time, a: NodeId, b: NodeId) -> FaultPlan {
        self.at(Time(at.0.saturating_sub(1)), FaultAction::CutLinks(vec![a], vec![b]))
            .at(at, FaultAction::HealLinks(vec![a], vec![b]))
    }

    /// A CPU straggler: `node` runs `factor`× slower over
    /// `[from, until)`.
    pub fn straggler(self, node: NodeId, from: Time, until: Time, factor: f64) -> FaultPlan {
        self.at(from, FaultAction::SlowCpu(node, factor)).at(until, FaultAction::SlowCpu(node, 1.0))
    }

    /// A disk straggler: `node`'s writes take `factor`× longer over
    /// `[from, until)`.
    pub fn disk_straggler(self, node: NodeId, from: Time, until: Time, factor: f64) -> FaultPlan {
        self.at(from, FaultAction::SlowDisk(node, factor))
            .at(until, FaultAction::SlowDisk(node, 1.0))
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[(Time, FaultAction)] {
        &self.events
    }

    /// Runs `sim` through every scheduled action (in time order, stable
    /// for ties) and on to `until`. `respawn` is invoked for
    /// [`FaultAction::Respawn`] events after the node is marked up; it
    /// must install the fresh actor (typically `sim.replace_actor` with
    /// a recovery-enabled process sharing the node's stable store).
    pub fn run(mut self, sim: &mut Sim, until: Time, mut respawn: impl FnMut(&mut Sim, NodeId)) {
        self.step(sim, until, &mut respawn);
    }

    /// Applies (and consumes) every action scheduled at or before `t`,
    /// running the simulation to each action's instant and then on to
    /// `t`; later actions stay queued. Call once per trace bucket to
    /// interleave a fault schedule with measurement — the `bench`
    /// failover figures sample delivered bytes between steps.
    pub fn step(&mut self, sim: &mut Sim, t: Time, respawn: &mut impl FnMut(&mut Sim, NodeId)) {
        self.events.sort_by_key(|&(at, _)| at);
        let rest = self.events.split_off(self.events.partition_point(|&(at, _)| at <= t));
        for (at, action) in std::mem::replace(&mut self.events, rest) {
            sim.run_until(at);
            apply(sim, action, respawn);
        }
        sim.run_until(t);
    }
}

/// Applies one action to the simulation at the current instant.
fn apply(sim: &mut Sim, action: FaultAction, respawn: &mut impl FnMut(&mut Sim, NodeId)) {
    match action {
        FaultAction::Crash(n) => sim.set_node_up(n, false),
        FaultAction::Recover(n) => sim.set_node_up(n, true),
        FaultAction::Restart(n) => sim.restart_node(n),
        FaultAction::Respawn(n) => {
            sim.set_node_up(n, true);
            respawn(sim, n);
        }
        FaultAction::CutLinks(a, b) => set_cut(sim, &a, &b, true),
        FaultAction::HealLinks(a, b) => set_cut(sim, &a, &b, false),
        FaultAction::SetLoss(p) => sim.set_random_loss(p),
        FaultAction::SetReorder(p) => sim.set_random_reorder(p),
        FaultAction::SetDuplication(p) => sim.set_random_duplication(p),
        FaultAction::SlowCpu(n, f) => sim.set_cpu_slowdown(n, f),
        FaultAction::SlowDisk(n, f) => sim.set_disk_slowdown(n, f),
    }
}

fn set_cut(sim: &mut Sim, a: &[NodeId], b: &[NodeId], cut: bool) {
    for &x in a {
        for &y in b {
            if x != y {
                sim.set_link_cut(x, y, cut);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::prelude::*;
    use std::sync::Arc;
    use std::sync::Mutex;

    struct Recorder(Arc<Mutex<Vec<u32>>>);
    impl Actor for Recorder {
        fn on_message(&mut self, env: &Envelope, _ctx: &mut Ctx) {
            self.0.lock().unwrap().push(*env.payload.downcast_ref::<u32>().expect("u32"));
        }
    }

    /// A periodic UDP sender, so traffic exists across the plan's
    /// whole schedule without driver intervention.
    struct Ticker {
        dst: NodeId,
        n: u32,
    }
    impl Actor for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer(Dur::micros(500), TimerToken(0));
        }
        fn on_message(&mut self, _env: &Envelope, _ctx: &mut Ctx) {}
        fn on_timer(&mut self, _token: TimerToken, ctx: &mut Ctx) {
            ctx.udp_send(self.dst, self.n, 256);
            self.n += 1;
            ctx.set_timer(Dur::micros(500), TimerToken(0));
        }
    }

    #[test]
    fn plan_applies_actions_in_time_order() {
        struct Counter(Arc<Mutex<u32>>);
        impl Actor for Counter {
            fn on_start(&mut self, _ctx: &mut Ctx) {
                *self.0.lock().unwrap() += 1;
            }
            fn on_message(&mut self, _env: &Envelope, _ctx: &mut Ctx) {}
        }
        let starts = Arc::new(Mutex::new(0));
        let mut sim = Sim::new(SimConfig::default());
        let n = sim.add_node(Box::new(Counter(starts.clone())));
        let mut respawned = false;
        // Inserted out of order: the crash at 10 ms applies first.
        FaultPlan::new()
            .at(Time::from_millis(30), FaultAction::Respawn(n))
            .at(Time::from_millis(10), FaultAction::Crash(n))
            .run(&mut sim, Time::from_millis(50), |sim, node| {
                respawned = true;
                sim.replace_actor(node, Box::new(Counter(starts.clone())));
            });
        assert!(respawned);
        assert_eq!(*starts.lock().unwrap(), 2, "original start + respawned start");
        assert_eq!(sim.now(), Time::from_millis(50));
        assert!(sim.is_up(n));
    }

    #[test]
    fn partition_burst_cuts_and_heals_udp() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new(SimConfig::default());
        let b = NodeId(1);
        let a = sim.add_node(Box::new(Ticker { dst: b, n: 0 }));
        let b = sim.add_node(Box::new(Recorder(log.clone())));
        FaultPlan::new()
            .partition_burst(Time::from_millis(10), Time::from_millis(20), &[a], &[b])
            .run(&mut sim, Time::from_millis(30), |_, _| {});
        assert!(sim.metrics().counter(b, "net.part_drop") > 0, "cut dropped datagrams");
        // Sequence numbers delivered: a gap where the cut was, traffic
        // on both sides of it.
        let got = log.lock().unwrap();
        let max = *got.last().expect("deliveries");
        assert!((got.len() as u32) < max, "some datagrams were cut");
        assert!(max > 40, "traffic resumed after the heal");
    }

    #[test]
    fn drop_at_loses_exactly_the_datagram_sent_at_that_instant() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Sim::new(SimConfig::default());
        let b = NodeId(1);
        let a = sim.add_node(Box::new(Ticker { dst: b, n: 0 }));
        let b = sim.add_node(Box::new(Recorder(log.clone())));
        // The ticker sends datagram k at (k + 1) × 500 µs.
        FaultPlan::new().drop_at(Time::ZERO + Dur::micros(2000), a, b).run(
            &mut sim,
            Time::from_millis(4),
            |_, _| {},
        );
        assert_eq!(sim.metrics().counter(b, "net.part_drop"), 1);
        assert_eq!(*log.lock().unwrap(), vec![0, 1, 2, 4, 5, 6]);
    }

    #[test]
    fn link_cut_drops_tcp_and_heal_resets_channel() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut cfg = SimConfig::default();
        cfg.tcp_window_bytes = 64 * 1024;
        let mut sim = Sim::new(cfg);
        let a = sim.add_node(Box::new(Idle));
        let b = sim.add_node(Box::new(Recorder(log.clone())));
        sim.set_link_cut(a, b, true);
        sim.with_ctx(a, |ctx| {
            for i in 0..20u32 {
                ctx.tcp_send(b, i, 32 * 1024);
            }
        });
        sim.run_until(Time::from_millis(10));
        assert!(log.lock().unwrap().is_empty(), "nothing crosses a cut link");
        assert!(sim.metrics().counter(b, "net.part_drop") > 0);
        sim.set_link_cut(a, b, false);
        assert!(
            sim.metrics().counter(a, "net.tcp_reset_bytes") > 0,
            "healing writes off segments lost in the cut"
        );
        sim.with_ctx(a, |ctx| {
            for i in 100..105u32 {
                ctx.tcp_send(b, i, 32 * 1024);
            }
        });
        sim.run_to_idle();
        assert_eq!(*log.lock().unwrap(), (100..105).collect::<Vec<_>>(), "post-heal traffic flows");
    }

    #[test]
    fn cpu_straggler_slows_then_heals() {
        let mut sim = Sim::new(SimConfig::default());
        let n = sim.add_node(Box::new(Idle));
        sim.set_cpu_slowdown(n, 4.0);
        sim.with_ctx(n, |ctx| ctx.charge_cpu(0, Dur::millis(1)));
        assert_eq!(sim.cpu_busy(n, 0), Dur::millis(4));
        sim.set_cpu_slowdown(n, 1.0);
        sim.with_ctx(n, |ctx| ctx.charge_cpu(0, Dur::millis(1)));
        assert_eq!(sim.cpu_busy(n, 0), Dur::millis(5));
    }

    #[test]
    fn reorder_knob_delivers_out_of_order_and_counts() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut cfg = SimConfig::default();
        cfg.random_reorder = 0.2;
        let mut sim = Sim::new(cfg);
        let a = sim.add_node(Box::new(Idle));
        let b = sim.add_node(Box::new(Recorder(log.clone())));
        sim.with_ctx(a, |ctx| {
            for i in 0..200u32 {
                ctx.udp_send(b, i, 256);
            }
        });
        sim.run_to_idle();
        let got = log.lock().unwrap();
        assert_eq!(got.len(), 200, "reordering loses nothing");
        assert!(got.windows(2).any(|w| w[0] > w[1]), "some pair arrived out of order");
        assert!(sim.metrics().counter(b, "net.reordered") > 0);
    }

    #[test]
    fn duplication_knob_delivers_extra_copies_and_counts() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut cfg = SimConfig::default();
        cfg.random_duplication = 0.2;
        let mut sim = Sim::new(cfg);
        let a = sim.add_node(Box::new(Idle));
        let b = sim.add_node(Box::new(Recorder(log.clone())));
        sim.with_ctx(a, |ctx| {
            for i in 0..200u32 {
                ctx.udp_send(b, i, 256);
            }
        });
        sim.run_to_idle();
        let dups = sim.metrics().counter(b, "net.duplicated");
        assert!(dups > 0, "some datagrams duplicated");
        assert_eq!(log.lock().unwrap().len() as u64, 200 + dups, "every copy was delivered");
    }

    #[test]
    fn knob_bursts_apply_and_clear() {
        let mut sim = Sim::new(SimConfig::default());
        let a = sim.add_node(Box::new(Idle));
        let _b = sim.add_node(Box::new(Idle));
        FaultPlan::new()
            .loss_burst(Time::from_millis(1), Time::from_millis(2), 0.5)
            .straggler(a, Time::from_millis(1), Time::from_millis(2), 3.0)
            .run(&mut sim, Time::from_millis(3), |_, _| {});
        assert_eq!(sim.config().random_loss, 0.0);
    }
}
