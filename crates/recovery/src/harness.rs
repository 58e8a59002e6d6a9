//! Crash-schedule harness for recovery experiments and tests.
//!
//! A [`CrashPlan`] is a list of timed failure actions applied to a
//! running simulation: crash a node, bring it back with preserved state
//! ([`CrashAction::Recover`] / [`CrashAction::Restart`]), or respawn a
//! fresh process over its stable store ([`CrashAction::Respawn`], the
//! interesting one — the caller's closure installs a new actor with
//! `Sim::replace_actor`, modelling a process restart that must recover
//! from disk).
//!
//! `CrashPlan` is the node-crash subset of the engine's general
//! fault-injection layer and delegates to it: [`CrashPlan::run`]
//! translates each action into a [`simnet::fault::FaultAction`] and
//! hands the whole schedule to [`simnet::fault::FaultPlan`]. Schedules
//! that also need link partitions, loss/reorder bursts, or stragglers
//! should use `FaultPlan` directly.

use simnet::fault::{FaultAction, FaultPlan};
use simnet::ids::NodeId;
use simnet::sim::Sim;
use simnet::time::Time;

/// One failure-injection action.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashAction {
    /// `set_node_up(node, false)`: the node drops all traffic.
    Crash,
    /// `set_node_up(node, true)`: back up, actor state preserved,
    /// timers it missed while down are gone.
    Recover,
    /// `restart_node(node)`: back up and the existing actor's
    /// `on_start` re-runs (SIGSTOP/SIGCONT semantics — actors must
    /// tolerate the resulting duplicate timer chains).
    Restart,
    /// Bring the node up and hand it to the respawn closure, which
    /// installs a fresh actor over the node's stable store
    /// (process-restart-with-recovery semantics).
    Respawn,
}

/// A timed sequence of crash actions driven over a simulation.
#[derive(Default)]
pub struct CrashPlan {
    events: Vec<(Time, NodeId, CrashAction)>,
}

impl CrashPlan {
    /// Creates an empty plan.
    pub fn new() -> CrashPlan {
        CrashPlan::default()
    }

    /// Adds an action at `at` (builder style).
    pub fn at(mut self, at: Time, node: NodeId, action: CrashAction) -> CrashPlan {
        self.events.push((at, node, action));
        self
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[(Time, NodeId, CrashAction)] {
        &self.events
    }

    /// Runs `sim` through every scheduled action (in time order) and on
    /// to `until`. `respawn` is invoked for [`CrashAction::Respawn`]
    /// events after the node is marked up; it must install the fresh
    /// actor (typically `sim.replace_actor` with a recovery-enabled
    /// process sharing the node's stable store).
    pub fn run(self, sim: &mut Sim, until: Time, respawn: impl FnMut(&mut Sim, NodeId)) {
        let mut plan = FaultPlan::new();
        for (at, node, action) in self.events {
            let fa = match action {
                CrashAction::Crash => FaultAction::Crash(node),
                CrashAction::Recover => FaultAction::Recover(node),
                CrashAction::Restart => FaultAction::Restart(node),
                CrashAction::Respawn => FaultAction::Respawn(node),
            };
            plan = plan.at(at, fa);
        }
        plan.run(sim, until, respawn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::config::SimConfig;
    use simnet::prelude::*;
    use std::sync::Arc;
    use std::sync::Mutex;

    struct Counter(Arc<Mutex<u32>>);
    impl Actor for Counter {
        fn on_start(&mut self, _ctx: &mut Ctx) {
            *self.0.lock().unwrap() += 1;
        }
        fn on_message(&mut self, _env: &Envelope, _ctx: &mut Ctx) {}
    }

    #[test]
    fn plan_applies_actions_in_time_order() {
        let starts = Arc::new(Mutex::new(0));
        let mut sim = Sim::new(SimConfig::default());
        let n = sim.add_node(Box::new(Counter(starts.clone())));
        let respawned = Arc::new(Mutex::new(false));
        let r2 = respawned.clone();
        let s2 = starts.clone();
        CrashPlan::new()
            .at(Time::from_millis(30), n, CrashAction::Respawn)
            .at(Time::from_millis(10), n, CrashAction::Crash)
            .run(&mut sim, Time::from_millis(50), move |sim, node| {
                *r2.lock().unwrap() = true;
                sim.replace_actor(node, Box::new(Counter(s2.clone())));
            });
        assert!(*respawned.lock().unwrap());
        assert_eq!(*starts.lock().unwrap(), 2, "original start + respawned start");
        assert_eq!(sim.now(), Time::from_millis(50));
        assert!(sim.is_up(n));
    }
}
