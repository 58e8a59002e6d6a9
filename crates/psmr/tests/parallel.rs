//! Integration tests of the ch. 6 execution models: replica agreement,
//! conflict-order consistency, barrier liveness, and the scaling shapes
//! the chapter's evaluation reports.

use std::any::Any;
use std::cell::RefCell;
use std::rc::{Rc, Weak};

use ringpaxos::msg::MMsg;
use simnet::prelude::*;

use psmr::{deploy_parallel, ExecModel, ParallelDeployment, ParallelOptions, PsmrWorkload};
use workload::{SESSIONS_COMPLETED, SESSIONS_SUBMITTED};

fn sim_for(model: ExecModel) -> Sim {
    let mut cfg = SimConfig::default();
    cfg.cores_per_node = model.cores_needed().max(4);
    Sim::new(cfg)
}

fn completed(sim: &Sim, d: &ParallelDeployment) -> u64 {
    d.clients.iter().map(|&c| sim.metrics().counter(c, SESSIONS_COMPLETED)).sum()
}

/// Runs `model` under `workload` for `ms` simulated milliseconds and
/// returns the deployment plus completed-command count.
fn run_model(
    model: ExecModel,
    workload: PsmrWorkload,
    n_clients: usize,
    ms: u64,
) -> (Sim, ParallelDeployment) {
    let mut sim = sim_for(model);
    let opts = ParallelOptions {
        model,
        n_clients,
        workload,
        n_replicas: 2,
        stop_at: Some(Time::from_millis(ms)),
        ..ParallelOptions::default()
    };
    let d = deploy_parallel(&mut sim, &opts);
    // Slack past stop_at lets outstanding commands finish.
    sim.run_until(Time::from_millis(ms + 200));
    (sim, d)
}

fn all_models(groups: usize) -> [ExecModel; 5] {
    [
        ExecModel::Sequential,
        ExecModel::Pipelined,
        ExecModel::Sdpe { workers: groups },
        ExecModel::Psmr { workers: groups },
        ExecModel::Ev { workers: groups, batch: 16 },
    ]
}

#[test]
fn replicas_agree_under_every_model() {
    let workload = PsmrWorkload { n_groups: 4, dep_pct: 20, ..PsmrWorkload::default() };
    for model in all_models(4) {
        let (sim, d) = run_model(model, workload, 12, 150);
        let stores = d.stores(&sim);
        let (a, b) = (stores[0], stores[1]);
        assert!(a.executed() > 0, "{model:?} executed nothing");
        assert_eq!(a.executed(), b.executed(), "{model:?} executed-count divergence");
        assert_eq!(a.digest(), b.digest(), "{model:?} execution-order divergence");
        assert_eq!(a.snapshot(), b.snapshot(), "{model:?} state divergence");
    }
}

#[test]
fn conflict_domain_histories_match_across_replicas() {
    let workload =
        PsmrWorkload { n_groups: 4, dep_pct: 30, dep_span: 2, ..PsmrWorkload::default() };
    for model in all_models(4) {
        let (sim, d) = run_model(model, workload, 10, 150);
        let stores = d.stores(&sim);
        let (a, b) = (stores[0], stores[1]);
        for g in 0..4 {
            assert_eq!(
                a.history(g),
                b.history(g),
                "{model:?}: domain {g} executed conflicting commands in different orders"
            );
        }
    }
}

#[test]
fn every_completed_command_was_executed_once() {
    let workload = PsmrWorkload { n_groups: 4, dep_pct: 50, ..PsmrWorkload::default() };
    for model in all_models(4) {
        let (sim, d) = run_model(model, workload, 8, 150);
        let done = completed(&sim, &d);
        let store = d.stores(&sim)[0];
        assert!(done > 0, "{model:?}: no commands completed");
        // Replicas may have executed a few commands whose responses are
        // still in flight, but never fewer than the clients saw.
        assert!(
            store.executed() >= done,
            "{model:?}: clients saw {done} but replicas executed {}",
            store.executed()
        );
    }
}

#[test]
fn psmr_parallelizes_independent_commands() {
    let workload = PsmrWorkload { n_groups: 4, dep_pct: 0, ..PsmrWorkload::default() };
    let (seq_sim, seq_d) = run_model(ExecModel::Sequential, workload, 60, 300);
    let (par_sim, par_d) = run_model(ExecModel::Psmr { workers: 4 }, workload, 60, 300);
    let seq = completed(&seq_sim, &seq_d);
    let par = completed(&par_sim, &par_d);
    assert!(
        par as f64 > seq as f64 * 2.0,
        "P-SMR with 4 workers should far outrun sequential: {par} vs {seq}"
    );
}

#[test]
fn fully_dependent_workload_degrades_psmr_to_sequential() {
    let workload = PsmrWorkload { n_groups: 4, dep_pct: 100, ..PsmrWorkload::default() };
    let (seq_sim, seq_d) = run_model(ExecModel::Sequential, workload, 40, 300);
    let (par_sim, par_d) = run_model(ExecModel::Psmr { workers: 4 }, workload, 40, 300);
    let seq = completed(&seq_sim, &seq_d);
    let par = completed(&par_sim, &par_d);
    assert!(par > 0, "barriers must not deadlock");
    assert!(
        (par as f64) < seq as f64 * 1.3,
        "all-dependent P-SMR cannot beat sequential: {par} vs {seq}"
    );
}

#[test]
fn sdpe_beats_sequential_but_scheduler_caps_it() {
    let workload = PsmrWorkload { n_groups: 8, dep_pct: 0, ..PsmrWorkload::default() };
    let (seq_sim, seq_d) = run_model(ExecModel::Sequential, workload, 80, 300);
    let (sdpe_sim, sdpe_d) = run_model(ExecModel::Sdpe { workers: 8 }, workload, 80, 300);
    let (psmr_sim, psmr_d) = run_model(ExecModel::Psmr { workers: 8 }, workload, 80, 300);
    let seq = completed(&seq_sim, &seq_d);
    let sdpe = completed(&sdpe_sim, &sdpe_d);
    let psmr = completed(&psmr_sim, &psmr_d);
    assert!(sdpe > seq, "SDPE should beat sequential: {sdpe} vs {seq}");
    assert!(
        psmr as f64 > sdpe as f64 * 1.3,
        "P-SMR should outrun scheduler-capped SDPE at 8 workers: {psmr} vs {sdpe}"
    );
}

#[test]
fn skewed_workload_is_safe_and_slower() {
    let uniform = PsmrWorkload { n_groups: 4, dep_pct: 0, hot_pct: 0, ..PsmrWorkload::default() };
    let skewed = PsmrWorkload { n_groups: 4, dep_pct: 0, hot_pct: 80, ..PsmrWorkload::default() };
    let (usim, ud) = run_model(ExecModel::Psmr { workers: 4 }, uniform, 60, 300);
    let (ssim, sd) = run_model(ExecModel::Psmr { workers: 4 }, skewed, 60, 300);
    let u = completed(&usim, &ud);
    let s = completed(&ssim, &sd);
    // Safety under skew.
    let stores = sd.stores(&ssim);
    let (a, b) = (stores[0], stores[1]);
    assert_eq!(a.digest(), b.digest(), "skew broke replica agreement");
    // The hot worker serializes most of the load (§6.5.7).
    assert!(s > 0 && s < u, "skewed should underperform uniform: {s} vs {u}");
}

#[test]
fn mixed_workload_throughput_declines_with_conflicts() {
    let mut last = u64::MAX;
    for dep_pct in [0, 20, 100] {
        let workload = PsmrWorkload { n_groups: 4, dep_pct, ..PsmrWorkload::default() };
        let (sim, d) = run_model(ExecModel::Psmr { workers: 4 }, workload, 60, 300);
        let done = completed(&sim, &d);
        assert!(done > 0, "dep_pct={dep_pct} completed nothing");
        assert!(
            done < last,
            "throughput should fall as conflicts rise (dep {dep_pct}%: {done} !< {last})"
        );
        last = done;
    }
}

#[test]
fn quiescence_after_stop() {
    let workload = PsmrWorkload { n_groups: 2, dep_pct: 25, ..PsmrWorkload::default() };
    let (sim, d) = run_model(ExecModel::Psmr { workers: 2 }, workload, 8, 100);
    let submitted: u64 =
        d.clients.iter().map(|&c| sim.metrics().counter(c, SESSIONS_SUBMITTED)).sum();
    let done = completed(&sim, &d);
    assert_eq!(submitted, done, "all submitted commands must complete");
    // Each replica applied every submitted command, and each once.
    for s in d.stores(&sim) {
        let ids: std::collections::HashSet<_> =
            (0..s.domains()).flat_map(|g| s.history(g).iter().copied()).collect();
        assert_eq!((s.executed(), ids.len() as u64), (submitted, submitted));
    }
}

#[test]
fn ev_scales_cleanly_but_collapses_under_conflicts() {
    let clean = PsmrWorkload { n_groups: 4, dep_pct: 0, ..PsmrWorkload::default() };
    let dirty = PsmrWorkload { n_groups: 4, dep_pct: 30, ..PsmrWorkload::default() };
    let (csim, cd) = run_model(ExecModel::Ev { workers: 4, batch: 16 }, clean, 60, 300);
    let (dsim, dd) = run_model(ExecModel::Ev { workers: 4, batch: 16 }, dirty, 60, 300);
    let (ssim, sd) = run_model(ExecModel::Sequential, clean, 60, 300);
    let c = completed(&csim, &cd);
    let d = completed(&dsim, &dd);
    let s = completed(&ssim, &sd);
    assert!(c as f64 > s as f64 * 2.0, "clean EV should scale past sequential: {c} vs {s}");
    assert!((d as f64) < c as f64 * 0.6, "conflict rollbacks should hurt EV badly: {d} !<< {c}");
    let stores = dd.stores(&dsim);
    let (a, b) = (stores[0], stores[1]);
    assert_eq!(a.digest(), b.digest(), "EV replicas diverged");
}

#[test]
fn ev_stays_consistent_under_message_loss() {
    // EV rides a single ordering ring: loss recovery (retransmissions,
    // client retries) must keep batch formation — and therefore the
    // rollback decisions — identical across replicas.
    let mut cfg = SimConfig::default();
    cfg.cores_per_node = 8;
    cfg.random_loss = 0.02;
    let mut sim = Sim::new(cfg);
    let opts = ParallelOptions {
        model: ExecModel::Ev { workers: 4, batch: 16 },
        n_replicas: 3,
        n_clients: 16,
        workload: PsmrWorkload { n_groups: 4, dep_pct: 15, ..PsmrWorkload::default() },
        stop_at: Some(Time::from_millis(800)),
        ..ParallelOptions::default()
    };
    let d = deploy_parallel(&mut sim, &opts);
    sim.run_until(Time::from_millis(2500));

    let submitted: u64 =
        d.clients.iter().map(|&c| sim.metrics().counter(c, SESSIONS_SUBMITTED)).sum();
    let done = completed(&sim, &d);
    assert_eq!(submitted, done, "EV lost commands under loss");
    let stores = d.stores(&sim);
    let a = stores[0];
    assert!(a.executed() > 0);
    for b in &stores[1..] {
        assert_eq!(a.executed(), b.executed(), "EV replica count divergence");
        assert_eq!(a.digest(), b.digest(), "EV batch decisions diverged");
        assert_eq!(a.snapshot(), b.snapshot(), "EV state divergence");
    }
}

/// The first command a 2A brought a replica, held weakly.
type First = Rc<RefCell<Option<Weak<dyn Any>>>>;

/// A deployed replica behind a hook that keeps a weak handle to the
/// first command a 2A brings it.
struct Grab {
    replica: Box<dyn Actor>,
    first: First,
}

impl Actor for Grab {
    fn on_message(&mut self, env: &Envelope, ctx: &mut Ctx) {
        if let Some(MMsg::Phase2a { batch, .. }) = env.payload.downcast_ref::<MMsg>() {
            let mut first = self.first.borrow_mut();
            if first.is_none() {
                *first = batch.commands().next().map(|(_, cmd)| Rc::downgrade(cmd));
            }
        }
        self.replica.on_message(env, ctx);
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx) {
        self.replica.on_timer(token, ctx);
    }
}

/// P-SMR's commands live in the batches of the rings that order them and
/// with their client until it is answered, nowhere else: an early
/// command of a long run is freed while the run goes on, so command
/// memory does not grow with the run's length (a shared command store
/// kept every one of them to the end).
#[test]
fn an_early_command_is_freed_while_the_run_goes_on() {
    let model = ExecModel::Psmr { workers: 4 };
    let mut sim = sim_for(model);
    let workload = PsmrWorkload { dep_pct: 10, ..PsmrWorkload::default() };
    let opts = ParallelOptions { model, workload, ..ParallelOptions::default() };
    let d = deploy_parallel(&mut sim, &opts);
    let first = First::default();
    let inner = sim.replace_actor(d.replicas[0], Box::new(Idle)).expect("a deployed replica");
    sim.replace_actor(d.replicas[0], Box::new(Grab { replica: inner, first: first.clone() }));
    sim.run_until(Time::from_millis(100));
    let first = first.borrow().clone().expect("a 2A brought commands");
    assert!(first.upgrade().is_some(), "the command is held while it is ordered");
    sim.run_until(Time::from_secs(3));
    assert!(completed(&sim, &d) > 20_000);
    assert!(first.upgrade().is_none(), "the first command outlived its run's first second");
}
