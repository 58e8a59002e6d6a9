//! Integration tests of the ch. 6 execution models: replica agreement,
//! conflict-order consistency, barrier liveness, and the scaling shapes
//! the chapter's evaluation reports.

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
        let (_sim, d) = run_model(model, workload, 12, 150);
        let a = d.stores[0].lock().unwrap();
        let b = d.stores[1].lock().unwrap();
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
        let (_sim, d) = run_model(model, workload, 10, 150);
        let a = d.stores[0].lock().unwrap();
        let b = d.stores[1].lock().unwrap();
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
        let store = d.stores[0].lock().unwrap();
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
    let a = sd.stores[0].lock().unwrap();
    let b = sd.stores[1].lock().unwrap();
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
    // Entries stay registered (lagging replicas may still recover them);
    // every one of them corresponds to a submitted command.
    assert_eq!(d.registry.len() as u64, submitted);
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
    let a = dd.stores[0].lock().unwrap();
    let b = dd.stores[1].lock().unwrap();
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
    let a = d.stores[0].lock().unwrap();
    assert!(a.executed() > 0);
    for st in &d.stores[1..] {
        let b = st.lock().unwrap();
        assert_eq!(a.executed(), b.executed(), "EV replica count divergence");
        assert_eq!(a.digest(), b.digest(), "EV batch decisions diverged");
        assert_eq!(a.snapshot(), b.snapshot(), "EV state divergence");
    }
}
