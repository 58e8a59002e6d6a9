//! End-to-end property test: for random workload mixes and any execution
//! model, deployed replicas agree on execution count, order digest,
//! per-domain histories, and final state.

use proptest::prelude::*;
use simnet::prelude::*;

use psmr::{deploy_parallel, ExecModel, ParallelOptions, PsmrWorkload};

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn replicas_always_agree(
        model_pick in 0..5usize,
        n_groups in 2usize..=4,
        dep_pct in 0u32..=100,
        hot_pct in prop::sample::select(vec![0u32, 60]),
        n_clients in 4usize..=10,
        seed in any::<u64>(),
    ) {
        let model = [
            ExecModel::Sequential,
            ExecModel::Pipelined,
            ExecModel::Sdpe { workers: n_groups },
            ExecModel::Psmr { workers: n_groups },
            ExecModel::Ev { workers: n_groups, batch: 16 },
        ][model_pick];
        let mut cfg = SimConfig::default();
        cfg.cores_per_node = model.cores_needed().max(4);
        cfg.seed = seed;
        let mut sim = Sim::new(cfg);
        let opts = ParallelOptions {
            model,
            n_replicas: 3,
            n_clients,
            workload: PsmrWorkload { n_groups, dep_pct, hot_pct, ..PsmrWorkload::default() },
            stop_at: Some(Time::from_millis(80)),
            ..ParallelOptions::default()
        };
        let d = deploy_parallel(&mut sim, &opts);
        sim.run_until(Time::from_millis(250));

        let stores = d.stores(&sim);
        let first = stores[0];
        prop_assert!(first.executed() > 0, "{model:?}: nothing executed");
        for (i, s) in stores.iter().enumerate().skip(1) {
            prop_assert_eq!(first.executed(), s.executed(), "replica {} count", i);
            prop_assert_eq!(first.digest(), s.digest(), "replica {} order digest", i);
            prop_assert_eq!(first.snapshot(), s.snapshot(), "replica {} state", i);
            for g in 0..n_groups {
                prop_assert_eq!(first.history(g), s.history(g), "replica {} domain {}", i, g);
            }
        }
    }
}
