//! Property tests of the execution engines: determinism, exactly-once,
//! and conflict serialization under arbitrary delivery interleavings.

use std::rc::Rc;

use abcast::MsgId;
use proptest::prelude::*;
use simnet::ids::NodeId;
use simnet::time::{Dur, Time};

use psmr::{Engine, EngineCosts, ExecModel, PCommand, PStored};

/// A generated command: domains out of `n_groups`, all writes.
fn arb_commands(n_groups: u8, max: usize) -> impl Strategy<Value = Vec<PCommand>> {
    prop::collection::vec(
        (prop::collection::btree_set(0..n_groups, 1..=(n_groups as usize)), 1u64..400),
        1..max,
    )
    .prop_map(|cmds| {
        cmds.into_iter()
            .map(|(groups, cost_us)| {
                let groups: Vec<u8> = groups.into_iter().collect();
                PCommand {
                    writes: groups.iter().map(|&g| (g as u64, 1)).collect(),
                    groups,
                    cost: Dur::micros(cost_us),
                }
            })
            .collect()
    })
}

fn stored(cmd: &PCommand) -> Rc<PStored> {
    Rc::new(PStored { cmd: cmd.clone(), client: NodeId(0), reply_bytes: 64 })
}

/// Builds per-ring occurrence streams (ring order = command index order,
/// the consistency Multi-Ring Paxos's merge provides) and interleaves
/// them according to `picks`.
fn interleave(cmds: &[PCommand], workers: usize, picks: &[u8]) -> Vec<(u8, usize)> {
    let mut streams: Vec<Vec<usize>> = vec![Vec::new(); workers];
    for (i, c) in cmds.iter().enumerate() {
        for &g in &c.groups {
            streams[g as usize].push(i);
        }
    }
    let mut cursors = vec![0usize; workers];
    let mut out = Vec::new();
    let mut pi = 0;
    loop {
        let live: Vec<u8> = (0..workers as u8)
            .filter(|&g| cursors[g as usize] < streams[g as usize].len())
            .collect();
        if live.is_empty() {
            break;
        }
        let g = live[picks.get(pi).copied().unwrap_or(0) as usize % live.len()];
        pi += 1;
        out.push((g, streams[g as usize][cursors[g as usize]]));
        cursors[g as usize] += 1;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// P-SMR: every command executes exactly once and per-domain
    /// executions serialize — in *firing* order (a multi-group command
    /// fires at its last merged occurrence, which may legitimately
    /// reorder it against later single-group commands; what matters is
    /// that the firing order is a function of the merged stream, hence
    /// identical at every replica, and that conflicting executions never
    /// overlap in time).
    #[test]
    fn psmr_conflict_serialization(
        cmds in arb_commands(4, 24),
        picks in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let workers = 4;
        let mut e = Engine::new(ExecModel::Psmr { workers }, EngineCosts::default());
        let schedule = interleave(&cmds, workers, &picks);
        let mut done: Vec<Option<Time>> = vec![None; cmds.len()];
        // Executions per domain, in firing order.
        let mut fired: Vec<Vec<usize>> = vec![Vec::new(); workers];
        for (g, i) in schedule {
            let released = e.deliver(MsgId(i as u64), &stored(&cmds[i]), Some(g), Time::ZERO);
            for (did, _, s) in released {
                prop_assert_eq!(did, MsgId(i as u64), "P-SMR releases the delivered command");
                prop_assert!(done[i].is_none(), "command {i} executed twice");
                done[i] = Some(s.exec_end);
                for &cg in &cmds[i].groups {
                    fired[cg as usize].push(i);
                }
            }
        }
        // Exactly once.
        for (i, d) in done.iter().enumerate() {
            prop_assert!(d.is_some(), "command {i} never executed");
        }
        prop_assert_eq!(e.pending_barriers(), 0);
        // Per-domain serialization in firing order: consecutive
        // conflicting executions are separated by at least the later
        // command's execution cost (no overlap).
        for (g, seq) in fired.iter().enumerate() {
            for w in seq.windows(2) {
                let (prev, next) = (w[0], w[1]);
                let (pd, nd) = (done[prev].unwrap(), done[next].unwrap());
                prop_assert!(
                    nd.saturating_since(pd) >= cmds[next].cost,
                    "domain {g}: {prev} and {next} overlap ({pd:?} .. {nd:?})"
                );
            }
        }
    }

    /// SDPE: conflicting commands serialize; completion per domain
    /// follows the total delivery order.
    #[test]
    fn sdpe_conflict_serialization(cmds in arb_commands(4, 24)) {
        let mut e = Engine::new(ExecModel::Sdpe { workers: 4 }, EngineCosts::default());
        let mut done = Vec::new();
        for (i, c) in cmds.iter().enumerate() {
            let mut released = e.deliver(MsgId(i as u64), &stored(c), None, Time::ZERO);
            prop_assert_eq!(released.len(), 1, "total order executes immediately");
            done.push(released.pop().expect("checked").2.exec_end);
        }
        for g in 0..4u8 {
            let mut prev: Option<Time> = None;
            for (i, c) in cmds.iter().enumerate() {
                if !c.groups.contains(&g) {
                    continue;
                }
                if let Some(pd) = prev {
                    prop_assert!(done[i].saturating_since(pd) >= c.cost);
                }
                prev = Some(done[i]);
            }
        }
    }

    /// Any two engines fed the same occurrence stream produce identical
    /// completion times (replica determinism).
    #[test]
    fn engines_are_deterministic(
        cmds in arb_commands(3, 16),
        picks in prop::collection::vec(any::<u8>(), 0..128),
        model_pick in 0..5usize,
    ) {
        let model = [
            ExecModel::Sequential,
            ExecModel::Pipelined,
            ExecModel::Sdpe { workers: 3 },
            ExecModel::Psmr { workers: 3 },
            ExecModel::Ev { workers: 3, batch: 4 },
        ][model_pick];
        let mut a = Engine::new(model, EngineCosts::default());
        let mut b = Engine::new(model, EngineCosts::default());
        let schedule = match model {
            ExecModel::Psmr { workers } => interleave(&cmds, workers, &picks),
            _ => cmds.iter().enumerate().map(|(i, _)| (0u8, i)).collect(),
        };
        for (g, i) in schedule {
            let ring = matches!(model, ExecModel::Psmr { .. }).then_some(g);
            let sa = a.deliver(MsgId(i as u64), &stored(&cmds[i]), ring, Time::ZERO);
            let sb = b.deliver(MsgId(i as u64), &stored(&cmds[i]), ring, Time::ZERO);
            prop_assert_eq!(sa.len(), sb.len(), "engines disagreed on release count");
            for ((ida, _, x), (idb, _, y)) in sa.iter().zip(sb.iter()) {
                prop_assert_eq!(ida, idb);
                prop_assert_eq!(x.done, y.done);
                prop_assert_eq!(x.worker, y.worker);
            }
        }
        // Flush any open EV batch identically.
        let (fa, fb) = (a.flush(Time::from_millis(10)), b.flush(Time::from_millis(10)));
        prop_assert_eq!(fa.len(), fb.len());
    }

    /// Sequential is never faster than pipelined, which is never faster
    /// than SDPE's makespan on independent single-group commands.
    #[test]
    fn model_ordering_on_independent_commands(n in 4usize..40) {
        let cmds: Vec<PCommand> = (0..n)
            .map(|i| PCommand {
                groups: vec![(i % 4) as u8],
                writes: vec![(i as u64, 1)],
                cost: Dur::micros(100),
            })
            .collect();
        let mut makespans = Vec::new();
        for model in [
            ExecModel::Sequential,
            ExecModel::Pipelined,
            ExecModel::Sdpe { workers: 4 },
        ] {
            let mut e = Engine::new(model, EngineCosts::default());
            let mut last = Time::ZERO;
            for (i, c) in cmds.iter().enumerate() {
                let released = e.deliver(MsgId(i as u64), &stored(c), None, Time::ZERO);
                last = released.last().map(|(.., s)| s.done).unwrap_or(last);
            }
            makespans.push(last);
        }
        prop_assert!(makespans[1] <= makespans[0], "pipelined beat by sequential");
        prop_assert!(makespans[2] <= makespans[1], "sdpe beat by pipelined");
    }
}
