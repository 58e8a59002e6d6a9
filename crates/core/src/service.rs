//! The replicated-service abstraction and the commands it executes.
//!
//! Replicas execute commands against a deterministic [`Service`]; the
//! same trait powers the stand-alone (client-server) baseline, plain
//! state-machine replication, speculative replicas, and partitioned
//! deployments.
//!
//! A command travels as a [`StoredCommand`] behind the value that orders
//! it: the client hands it to the ring with its proposal, the batch of
//! the value's instance carries it (`ringpaxos`'s `value` module docs,
//! "Commands ride in the batch"), and a replica reads it from the batch
//! that delivered it — the modelled network charging the command's full
//! byte size on every hop. A replica therefore holds every command it
//! delivers, however late it delivers it, and a command is freed once
//! no batch and no client holds it.

use btree::{Partitioning, TreeCommand, TreeService};
use ringpaxos::value::{Command, ALL_PARTITIONS};
use simnet::ids::NodeId;
use simnet::time::Dur;

/// A deterministic state machine the SMR layer can replicate.
pub trait Service: Send + 'static {
    /// Command type.
    type Command: Clone + Send + Sync + 'static;

    /// Executes one command, returning its modelled execution time.
    /// Implementations must be deterministic.
    fn execute(&mut self, cmd: &Self::Command) -> Dur;

    /// Whether `cmd` modifies state (updates need undo records; queries
    /// do not).
    fn is_update(cmd: &Self::Command) -> bool;

    /// Cuts read-only `cmd` into at most `n` contiguous parts that
    /// together read exactly what `cmd` reads, to execute on `n` idle
    /// cores at once: two reads never conflict, so neither do the parts
    /// of one. The default cuts nothing.
    fn split_read(cmd: &Self::Command, n: usize) -> Vec<Self::Command> {
        let _ = n;
        vec![cmd.clone()]
    }

    /// Confirms the oldest unconfirmed command, which left `n` undo
    /// records: they will never be rolled back and may be discarded.
    /// Later (still speculative) commands keep theirs.
    fn commit(&mut self, n: usize);

    /// Rolls back the `n` most recent updates (speculative mis-order).
    fn rollback(&mut self, n: usize);

    /// Updates applied and neither committed nor rolled back.
    fn undo_depth(&self) -> usize;

    /// A digest of the whole state that does not depend on the order the
    /// state was built in: replicas that applied the same updates in the
    /// same order must report the same value.
    fn digest(&self) -> u64;
}

impl Service for TreeService {
    type Command = TreeCommand;

    fn execute(&mut self, cmd: &TreeCommand) -> Dur {
        let (_, cost) = self.apply(*cmd);
        cost
    }

    fn is_update(cmd: &TreeCommand) -> bool {
        cmd.is_update()
    }

    fn split_read(cmd: &TreeCommand, n: usize) -> Vec<TreeCommand> {
        cmd.cut(n)
    }

    fn commit(&mut self, n: usize) {
        TreeService::commit_oldest(self, n)
    }

    fn rollback(&mut self, n: usize) {
        TreeService::rollback(self, n)
    }

    fn undo_depth(&self) -> usize {
        TreeService::undo_depth(self)
    }

    fn digest(&self) -> u64 {
        // A wrapping sum of one well-mixed word per tuple: insensitive to
        // order, sensitive to any key or value that differs.
        let mix = |(k, v): (u64, u64)| {
            let x = (k ^ v.rotate_left(32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            (x ^ (x >> 29)).wrapping_mul(0xbf58_476d_1ce4_e5b9) ^ k
        };
        self.tree().range(0, u64::MAX).into_iter().map(mix).fold(0, u64::wrapping_add)
    }
}

/// A client's command: its operations (each tagged with the partitions
/// it touches — cross-partition queries are pre-split into sub-commands,
/// §4.2.2), issuing client, overall partition mask, and reply size.
#[derive(Clone, Debug)]
pub struct StoredCommand<C> {
    /// `(partition mask, operation)` pairs; replicas execute only the
    /// operations intersecting their own partition.
    pub ops: Vec<(u32, C)>,
    /// Issuing client (responses go here).
    pub client: NodeId,
    /// Partitions accessed (bit per partition; `ALL_PARTITIONS` when
    /// unpartitioned).
    pub mask: u32,
    /// Reply size per responding partition, in bytes.
    pub reply_bytes: u32,
}

impl<C: 'static> StoredCommand<C> {
    /// The command `cmd` is, on a ring that orders commands of `C`.
    ///
    /// # Panics
    /// Panics if `cmd` is not a `StoredCommand<C>`: a ring carries the
    /// commands of the service its replicas run.
    pub fn of(cmd: &Command) -> &StoredCommand<C> {
        cmd.downcast_ref().expect("a ring carries its service's commands")
    }
}

impl StoredCommand<TreeCommand> {
    /// `client`'s command of `raw` operations, pre-split into
    /// per-partition sub-commands (§4.2.2): a cross-partition query is cut
    /// at the boundary, each partition executing its slice; updates always
    /// land in one partition. Also returns the replies the command draws:
    /// one per partition it touches, one when unpartitioned.
    pub fn pre_split(
        raw: Vec<TreeCommand>,
        partitioning: Option<Partitioning>,
        client: NodeId,
        reply_bytes: u32,
    ) -> (StoredCommand<TreeCommand>, u32) {
        let (ops, mask, replies) = match partitioning {
            Some(p) => {
                let mut ops = Vec::new();
                let mut mask = 0u32;
                for op in &raw {
                    for (part, sub) in p.split(*op) {
                        ops.push((1u32 << part, sub));
                        mask |= 1 << part;
                    }
                }
                (ops, mask, mask.count_ones())
            }
            None => (raw.into_iter().map(|op| (ALL_PARTITIONS, op)).collect(), ALL_PARTITIONS, 1),
        };
        (StoredCommand { ops, client, mask, reply_bytes }, replies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btree::{CostModel, TreeOutput};
    use proptest::prelude::*;

    proptest! {
        /// A scan cut into parts reads exactly what it reads whole: the
        /// parts cover `lo..=hi` once, in order, their matches sum to the
        /// whole scan's, and each costs the cost model's price for its
        /// own sub-range (its own descent included).
        #[test]
        fn a_scan_cut_into_parts_reads_it_exactly_once(
            lo in 0..30_000u64,
            span in 1..3_000u64,
            n in 1..6usize,
        ) {
            let mut s = TreeService::populated(0, 20_000, 5_000);
            let whole = TreeCommand::Query { lo, hi: lo + span - 1 };
            let parts = <TreeService as Service>::split_read(&whole, n);
            prop_assert_eq!(parts.len() as u64, (n as u64).min(span));
            let mut next = lo;
            let mut matched = 0;
            for &part in &parts {
                let TreeCommand::Query { lo: plo, hi: phi } = part else { panic!("{part:?}") };
                prop_assert_eq!(plo, next);
                prop_assert!(phi >= plo);
                next = phi + 1;
                prop_assert_eq!(s.execute(&part), CostModel::default().cost(part));
                let (TreeOutput::Matched(m), _) = s.apply(part) else { panic!("a read") };
                matched += m;
            }
            prop_assert_eq!(next, lo + span);
            prop_assert_eq!(s.apply(whole).0, TreeOutput::Matched(matched));
        }
    }

    #[test]
    fn split_read_keeps_updates_whole_and_spans_the_whole_key_space() {
        let put = TreeCommand::Insert { key: 1, value: 1 };
        assert_eq!(<TreeService as Service>::split_read(&put, 4), [put]);
        // A query over the whole key space is cut without overflow.
        let all = TreeCommand::Query { lo: 0, hi: u64::MAX };
        let halves = <TreeService as Service>::split_read(&all, 2);
        let half = u64::MAX / 2;
        assert_eq!(
            halves,
            [
                TreeCommand::Query { lo: 0, hi: half },
                TreeCommand::Query { lo: half + 1, hi: u64::MAX }
            ]
        );
        let top = TreeCommand::Query { lo: 7, hi: u64::MAX };
        assert_eq!(
            <TreeService as Service>::split_read(&top, 3).last().map(|c| c.key_span().1),
            Some(u64::MAX)
        );
        assert_eq!(<crate::NullService as Service>::split_read(&9, 4), [9]);
    }

    #[test]
    fn tree_service_implements_service() {
        let mut s = TreeService::new();
        let c1 = TreeCommand::Insert { key: 1, value: 1 };
        let c2 = TreeCommand::Query { lo: 0, hi: 10 };
        let _ = <TreeService as Service>::execute(&mut s, &c1);
        let _ = <TreeService as Service>::execute(&mut s, &c2);
        assert!(<TreeService as Service>::is_update(&c1));
        assert!(!<TreeService as Service>::is_update(&c2));
        assert_eq!(Service::undo_depth(&s), 1);
        let with_key = Service::digest(&s);
        <TreeService as Service>::rollback(&mut s, 1);
        assert!(s.tree().is_empty());
        assert_eq!((Service::undo_depth(&s), Service::digest(&s)), (0, 0));

        // The digest sees keys and values, not insertion order.
        let build = |pairs: &[(u64, u64)]| {
            let mut s = TreeService::new();
            for &(key, value) in pairs {
                s.apply(TreeCommand::Insert { key, value });
            }
            Service::digest(&s)
        };
        assert_eq!(build(&[(1, 1)]), with_key);
        assert_eq!(build(&[(1, 1), (2, 7)]), build(&[(2, 7), (1, 1)]));
        assert_ne!(build(&[(1, 1), (2, 7)]), build(&[(1, 7), (2, 1)]));
        assert_ne!(build(&[(1, 1)]), build(&[(1, 2)]));
    }
}
