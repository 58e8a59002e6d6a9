//! The replicated B⁺-tree service of thesis §4.4.2: commands, execution
//! with an undo log for speculative rollback, a calibrated virtual-time
//! cost model, and key-range partitioning.

use simnet::time::Dur;

use crate::tree::BPlusTree;

/// Keys per replica in the paper's experiments (12 million).
pub const KEYS_PER_PARTITION: u64 = 12_000_000;
/// Span of the paper's range queries (1000 keys).
pub const QUERY_SPAN: u64 = 1000;

/// One service command (§4.4.2). Updates return small acks; queries
/// return the tuples in the inclusive key window.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TreeCommand {
    /// Insert a tuple (no-op if the key exists with this value; replaces
    /// otherwise).
    Insert {
        /// Key to insert.
        key: u64,
        /// Value to store.
        value: u64,
    },
    /// Delete a key if present.
    Delete {
        /// Key to delete.
        key: u64,
    },
    /// Range query over `[lo, hi]`.
    Query {
        /// Lower bound (inclusive).
        lo: u64,
        /// Upper bound (inclusive).
        hi: u64,
    },
}

impl TreeCommand {
    /// Whether the command modifies the tree.
    pub fn is_update(self) -> bool {
        !matches!(self, TreeCommand::Query { .. })
    }

    /// The inclusive key interval the command touches.
    pub fn key_span(self) -> (u64, u64) {
        match self {
            TreeCommand::Insert { key, .. } | TreeCommand::Delete { key } => (key, key),
            TreeCommand::Query { lo, hi } => (lo, hi),
        }
    }
}

/// Result of executing one command.
#[derive(Clone, Debug, PartialEq)]
pub enum TreeOutput {
    /// Ack for an update (carries the prior value, if any).
    Ack(Option<u64>),
    /// Number of tuples a query matched (the tuples themselves are not
    /// materialized into responses — the reply size is modelled).
    Matched(usize),
}

/// The inverse of an applied update, for speculative rollback (§4.2.1:
/// "rolling back … can be done logically, by executing an action that
/// reverses the effects of the out-of-order command").
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum UndoOp {
    /// Re-insert a key that was deleted/overwritten.
    Restore(u64, u64),
    /// Remove a key that was freshly inserted.
    Uninsert(u64),
    /// Queries need no undo.
    None,
}

/// Virtual execution-time model, calibrated against the paper's
/// single-server plateaus (Fig. 4.3): ~3.5 Kcps for 1000-key range
/// queries and ~55 Kcps for single updates in the client-server setup.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Fixed cost of dispatching one command (parse + lookup path).
    pub dispatch: Dur,
    /// Per-key cost of scanning a range.
    pub per_scanned_key: Dur,
    /// Fixed cost of one update operation (tree write path).
    pub per_update: Dur,
    /// Base cost of starting a range scan (descend to leaf).
    pub scan_base: Dur,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            dispatch: Dur::nanos(2_000),
            per_scanned_key: Dur::nanos(200),
            per_update: Dur::nanos(2_500),
            scan_base: Dur::micros(50),
        }
    }
}

impl CostModel {
    /// Virtual CPU time to execute `cmd`.
    pub fn cost(&self, cmd: TreeCommand) -> Dur {
        match cmd {
            TreeCommand::Insert { .. } | TreeCommand::Delete { .. } => {
                self.dispatch + self.per_update
            }
            TreeCommand::Query { lo, hi } => {
                let span = hi.saturating_sub(lo).saturating_add(1);
                self.dispatch + self.scan_base + self.per_scanned_key * span
            }
        }
    }
}

/// The B⁺-tree service: the tree, its cost model, and an undo log.
#[derive(Debug, Default)]
pub struct TreeService {
    tree: BPlusTree,
    costs: CostModel,
    undo: Vec<UndoOp>,
}

impl TreeService {
    /// Creates an empty service.
    pub fn new() -> TreeService {
        TreeService::default()
    }

    /// Creates a service pre-populated like the paper's experiments:
    /// `count` evenly spaced keys in `[base, base + span)`.
    pub fn populated(base: u64, span: u64, count: u64) -> TreeService {
        let mut s = TreeService::new();
        let step = (span / count).max(1);
        for i in 0..count {
            s.tree.insert(base + i * step, i);
        }
        s.undo.clear();
        s
    }

    /// The underlying tree (for inspection).
    pub fn tree(&self) -> &BPlusTree {
        &self.tree
    }

    /// The cost model.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// Executes `cmd` against the real tree, recording an undo entry for
    /// updates. Returns the output and the modelled execution time.
    pub fn apply(&mut self, cmd: TreeCommand) -> (TreeOutput, Dur) {
        let cost = self.costs.cost(cmd);
        let out = match cmd {
            TreeCommand::Insert { key, value } => {
                let old = self.tree.insert(key, value);
                self.undo.push(match old {
                    Some(prev) => UndoOp::Restore(key, prev),
                    None => UndoOp::Uninsert(key),
                });
                TreeOutput::Ack(old)
            }
            TreeCommand::Delete { key } => {
                let old = self.tree.remove(key);
                self.undo.push(match old {
                    Some(prev) => UndoOp::Restore(key, prev),
                    None => UndoOp::None,
                });
                TreeOutput::Ack(old)
            }
            TreeCommand::Query { lo, hi } => TreeOutput::Matched(self.tree.range(lo, hi).len()),
        };
        (out, cost)
    }

    /// Number of undoable operations currently logged.
    pub fn undo_depth(&self) -> usize {
        self.undo.len()
    }

    /// Discards the undo log up to the current point (operations
    /// confirmed in order — they will never be rolled back).
    pub fn commit(&mut self) {
        self.undo.clear();
    }

    /// Discards the `n` oldest undo records (the updates of a command
    /// confirmed in order), keeping those of later speculated commands.
    pub fn commit_oldest(&mut self, n: usize) {
        self.undo.drain(..n.min(self.undo.len()));
    }

    /// Rolls back the `n` most recent updates, in reverse order.
    pub fn rollback(&mut self, n: usize) {
        for _ in 0..n {
            let Some(op) = self.undo.pop() else { return };
            match op {
                UndoOp::Restore(k, v) => {
                    self.tree.insert(k, v);
                }
                UndoOp::Uninsert(k) => {
                    self.tree.remove(k);
                }
                UndoOp::None => {}
            }
        }
    }
}

/// Key-range partitioning: partition `p` of `n` owns keys
/// `[p * KEYS_SPAN, (p+1) * KEYS_SPAN)` where the total key space is
/// `n * KEYS_PER_PARTITION` (§4.4.2: "in the experiments with partial
/// replication we have a bigger range of keys: [1, 12M * num_partitions]").
#[derive(Clone, Copy, Debug)]
pub struct Partitioning {
    /// Number of partitions.
    pub n: u32,
    /// Keys per partition.
    pub span: u64,
}

impl Partitioning {
    /// The paper's layout: 12 M keys per partition.
    pub fn new(n: u32) -> Partitioning {
        Partitioning { n, span: KEYS_PER_PARTITION }
    }

    /// The partition owning `key`.
    pub fn partition_of(&self, key: u64) -> u32 {
        ((key / self.span) as u32).min(self.n - 1)
    }

    /// Bitmask of partitions `cmd` touches.
    pub fn mask_of(&self, cmd: TreeCommand) -> u32 {
        let (lo, hi) = cmd.key_span();
        let (p0, p1) = (self.partition_of(lo), self.partition_of(hi));
        let mut mask = 0u32;
        for p in p0..=p1 {
            mask |= 1 << p;
        }
        mask
    }

    /// Splits a command into per-partition sub-commands
    /// `(partition, sub-command)` — queries crossing a boundary are cut
    /// at it; updates always land in one partition (§4.2.2).
    pub fn split(&self, cmd: TreeCommand) -> Vec<(u32, TreeCommand)> {
        match cmd {
            TreeCommand::Insert { .. } | TreeCommand::Delete { .. } => {
                vec![(self.partition_of(cmd.key_span().0), cmd)]
            }
            TreeCommand::Query { lo, hi } => {
                let (p0, p1) = (self.partition_of(lo), self.partition_of(hi));
                (p0..=p1)
                    .map(|p| {
                        let plo = (p as u64) * self.span;
                        let phi = plo + self.span - 1;
                        (p, TreeCommand::Query { lo: lo.max(plo), hi: hi.min(phi) })
                    })
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_and_undo_roundtrip() {
        let mut s = TreeService::new();
        s.apply(TreeCommand::Insert { key: 1, value: 10 });
        s.apply(TreeCommand::Insert { key: 2, value: 20 });
        s.apply(TreeCommand::Insert { key: 1, value: 11 }); // overwrite
        s.apply(TreeCommand::Delete { key: 2 });
        assert_eq!(s.undo_depth(), 4);
        // Roll back delete and overwrite: key 1 -> 10, key 2 -> 20.
        s.rollback(2);
        assert_eq!(s.tree().get(1), Some(10));
        assert_eq!(s.tree().get(2), Some(20));
        // Roll back the two inserts: empty tree.
        s.rollback(2);
        assert!(s.tree().is_empty());
    }

    #[test]
    fn commit_clears_undo() {
        let mut s = TreeService::new();
        s.apply(TreeCommand::Insert { key: 1, value: 1 });
        s.commit();
        assert_eq!(s.undo_depth(), 0);
        s.rollback(5); // no-op
        assert_eq!(s.tree().get(1), Some(1));
    }

    #[test]
    fn commit_oldest_keeps_later_records_undoable() {
        let mut s = TreeService::new();
        for k in 1..=3 {
            s.apply(TreeCommand::Insert { key: k, value: k });
        }
        s.commit_oldest(1);
        assert_eq!(s.undo_depth(), 2);
        s.rollback(5); // undoes keys 3 and 2; key 1 is committed
        assert_eq!(s.tree().range(0, u64::MAX), vec![(1, 1)]);
        s.commit_oldest(5); // more than logged: no-op beyond the log
        assert_eq!(s.undo_depth(), 0);
    }

    #[test]
    fn query_counts_matches_and_needs_no_undo() {
        let mut s = TreeService::populated(0, 1000, 100);
        let before = s.undo_depth();
        let (out, _) = s.apply(TreeCommand::Query { lo: 0, hi: 999 });
        assert_eq!(out, TreeOutput::Matched(100));
        assert_eq!(s.undo_depth(), before);
    }

    #[test]
    fn cost_model_matches_paper_plateaus() {
        let m = CostModel::default();
        // 1000-key range query ~ 252 us -> ~4 Kcps per core.
        let q = m.cost(TreeCommand::Query { lo: 0, hi: QUERY_SPAN - 1 });
        assert!(q >= Dur::micros(240) && q <= Dur::micros(280), "{q:?}");
        // Single update ~ 4.5 us.
        let u = m.cost(TreeCommand::Insert { key: 0, value: 0 });
        assert!(u >= Dur::micros(4) && u <= Dur::micros(6), "{u:?}");
    }

    #[test]
    fn partitioning_masks_and_splits() {
        let p = Partitioning::new(4);
        let span = p.span;
        assert_eq!(p.partition_of(0), 0);
        assert_eq!(p.partition_of(span - 1), 0);
        assert_eq!(p.partition_of(span), 1);
        assert_eq!(p.partition_of(4 * span + 5), 3, "clamped to last partition");

        let single = TreeCommand::Query { lo: 10, hi: 20 };
        assert_eq!(p.mask_of(single), 0b0001);
        assert_eq!(p.split(single).len(), 1);

        let cross = TreeCommand::Query { lo: span - 10, hi: span + 10 };
        assert_eq!(p.mask_of(cross), 0b0011);
        let parts = p.split(cross);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], (0, TreeCommand::Query { lo: span - 10, hi: span - 1 }));
        assert_eq!(parts[1], (1, TreeCommand::Query { lo: span, hi: span + 10 }));

        let upd = TreeCommand::Insert { key: span + 1, value: 0 };
        assert_eq!(p.mask_of(upd), 0b0010);
    }

    #[test]
    fn populated_matches_paper_density() {
        let s = TreeService::populated(0, 10_000, 1_000);
        // Evenly spaced: a full-window query over 1/10 of the range
        // matches ~100 keys.
        let (out, _) = {
            TreeService::populated(0, 10_000, 1_000).apply(TreeCommand::Query { lo: 0, hi: 999 })
        };
        assert_eq!(out, TreeOutput::Matched(100));
        assert_eq!(s.tree().len(), 1_000);
    }
}
