//! Application values and consensus batches.
//!
//! Ring Paxos executes consensus on *batches*: the coordinator packs many
//! application values into one packet (8 KB for M-Ring Paxos, 32 KB for
//! U-Ring Paxos) and runs one consensus instance per packet (§3.5.2).
//!
//! # Cached routing
//!
//! A batch travels every link of the ring, and each hop must know how
//! many payload bytes it actually carries (a value's payload is omitted
//! on hops where the receiver has already seen it — the rule that makes
//! U-Ring Paxos ~90 % efficient, Table 3.2). Computing that per hop from
//! scratch costs O(batch × ring) lookups of each proposer's ring
//! position. [`BatchData`] therefore precomputes, once at pack time:
//!
//! * the batch's **total payload bytes** ([`BatchData::payload_bytes`],
//!   read constantly by M-Ring's wire-size calculations), and
//! * a **per-position suffix table** of payload bytes
//!   ([`BatchData::bytes_needed_beyond`]), which turns U-Ring's per-hop
//!   byte calculation into a single table read.
//!
//! A [`Batch`] is an `Rc<BatchData>`: cloning is a reference-count bump,
//! and the cached tables are shared by every process the batch passes
//! through.
//!
//! # The instance's shape
//!
//! A batch is the whole Paxos value of its instance, shape included, so
//! every copy of it — the 2A, an acceptor's vote, a repair, a catch-up
//! chunk, a takeover's Phase 1B — describes the instance alike. An
//! M-Ring batch is single-mask (§4.2.2): [`BatchData::mask`] is its
//! values' partition mask, and every partition's for an empty batch. A
//! Multi-Ring skip (ch. 5) is an empty batch that stands for
//! [`BatchData::skip_weight`] logical instances ([`BatchData::skip`]).
//!
//! # Commands ride in the batch
//!
//! On a ring that orders a service's commands, every value travels with
//! its [`Command`], as Ring Paxos multicasts each value inside its 2A: a
//! proposal carries it to the coordinator, the batch holds one per value
//! ([`BatchData::with_commands`]), and whatever carries the batch — the
//! 2A, a repair, a catch-up chunk, a vote, a Phase 1B — carries the
//! commands with it. A learner therefore holds what it delivers. A ring
//! with no service carries none. The handle is opaque to the ring and
//! costs nothing on the wire: wire sizes come from [`Value::bytes`]
//! alone.

use std::any::Any;
use std::ops::Deref;
use std::rc::Rc;

use abcast::MsgId;
use simnet::ids::NodeId;
use simnet::time::Time;

/// One application value travelling through the broadcast layer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Value {
    /// Globally unique message id.
    pub id: MsgId,
    /// Node that proposed the value (records latency, receives dedup).
    pub proposer: NodeId,
    /// Per-proposer sequence number, used to deduplicate after failover.
    pub seq: u64,
    /// Application payload size in bytes.
    pub bytes: u32,
    /// When the proposer submitted the value (for latency measurement).
    pub submitted: Time,
    /// Partition bitmask for state partitioning (ch. 4 §4.2.2): which
    /// partitions the command accesses. `ALL_PARTITIONS` for classic
    /// (unpartitioned) broadcast.
    pub mask: u32,
}

/// Mask meaning "every partition" (classic atomic broadcast).
pub const ALL_PARTITIONS: u32 = u32::MAX;

/// The service command a value carries (module docs, "Commands ride in
/// the batch"): a shared handle the ring moves and never looks into.
pub type Command = Rc<dyn Any>;

/// An immutable, cheaply clonable batch of values — the `v-val` of one
/// consensus instance — with routing tables precomputed at pack time.
pub type Batch = Rc<BatchData>;

/// The values of one consensus instance plus cached routing data.
/// Dereferences to `[Value]`, so a batch iterates and indexes like a
/// slice of values.
#[derive(Debug)]
pub struct BatchData {
    values: Vec<Value>,
    /// Logical instances this batch stands for beyond itself: 0 for a
    /// batch of values, the skipped count for a skip (module docs).
    skip: u64,
    /// Total application payload bytes (cached `Σ values[i].bytes`).
    total_bytes: u64,
    /// `suffix[p]` = payload bytes of values whose proposer sits at a
    /// ring position ≥ `p` (positions ≥ 1 only; position 0 and off-ring
    /// proposers' bytes, which every hop carries, are the rest of
    /// `total_bytes`). Empty for batches packed without a ring (M-Ring,
    /// skips): every hop then carries the full payload, which is
    /// M-Ring's actual behaviour.
    suffix: Box<[u64]>,
    /// One command per value, in value order, or none on a ring with no
    /// service (module docs).
    commands: Box<[Command]>,
}

impl BatchData {
    /// Packs `values` without ring-position data (M-Ring Paxos batches,
    /// tests). Total bytes are still cached.
    pub fn new(values: Vec<Value>) -> Batch {
        BatchData::with_commands(values, Vec::new())
    }

    /// Packs `values`, each with its command (`commands[i]` is
    /// `values[i]`'s), or with none when `commands` is empty.
    ///
    /// # Panics
    /// Panics when some values have a command and others do not.
    pub fn with_commands(values: Vec<Value>, commands: Vec<Command>) -> Batch {
        assert!(
            commands.is_empty() || commands.len() == values.len(),
            "a batch carries a command for every value or for none"
        );
        let total_bytes = values.iter().map(|v| v.bytes as u64).sum();
        let commands = commands.into_boxed_slice();
        Rc::new(BatchData { values, skip: 0, total_bytes, suffix: Box::default(), commands })
    }

    /// The empty batch (a U-Ring takeover's no-op fill, tests).
    pub fn empty() -> Batch {
        BatchData::new(Vec::new())
    }

    /// A Multi-Ring skip: no values, standing for `weight` logical
    /// instances in one consensus execution (module docs).
    pub fn skip(weight: u64) -> Batch {
        Rc::new(BatchData {
            values: Vec::new(),
            skip: weight,
            total_bytes: 0,
            suffix: Box::default(),
            commands: Box::default(),
        })
    }

    /// Packs `values` for a U-Ring deployment, caching each value's
    /// proposer position on `ring` as a per-position byte-suffix table.
    /// Pack time is O(batch × ring); every subsequent
    /// [`BatchData::bytes_needed_beyond`] is O(1).
    pub fn pack(values: Vec<Value>, ring: &[NodeId]) -> Batch {
        let mut total_bytes = 0u64;
        // per_pos[p] = payload bytes proposed from ring position p.
        let mut per_pos = vec![0u64; ring.len() + 1];
        for v in &values {
            total_bytes += v.bytes as u64;
            match ring.iter().position(|&n| n == v.proposer) {
                // Position 0 (the coordinator) and off-ring proposers:
                // every forwarding hop needs the payload.
                Some(0) | None => {}
                Some(p) => per_pos[p] += v.bytes as u64,
            }
        }
        // suffix[p] = Σ per_pos[p..]
        let mut suffix = per_pos;
        for p in (0..suffix.len().saturating_sub(1)).rev() {
            suffix[p] += suffix[p + 1];
        }
        let suffix = suffix.into_boxed_slice();
        Rc::new(BatchData { values, skip: 0, total_bytes, suffix, commands: Box::default() })
    }

    /// A batch of the values `keep` selects, by index, with their
    /// commands: the same batch, shared, when it selects them all.
    pub fn retain(batch: &Batch, keep: impl Fn(usize) -> bool) -> Batch {
        if (0..batch.len()).all(&keep) {
            return batch.clone();
        }
        let kept = || (0..batch.len()).filter(|&i| keep(i));
        let values = kept().map(|i| batch.values[i]).collect();
        let commands = if batch.commands.is_empty() {
            Vec::new()
        } else {
            kept().map(|i| batch.commands[i].clone()).collect()
        };
        BatchData::with_commands(values, commands)
    }

    /// The values in the batch.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The skip weight: 0 unless the batch is a skip
    /// ([`BatchData::skip`]).
    pub fn skip_weight(&self) -> u64 {
        self.skip
    }

    /// The partition mask of the batch's values (an M-Ring batch is
    /// single-mask); [`ALL_PARTITIONS`] for an empty batch.
    pub fn mask(&self) -> u32 {
        self.values.first().map_or(ALL_PARTITIONS, |v| v.mask)
    }

    /// Total application payload bytes (cached).
    pub fn payload_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// The values with their commands, in batch order; nothing when
    /// the batch carries no commands.
    pub fn commands(&self) -> impl Iterator<Item = (&Value, &Command)> {
        self.values.iter().zip(self.commands.iter())
    }

    /// Payload bytes a hop into ring position `next_pos` must carry for
    /// values whose proposer sits *at or beyond* that position — i.e.
    /// receivers that have not yet seen those payloads on the value's way
    /// to the coordinator — plus the always-carried bytes. O(1) from the
    /// pack-time table.
    pub fn bytes_needed_beyond(&self, next_pos: usize) -> u64 {
        let positioned = self.suffix.first().copied().unwrap_or(0);
        let suffixed = if next_pos + 1 < self.suffix.len() { self.suffix[next_pos + 1] } else { 0 };
        self.total_bytes - positioned + suffixed
    }
}

impl Deref for BatchData {
    type Target = [Value];
    fn deref(&self) -> &[Value] {
        &self.values
    }
}

/// Total application payload bytes in a batch (cached field read).
pub fn batch_bytes(batch: &Batch) -> u64 {
    batch.payload_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(id: u64, proposer: usize, bytes: u32) -> Value {
        Value {
            id: MsgId(id),
            proposer: NodeId(proposer),
            seq: id,
            bytes,
            submitted: Time::ZERO,
            mask: ALL_PARTITIONS,
        }
    }

    #[test]
    fn batch_bytes_sums_payloads() {
        let b: Batch = BatchData::new(vec![val(1, 0, 100), val(2, 0, 156)]);
        assert_eq!(batch_bytes(&b), 256);
        assert_eq!(b.payload_bytes(), 256);
    }

    #[test]
    fn deref_iterates_values() {
        let b = BatchData::new(vec![val(1, 0, 10), val(2, 1, 20)]);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert_eq!(b.iter().map(|v| v.bytes).sum::<u32>(), 30);
        assert!(BatchData::empty().is_empty());
    }

    #[test]
    fn the_batch_carries_its_instances_shape() {
        assert_eq!(BatchData::empty().mask(), ALL_PARTITIONS);
        assert_eq!(BatchData::empty().skip_weight(), 0);
        let one = Value { mask: 0b10, ..val(1, 0, 100) };
        assert_eq!(BatchData::new(vec![one, one]).mask(), 0b10);
        let skip = BatchData::skip(17);
        assert_eq!(skip.skip_weight(), 17);
        assert_eq!(skip.mask(), ALL_PARTITIONS);
        assert!(skip.is_empty() && skip.payload_bytes() == 0);
        let empty = BatchData::empty();
        assert_ne!(skip.skip_weight(), empty.skip_weight(), "a skip is not the empty batch");
    }

    #[test]
    fn suffix_table_matches_linear_scan() {
        let ring: Vec<NodeId> = (0..5).map(NodeId).collect();
        // Proposers at positions 0 (coordinator), 2, 4, and one off-ring.
        let values = vec![val(1, 0, 100), val(2, 2, 200), val(3, 4, 400), val(4, 99, 800)];
        let b = BatchData::pack(values.clone(), &ring);
        for next_pos in 0..ring.len() {
            // Reference: the original O(batch × ring) rule.
            let want: u64 = values
                .iter()
                .map(|v| {
                    let p = ring.iter().position(|&n| n == v.proposer);
                    let needed = match p {
                        Some(0) | None => true,
                        Some(p) => next_pos < p,
                    };
                    if needed {
                        v.bytes as u64
                    } else {
                        0
                    }
                })
                .sum();
            assert_eq!(b.bytes_needed_beyond(next_pos), want, "next_pos {next_pos}");
        }
    }

    #[test]
    fn a_batch_carries_one_command_per_value_and_keeps_them_when_cut() {
        let (a, b): (Command, Command) = (Rc::new(1u32), Rc::new(2u32));
        let batch = BatchData::with_commands(vec![val(1, 0, 10), val(2, 0, 20)], vec![a, b]);
        let carried: Vec<(u64, u32)> =
            batch.commands().map(|(v, c)| (v.id.0, *c.downcast_ref::<u32>().unwrap())).collect();
        assert_eq!(carried, [(1, 1), (2, 2)]);
        let all = BatchData::retain(&batch, |_| true);
        assert!(Rc::ptr_eq(&all, &batch), "keeping every value shares the batch");
        let second = BatchData::retain(&batch, |i| i == 1);
        assert_eq!(second.payload_bytes(), 20);
        let carried: Vec<u64> = second.commands().map(|(v, _)| v.id.0).collect();
        assert_eq!(carried, [2]);
        assert!(Rc::ptr_eq(
            second.commands().next().unwrap().1,
            batch.commands().nth(1).unwrap().1
        ));
        assert_eq!(BatchData::new(vec![val(1, 0, 10)]).commands().count(), 0);
        // A batch that carries no commands is no larger than before they
        // rode in it: nine words.
        assert!(std::mem::size_of::<BatchData>() <= 72);
    }

    #[test]
    #[should_panic(expected = "every value or for none")]
    fn a_value_without_its_command_cannot_join_a_batch_with_commands() {
        let a: Command = Rc::new(1u32);
        BatchData::with_commands(vec![val(1, 0, 10), val(2, 0, 20)], vec![a]);
    }

    #[test]
    fn unindexed_batch_carries_everything() {
        let b = BatchData::new(vec![val(1, 2, 100), val(2, 3, 200)]);
        for pos in 0..4 {
            assert_eq!(b.bytes_needed_beyond(pos), 300);
        }
    }
}
