//! The replicated-service abstraction and the command registry.
//!
//! Replicas execute commands against a deterministic [`Service`]; the
//! same trait powers the stand-alone (client-server) baseline, plain
//! state-machine replication, speculative replicas, and partitioned
//! deployments.
//!
//! Command *contents* travel through a shared [`Registry`]: Ring Paxos
//! models payloads as sized-but-opaque values on the wire, so clients
//! register the structured command under its [`MsgId`] and replicas look
//! it up at delivery. This is simulation plumbing, not a hidden channel —
//! the modelled network carries the command's full byte size. Because the
//! registry stands in for bytes a replica has *received*, a lookup at
//! delivery must never miss: an entry lives until its client is done with
//! it **and** every replica of its partitions has confirmed it, however
//! late (a replica repairing a lost 2A delivers after the client has its
//! answer from the other one).

use std::collections::HashMap;
use std::sync::Arc;
use std::sync::Mutex;

use abcast::MsgId;
use btree::{Partitioning, TreeCommand, TreeService};
use ringpaxos::value::ALL_PARTITIONS;
use simnet::ids::NodeId;
use simnet::time::Dur;

/// A deterministic state machine the SMR layer can replicate.
pub trait Service: Send {
    /// Command type.
    type Command: Clone + Send + Sync + 'static;

    /// Executes one command, returning its modelled execution time.
    /// Implementations must be deterministic.
    fn execute(&mut self, cmd: &Self::Command) -> Dur;

    /// Whether `cmd` modifies state (updates need undo records; queries
    /// do not).
    fn is_update(cmd: &Self::Command) -> bool;

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

/// A registered command: its operations (each tagged with the partitions
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

/// A registered command and who still needs it.
struct Entry<C> {
    cmd: StoredCommand<C>,
    /// Replica confirmations still owed.
    owed: u32,
    /// The client has its answer (or gave up).
    client_done: bool,
}

struct Inner<C> {
    map: HashMap<MsgId, Entry<C>>,
    /// Replicas per partition, and one bit per partition deployed: a
    /// command owes `replicas_per` confirmations per partition it touches.
    replicas_per: u32,
    partitions: u32,
}

/// Shared command store keyed by message id.
pub struct Registry<C>(Arc<Mutex<Inner<C>>>);

impl<C> Clone for Registry<C> {
    fn clone(&self) -> Self {
        Registry(self.0.clone())
    }
}

impl<C> Default for Registry<C> {
    fn default() -> Self {
        Registry::replicated(1, 0)
    }
}

impl<C> Registry<C> {
    /// A registry no replica confirms to (the client-server baseline):
    /// an entry goes when its client is done.
    pub fn new() -> Registry<C> {
        Registry::default()
    }

    /// A registry for `n_partitions` partitions (1 when unpartitioned) of
    /// `replicas_per` replicas each, every one of which calls
    /// [`Registry::confirmed`] once per command it delivers.
    pub fn replicated(n_partitions: u32, replicas_per: u32) -> Registry<C> {
        let partitions = 1u32.checked_shl(n_partitions).map_or(u32::MAX, |b| b - 1);
        Registry(Arc::new(Mutex::new(Inner { map: HashMap::new(), replicas_per, partitions })))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<C>> {
        self.0.lock().expect("registry poisoned")
    }

    /// Registers `cmd` under `id`.
    pub fn put(&self, id: MsgId, cmd: StoredCommand<C>) {
        let mut inner = self.lock();
        let owed = inner.replicas_per * (cmd.mask & inner.partitions).count_ones();
        inner.map.insert(id, Entry { cmd, owed, client_done: false });
    }

    /// A replica has confirmed (delivered and processed) `id`.
    pub fn confirmed(&self, id: MsgId) {
        let mut inner = self.lock();
        let Some(e) = inner.map.get_mut(&id) else { return };
        e.owed = e.owed.saturating_sub(1);
        if e.owed == 0 && e.client_done {
            inner.map.remove(&id);
        }
    }

    /// The client is done with `id` (its last reply arrived, or it gave
    /// up). The entry stays while replicas still owe confirmations.
    pub fn finish(&self, id: MsgId) {
        let mut inner = self.lock();
        let Some(e) = inner.map.get_mut(&id) else { return };
        e.client_done = true;
        if e.owed == 0 {
            inner.map.remove(&id);
        }
    }

    /// Entries whose client is done but which some replica never
    /// confirmed: at quiescence, proposals that were never delivered (or
    /// not everywhere). They are kept — a late delivery would need them —
    /// so this is the number to watch for a leak.
    pub fn orphans(&self) -> usize {
        self.lock().map.values().filter(|e| e.client_done).count()
    }

    /// Number of registered commands.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().map.is_empty()
    }
}

impl<C: Clone> Registry<C> {
    /// Fetches the command registered under `id`.
    pub fn get(&self, id: MsgId) -> Option<StoredCommand<C>> {
        self.lock().map.get(&id).map(|e| e.cmd.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stored(mask: u32) -> StoredCommand<TreeCommand> {
        StoredCommand {
            ops: vec![(mask, TreeCommand::Delete { key: 1 })],
            client: NodeId(3),
            mask,
            reply_bytes: 256,
        }
    }

    #[test]
    fn registry_roundtrip() {
        let r: Registry<TreeCommand> = Registry::new();
        let id = MsgId(42);
        r.put(id, stored(0b01));
        let got = r.get(id).expect("present");
        assert_eq!(got.ops.len(), 1);
        assert_eq!(got.client, NodeId(3));
        r.finish(id);
        assert!(r.get(id).is_none());
        assert!(r.is_empty());
    }

    /// An entry outlives its client until every replica of the partitions
    /// it touches has confirmed it — in either order.
    #[test]
    fn entry_lives_until_client_and_every_replica_are_done() {
        let r: Registry<TreeCommand> = Registry::replicated(4, 2);
        let (late, early, never) = (MsgId(1), MsgId(2), MsgId(3));
        // Two partitions × two replicas owe four confirmations.
        r.put(late, stored(0b0101));
        r.confirmed(late);
        r.finish(late);
        assert_eq!(r.orphans(), 1, "the client is done, three replicas are not");
        for _ in 0..2 {
            r.confirmed(late);
            assert!(r.get(late).is_some(), "a replica still to deliver must find it");
        }
        r.confirmed(late);
        assert!(r.get(late).is_none());

        r.put(early, stored(0b0010));
        r.confirmed(early);
        r.confirmed(early);
        assert!(r.get(early).is_some(), "the client may still retry it");
        r.finish(early);
        assert!(r.get(early).is_none());

        // Abandoned before any delivery: kept, and counted.
        r.put(never, stored(0b1000));
        r.finish(never);
        assert_eq!((r.len(), r.orphans()), (1, 1));

        // Unpartitioned: `ALL_PARTITIONS` is one partition's worth.
        let full: Registry<TreeCommand> = Registry::replicated(1, 3);
        full.put(late, stored(u32::MAX));
        full.finish(late);
        for owed in (0..3).rev() {
            assert!(full.get(late).is_some());
            full.confirmed(late);
            assert_eq!(full.len(), usize::from(owed > 0));
        }
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
