//! Service snapshots: the durability extension of [`Service`].
//!
//! A [`Snapshot`] service can externalize its whole state as a cloneable
//! blob with a modelled on-disk size. The recovery subsystem checkpoints
//! that blob periodically (paying the disk write through the simulated
//! device) and restores it on a process restart; a recovering replica
//! then needs only the decided suffix above the checkpoint watermark
//! instead of a full replay. Implemented by the paper's B⁺-tree service
//! and by [`NullService`] (pure ordering benchmarks: no state at all).
//!
//! [`ServiceApp`] bridges any [`Snapshot`] service onto
//! [`recovery::RecoveredApp`], the hook recovery-enabled learners drive:
//! it derives a deterministic command from each delivered value's
//! identity, so every incarnation of every learner reaches the same
//! state from the same delivery sequence.

use std::any::Any;
use std::sync::Arc;

use btree::{TreeCommand, TreeService};
use recovery::RecoveredApp;
use simnet::time::Dur;

use crate::service::Service;

/// A [`Service`] whose full state can be checkpointed and restored.
pub trait Snapshot: Service {
    /// The externalized state. `Default` is the empty (fresh) state.
    type State: Clone + Default + Send + Sync + 'static;

    /// Captures the current state.
    fn snapshot(&self) -> Self::State;

    /// Replaces the current state with `state` (discarding any undo log —
    /// a restore is by definition a committed point).
    fn restore(&mut self, state: &Self::State);

    /// Modelled on-disk size of `state`, in bytes — what a checkpoint
    /// write is charged and what a state transfer puts on the wire.
    fn state_bytes(state: &Self::State) -> u64;
}

impl Snapshot for TreeService {
    /// The tree's entries in key order.
    type State = Vec<(u64, u64)>;

    fn snapshot(&self) -> Vec<(u64, u64)> {
        self.tree().range(0, u64::MAX)
    }

    fn restore(&mut self, state: &Vec<(u64, u64)>) {
        let mut fresh = TreeService::new();
        for &(k, v) in state {
            fresh.apply(TreeCommand::Insert { key: k, value: v });
        }
        fresh.commit();
        *self = fresh;
    }

    fn state_bytes(state: &Vec<(u64, u64)>) -> u64 {
        // 16 bytes per entry plus a page-sized header.
        state.len() as u64 * 16 + 4096
    }
}

/// The null service: commands carry no state change and a fixed
/// execution cost. The paper's pure-ordering experiments (ch. 3) are
/// exactly this service replicated.
#[derive(Clone, Copy, Debug)]
pub struct NullService {
    /// Modelled execution cost per command.
    pub op_cost: Dur,
}

impl Default for NullService {
    fn default() -> NullService {
        NullService { op_cost: Dur::ZERO }
    }
}

impl Service for NullService {
    type Command = u64;

    fn execute(&mut self, _cmd: &u64) -> Dur {
        self.op_cost
    }

    fn is_update(_cmd: &u64) -> bool {
        false
    }

    fn commit(&mut self, _n: usize) {}

    fn rollback(&mut self, _n: usize) {}

    fn undo_depth(&self) -> usize {
        0
    }

    fn digest(&self) -> u64 {
        0
    }
}

impl Snapshot for NullService {
    type State = ();

    fn snapshot(&self) {}

    fn restore(&mut self, _state: &()) {}

    fn state_bytes(_state: &()) -> u64 {
        // The checkpoint still persists its metadata footer.
        64
    }
}

/// Bridges a [`Snapshot`] service onto [`recovery::RecoveredApp`]: each
/// delivered value is turned into a deterministic command via `derive`
/// and executed-and-committed in delivery order.
pub struct ServiceApp<S: Snapshot> {
    service: S,
    derive: fn(proposer: u64, seq: u64, bytes: u32) -> S::Command,
}

impl<S: Snapshot> ServiceApp<S> {
    /// Creates a bridge over `service`.
    pub fn new(
        service: S,
        derive: fn(proposer: u64, seq: u64, bytes: u32) -> S::Command,
    ) -> ServiceApp<S> {
        ServiceApp { service, derive }
    }

    /// The wrapped service (for inspection in tests).
    pub fn service(&self) -> &S {
        &self.service
    }
}

impl ServiceApp<TreeService> {
    /// The B⁺-tree bridge: value `(proposer, seq)` inserts a key spread
    /// over the keyspace by a Fibonacci-hash of its identity — a
    /// deterministic, collision-scattered update per delivered value.
    pub fn tree() -> ServiceApp<TreeService> {
        ServiceApp::new(TreeService::new(), |p, s, _b| TreeCommand::Insert {
            key: (p << 40 | s).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            value: s,
        })
    }
}

impl ServiceApp<NullService> {
    /// The stateless bridge.
    pub fn null() -> ServiceApp<NullService> {
        ServiceApp::new(NullService::default(), |p, s, _b| p << 40 | s)
    }
}

impl<S: Snapshot> RecoveredApp for ServiceApp<S> {
    fn apply(&mut self, proposer: u64, seq: u64, bytes: u32) {
        let cmd = (self.derive)(proposer, seq, bytes);
        self.service.execute(&cmd);
        self.service.commit(usize::from(S::is_update(&cmd)));
    }

    fn snapshot(&mut self) -> (u64, Option<Arc<dyn Any + Send + Sync>>) {
        let state = self.service.snapshot();
        (S::state_bytes(&state), Some(Arc::new(state)))
    }

    fn restore(&mut self, state: Option<&Arc<dyn Any + Send + Sync>>) {
        match state {
            Some(blob) => {
                let state = blob
                    .downcast_ref::<S::State>()
                    .expect("checkpoint blob must match the service's state type");
                self.service.restore(state);
            }
            None => self.service.restore(&S::State::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_snapshot_roundtrip() {
        let mut s = TreeService::new();
        for i in 0..100u64 {
            s.apply(TreeCommand::Insert { key: i * 7, value: i });
        }
        s.commit();
        let snap = s.snapshot();
        assert_eq!(snap.len(), 100);
        assert!(TreeService::state_bytes(&snap) > 100 * 16);
        let mut restored = TreeService::new();
        Snapshot::restore(&mut restored, &snap);
        assert_eq!(restored.snapshot(), snap);
        assert_eq!(restored.undo_depth(), 0, "restore lands at a committed point");
    }

    #[test]
    fn restore_discards_divergent_state() {
        let mut a = TreeService::new();
        a.apply(TreeCommand::Insert { key: 1, value: 1 });
        let snap = a.snapshot();
        a.apply(TreeCommand::Insert { key: 2, value: 2 });
        Snapshot::restore(&mut a, &snap);
        assert_eq!(a.tree().len(), 1);
        assert_eq!(a.tree().get(1), Some(1));
        assert_eq!(a.tree().get(2), None);
    }

    #[test]
    fn null_service_snapshots_are_metadata_only() {
        let mut n = NullService::default();
        assert_eq!(NullService::state_bytes(&()), 64);
        Snapshot::restore(&mut n, &());
        assert_eq!(<NullService as Service>::execute(&mut n, &7), Dur::ZERO);
        assert!(!<NullService as Service>::is_update(&7));
    }

    #[test]
    fn service_app_applies_deterministically_and_restores() {
        let mut a = ServiceApp::tree();
        let mut b = ServiceApp::tree();
        for seq in 0..50 {
            a.apply(3, seq, 512);
            b.apply(3, seq, 512);
        }
        let (bytes_a, blob_a) = RecoveredApp::snapshot(&mut a);
        let (bytes_b, _) = RecoveredApp::snapshot(&mut b);
        assert_eq!(bytes_a, bytes_b);
        assert_eq!(a.service().tree().len(), 50);

        // A fresh incarnation restored from a's blob equals a.
        let mut c = ServiceApp::tree();
        RecoveredApp::restore(&mut c, blob_a.as_ref());
        assert_eq!(c.service().snapshot(), a.service().snapshot());

        // restore(None) is the empty state.
        RecoveredApp::restore(&mut c, None);
        assert_eq!(c.service().tree().len(), 0);

        // The null bridge snapshots to metadata only.
        let mut n = ServiceApp::null();
        n.apply(1, 1, 1);
        let (bytes, blob) = RecoveredApp::snapshot(&mut n);
        assert_eq!(bytes, 64);
        assert!(blob.is_some());
    }
}
