//! Commands of the parallel-service evaluation (§6.5.2) and the
//! client-side group mapping (§6.3.2).
//!
//! The service state is statically divided into `k` *conflict domains*,
//! one per worker thread; the client proxy maps every command to the
//! multicast groups of the domains it accesses. Two commands are
//! *dependent* iff their domain sets intersect (each touched domain is
//! written), *independent* otherwise — the definition of §6.1: commands
//! conflict when they access a common variable and at least one updates
//! it.

use std::rc::Rc;

use ringpaxos::value::Command;
use simnet::ids::NodeId;
use simnet::time::Dur;

/// One command of the parallel service: a write to one key in every
/// conflict domain it touches.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PCommand {
    /// Conflict domains accessed, sorted and distinct. `groups.len() == 1`
    /// is an independent command; more is a dependent (multi-group) one.
    pub groups: Vec<u8>,
    /// `(key, value)` written per touched domain (same length and order
    /// as `groups`).
    pub writes: Vec<(u64, u64)>,
    /// Modelled service time of the command.
    pub cost: Dur,
}

impl PCommand {
    /// Whether the command synchronizes several workers (§6.3.3).
    pub fn is_dependent(&self) -> bool {
        self.groups.len() > 1
    }

    /// Bitmask of the touched domains.
    pub fn group_mask(&self) -> u32 {
        self.groups.iter().fold(0u32, |m, &g| m | 1 << g)
    }

    /// Whether `self` and `other` conflict (shared domain; every access
    /// is a write in this service).
    pub fn conflicts_with(&self, other: &PCommand) -> bool {
        self.group_mask() & other.group_mask() != 0
    }
}

/// A client's command as it rides in the ordering layer's batches:
/// contents plus routing/reply metadata.
#[derive(Clone, Debug)]
pub struct PStored {
    /// The command itself.
    pub cmd: PCommand,
    /// Issuing client.
    pub client: NodeId,
    /// Reply size in bytes.
    pub reply_bytes: u32,
}

impl PStored {
    /// The command `cmd` is, on a ring of this service.
    ///
    /// # Panics
    /// Panics if `cmd` is not a `PStored`: a ring carries the commands
    /// of the service its replicas run.
    pub fn of(cmd: &Command) -> Rc<PStored> {
        cmd.clone().downcast().expect("a ring carries its service's commands")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmd(groups: &[u8]) -> PCommand {
        PCommand {
            groups: groups.to_vec(),
            writes: groups.iter().map(|&g| (g as u64, 1)).collect(),
            cost: Dur::micros(100),
        }
    }

    #[test]
    fn dependence_is_group_count() {
        assert!(!cmd(&[2]).is_dependent());
        assert!(cmd(&[0, 3]).is_dependent());
    }

    #[test]
    fn group_mask_sets_one_bit_per_domain() {
        assert_eq!(cmd(&[0, 3, 5]).group_mask(), 0b101001);
        assert_eq!(cmd(&[7]).group_mask(), 1 << 7);
    }

    #[test]
    fn conflict_iff_domains_intersect() {
        assert!(cmd(&[0, 1]).conflicts_with(&cmd(&[1, 2])));
        assert!(!cmd(&[0, 1]).conflicts_with(&cmd(&[2, 3])));
        assert!(cmd(&[4]).conflicts_with(&cmd(&[4])));
    }
}
