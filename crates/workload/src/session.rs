//! Session retry machinery shared by every driver: request deadlines
//! with bounded exponential backoff ([`RetryPolicy`]), and sticky
//! leader re-lookup by rotating resubmissions across ring members
//! ([`Rotation`]).
//!
//! The [`crate::table::SessionTable`] owns the deadlines: it keeps them
//! on a [`simnet::wheel::TimerWheel`] drained by one periodic timer and
//! calls its driver's `resubmit` on a blown one, or gives the request up
//! once `max_attempts` are spent. Drivers of a service with a leader
//! keep a [`Rotation`], remember where each request went ([`Sent`]) and
//! report its answer or its blown deadline.

use simnet::ids::NodeId;
use simnet::time::Dur;

/// Retry/backoff configuration of one client tier. The defaults are
/// the constants the P-SMR client shipped with.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// First resubmission deadline; doubles per attempt up to `cap`.
    pub base: Dur,
    /// Ceiling of the exponential backoff.
    pub cap: Dur,
    /// Retry-check granularity (one periodic timer, not one per
    /// command).
    pub tick: Dur,
    /// Give up on a request after this many resubmissions. Replicas
    /// dedup by id, so an abandoned command that still executes is
    /// harmless (its late response is ignored as stale).
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            base: Dur::millis(200),
            cap: Dur::millis(1600),
            tick: Dur::millis(100),
            max_attempts: 10,
        }
    }
}

impl RetryPolicy {
    /// Backoff before attempt `attempts + 1`: `base << attempts`,
    /// capped at `cap`.
    pub fn backoff(&self, attempts: u32) -> Dur {
        let d = self.base * (1u64 << attempts.min(10));
        if d > self.cap {
            self.cap
        } else {
            d
        }
    }
}

/// Where a client of a ring sends its requests: the known coordinator
/// first (cursor 0), then round-robin over the ring members — any live
/// one relays a proposal to the coordinator of its current view, so
/// rotating past a dead leader re-looks the new one up.
///
/// The cursor is *sticky*: it stays put on success, so traffic after a
/// failover skips the dead leader instead of re-paying a timeout per
/// request. It moves past a target at most once, and only on evidence
/// that the target fails: a request remembers where it went
/// ([`Sent`]), and its blown deadline moves the cursor only if the
/// cursor still points there and nothing sent there later has been
/// answered. A crash times out every request in flight at once;
/// counting each of them would spin the cursor through the members,
/// dead leader included, and leave it anywhere. And a request lost for
/// another reason (a proposal the ring dropped) times out at a target
/// that answers the requests around it: moving on would send the
/// traffic back towards a dead leader.
#[derive(Clone, Debug)]
pub struct Rotation {
    coordinator: NodeId,
    members: Vec<NodeId>,
    cursor: usize,
    /// Requests sent so far: the `seq` of the last [`Sent`].
    sent: u64,
    /// Highest `seq` answered at the current cursor.
    answered: u64,
}

/// Where one request went: the rotation's cursor and the request's
/// place in the rotation's send order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sent {
    cursor: usize,
    seq: u64,
}

impl Rotation {
    /// A rotation starting at `coordinator`, then over `members`.
    pub fn new(coordinator: NodeId, members: Vec<NodeId>) -> Rotation {
        Rotation { coordinator, members, cursor: 0, sent: 0, answered: 0 }
    }

    /// The submission point for a request sent now, and what the request
    /// keeps for [`Rotation::answered`] / [`Rotation::failed`].
    pub fn pick(&mut self) -> (NodeId, Sent) {
        let dst = if self.cursor == 0 || self.members.is_empty() {
            self.coordinator
        } else {
            self.members[(self.cursor - 1) % self.members.len()]
        };
        self.sent += 1;
        (dst, Sent { cursor: self.cursor, seq: self.sent })
    }

    /// The request `sent` was answered: its target works.
    pub fn answered(&mut self, sent: Sent) {
        if sent.cursor == self.cursor {
            self.answered = self.answered.max(sent.seq);
        }
    }

    /// The request `sent` blew its deadline: move past its target,
    /// unless the cursor has already moved or a later request to the
    /// same target was answered.
    pub fn failed(&mut self, sent: Sent) {
        if sent.cursor == self.cursor && sent.seq > self.answered {
            self.cursor += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_matches_the_old_psmr_constants() {
        let p = RetryPolicy::default();
        assert_eq!(p.base, Dur::millis(200));
        assert_eq!(p.cap, Dur::millis(1600));
        assert_eq!(p.tick, Dur::millis(100));
        assert_eq!(p.max_attempts, 10);
    }

    #[test]
    fn backoff_doubles_to_the_cap() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(0), Dur::millis(200));
        assert_eq!(p.backoff(1), Dur::millis(400));
        assert_eq!(p.backoff(2), Dur::millis(800));
        assert_eq!(p.backoff(3), Dur::millis(1600));
        assert_eq!(p.backoff(9), Dur::millis(1600));
        assert_eq!(p.backoff(40), Dur::millis(1600), "shift clamped, no overflow");
    }

    #[test]
    fn rotation_starts_at_the_coordinator_and_wraps_members() {
        let coord = NodeId(9);
        let mut r = Rotation::new(coord, vec![NodeId(1), NodeId(2), NodeId(3)]);
        let mut seen = Vec::new();
        for _ in 0..5 {
            let (dst, sent) = r.pick();
            seen.push(dst);
            r.failed(sent);
        }
        assert_eq!(seen, [coord, NodeId(1), NodeId(2), NodeId(3), NodeId(1)]);
        let mut lone = Rotation::new(coord, Vec::new());
        assert_eq!(lone.pick().0, coord, "no members: stay on coordinator");
    }

    #[test]
    fn a_burst_of_timeouts_moves_the_cursor_once() {
        let mut r = Rotation::new(NodeId(9), vec![NodeId(1), NodeId(2), NodeId(9)]);
        // A crash: every request in flight to the coordinator times out.
        let burst: Vec<Sent> = (0..1000).map(|_| r.pick().1).collect();
        for &sent in &burst {
            r.failed(sent);
        }
        let (dst, sent) = r.pick();
        assert_eq!(dst, NodeId(1), "one step past the failed target");
        // An answer leaves the cursor where it is.
        r.answered(sent);
        assert_eq!(r.pick().0, NodeId(1));
    }

    #[test]
    fn a_lost_request_at_a_target_that_answers_does_not_move_the_cursor() {
        let mut r = Rotation::new(NodeId(9), vec![NodeId(1), NodeId(2)]);
        let lost = r.pick().1;
        let later = r.pick().1;
        r.answered(later);
        r.failed(lost);
        assert_eq!(r.pick().0, NodeId(9), "the target answered a request sent after the lost one");
        // Had nothing later been answered, the timeout would move it.
        let next = r.pick().1;
        r.failed(next);
        assert_eq!(r.pick().0, NodeId(1));
    }
}
