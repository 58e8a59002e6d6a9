//! Client ↔ server messages of the SMR layer.

use abcast::MsgId;
use ringpaxos::value::Command;

/// A direct request in the non-replicated client-server baseline.
#[derive(Clone, Debug)]
pub struct CsRequest {
    /// Command id.
    pub id: MsgId,
    /// The command itself (a [`crate::service::StoredCommand`]).
    pub cmd: Command,
}

/// A reply from a server or replica to the issuing client.
#[derive(Clone, Copy, Debug)]
pub struct SmrResponse {
    /// Command id being answered.
    pub id: MsgId,
    /// The responding partition (0 when unpartitioned).
    pub partition: u32,
}
