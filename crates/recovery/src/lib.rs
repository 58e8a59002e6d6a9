//! # recovery — durable logging, checkpointing, and replica catch-up
//!
//! The paper's performance story is only complete with its recovery
//! story (§3.3.5, §3.5.5, ch. 5): acceptors log votes to disk before
//! acknowledging them, replicas checkpoint service state, and a
//! recovering replica catches up from a checkpoint plus the decided
//! suffix instead of replaying history. This crate is that subsystem,
//! shared by U-Ring and M-Ring Paxos and by the SMR replica layer.
//!
//! # The durability model
//!
//! The simulator models a process restart as [`Sim::replace_actor`]:
//! the old actor (and all its in-memory state) is discarded and a fresh
//! one starts. Anything that must survive therefore lives *outside* the
//! actor, in a [`stable::StableHandle`] — the logical contents of the
//! node's disk, shared (via `Rc`) between successive incarnations of
//! the process on that node. The *timing* of getting bytes into it is
//! still paid through the simulated disk ([`Ctx::disk_write`]: one
//! 390 µs operation plus transfer, the §3.5.5 calibration of ~270 Mbps
//! for synchronous 32 KB writes): state enters the stable store only
//! when the corresponding `DiskDone` completion fires, so a crash
//! between issuing a write and its completion loses exactly what a real
//! crash would.
//!
//! # Pieces
//!
//! * [`wal::VoteLog`] — the acceptor vote log, the only code that turns
//!   a vote into a disk write in either ring. It writes ahead, in groups
//!   clocked by the device: every vote that queued while the log's last
//!   write was in flight goes out in the next one (§3.5.5).
//!   [`wal::StorageMode`] says whether an acceptor keeps one.
//! * [`checkpoint::Checkpointer`] — periodic replica checkpoints: every
//!   `interval` delivered instances the replica snapshots its service
//!   state (an opaque, byte-sized blob), writes it through the disk,
//!   and — once durable — trims its vote log and decided-batch cache
//!   below the checkpoint watermark, the same role the
//!   `paxos::window::Window` GC watermark plays for in-memory state.
//! * [`catchup::DecidedCache`] — the decided-instance suffix a process
//!   retains (above its checkpoint watermark) to serve catch-up
//!   requests from restarted peers.
//! * [`app::RecoveredApp`] — the service-state hook: what to snapshot,
//!   how to restore it, and how delivered values mutate it. The `core`
//!   crate bridges its `Service`/`Snapshot` traits onto this.
//! * [`learner::LearnerRecovery`] — one learner's checkpoint and
//!   catch-up state machine, shared by both rings and `Sim`-free.
//!   (Crash schedules: `simnet::fault::FaultPlan`.)
//!
//! [`Sim::replace_actor`]: simnet::sim::Sim::replace_actor
//! [`Ctx::disk_write`]: simnet::sim::Ctx::disk_write

pub mod app;
pub mod catchup;
pub mod checkpoint;
pub mod learner;
pub mod stable;
pub mod wal;

pub use app::{NullApp, RecoveredApp};
pub use catchup::{DecidedCache, CATCHUP_CHUNK, CATCHUP_RETRY};
pub use checkpoint::Checkpointer;
pub use learner::{CatchupStep, LearnerRecovery};
pub use stable::{stable, Checkpoint, StableHandle, StableState};
pub use wal::{StorageMode, VoteLog};
