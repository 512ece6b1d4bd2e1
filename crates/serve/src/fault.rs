//! The service's fault hooks: the one seam through which a chaos harness
//! reaches inside a running [`crate::DispatchService`].
//!
//! A disaster-time dispatcher must keep producing plans while its own
//! infrastructure degrades: worker processes die mid-epoch, model pushes
//! fail, the trainer wedges, the journal's disk tears a write or stalls
//! under fsync. None of those can be caused from outside the service, so
//! the service asks a [`FaultHooks`] implementation at exactly four
//! points whether one should happen now. Every method defaults to "no
//! fault", and `ServeConfig::faults` is `None` in production, so the
//! hooks cost one branch on a `None`.
//!
//! Which faults exist in a run and when they fire — seeded plans,
//! one-shot consumption, fired-fault counters — is the business of the
//! dev-only `mobirescue-chaos` crate, which implements this trait. Faults
//! at the service's boundary (lost or damaged offers, corrupted snapshot
//! writes, poisoned checkpoints) never pass through here: the harnesses
//! apply them to what they hand the service.

/// A fault applied to one shard worker at one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFault {
    /// The dispatcher stalls for this many clock milliseconds mid-epoch
    /// (GC pause, page fault storm) — with a configured epoch deadline
    /// this trips the fallback to the heuristic dispatcher.
    Stall(u64),
    /// The worker thread dies mid-epoch without replying; the service must
    /// restart it from the last boundary checkpoint and replay.
    Crash,
}

/// A fault applied to the online trainer (`crate::trainer`) at one epoch
/// boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainerFault {
    /// The trainer dies at the boundary; the service must respawn it from
    /// its last boundary checkpoint, and the recovered run must stay
    /// bit-identical to an unfaulted twin (checkpoints are taken every
    /// boundary, so a boundary crash loses nothing).
    Crash,
    /// A wedged trainer replays an old queue: a burst of this many stale,
    /// reward-tanking candidates floods the rollout pipeline. The gates
    /// must keep every one of them away from primary dispatch.
    StaleCandidateFlood(u32),
    /// This epoch's tapped transitions are lost in transit before reaching
    /// the trainer queue — they never count as offered, so transition
    /// conservation (`offered == accepted + shed`) must still hold.
    TransitionDrop,
}

/// A fault applied to the durable ingest journal (`crate::wal`) at one
/// journaled push attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalFault {
    /// The process "dies" mid-append: a torn prefix of the record hits
    /// disk and the entry is never journaled. The service must surface
    /// the typed `WalError::TornTail` — the request is not admitted and
    /// must never be acked.
    TornAppend,
    /// The device stalls under fsync (a failing disk's write cache
    /// draining) for this many clock milliseconds. The append blocks for
    /// the stall and then completes normally.
    FsyncStall(u64),
}

/// Where the service asks whether an in-process fault fires now. Each
/// method is called once per hook point and defaults to "no fault"; an
/// implementation that hands a fault out should hand it out once, so the
/// replay of a crashed epoch runs unfaulted.
pub trait FaultHooks: Send + Sync {
    /// The fault (if any) for `shard`'s worker as it starts `epoch`.
    fn shard_fault(&self, _epoch: u32, _shard: usize) -> Option<ShardFault> {
        None
    }

    /// Whether `shard`'s registry hot-swap check at `epoch` fails (the
    /// registry is unreachable; the epoch is served degraded).
    fn swap_failure(&self, _epoch: u32, _shard: usize) -> bool {
        false
    }

    /// The fault (if any) for the online trainer at the `epoch` boundary.
    fn trainer_fault(&self, _epoch: u32) -> Option<TrainerFault> {
        None
    }

    /// The fault (if any) for the next journaled push attempt.
    fn wal_fault(&self) -> Option<WalFault> {
        None
    }
}

impl std::fmt::Debug for dyn FaultHooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("dyn FaultHooks")
    }
}
