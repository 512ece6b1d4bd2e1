//! Seeded fault plans and the injector that executes them.
//!
//! A disaster-time dispatcher must keep producing plans while its own
//! infrastructure degrades: ingestion links drop and reorder events,
//! worker processes die mid-epoch, model pushes fail, checkpoints get
//! truncated on a failing disk. This module makes those conditions a
//! *first-class, reproducible test input*: a [`FaultPlan`] is a seeded,
//! inspectable schedule of faults, and a [`FaultInjector`] hands each
//! fault out exactly once. In-process faults (shard, swap, trainer, WAL)
//! reach the service through its [`FaultHooks`], which the injector
//! implements; boundary faults (ingest offers, snapshot writes,
//! checkpoint deliveries, front-door frames) are drawn and applied by the
//! harnesses, so the service's ingest, snapshot and rollout-submission
//! paths never consult the plan.
//!
//! Determinism is the whole point. The plan is fully decided up front from
//! a seed (via the vendored `rand` shim), every fault is consumed
//! one-shot, and the service runs on a `SimClock` in tests — so a
//! chaos run is a pure function of `(scenario seed, fault seed)` and every
//! failure reproduces exactly. Consuming faults one-shot is also what
//! makes crash recovery testable: when a crashed shard's epoch is replayed
//! after restore, the crash (already consumed) does not re-fire, so the
//! replay is the *masked* — unfaulted — execution of the same epoch.

use mobirescue_serve::{
    poisoned_policy_text, CheckpointPoison, FaultHooks, ShardFault, TrainerFault, WalFault,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A fault a chaos harness applies to one rescue request on its way to
/// `DispatchService::ingest`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestFault {
    /// The event is lost: never delivered.
    Drop,
    /// The event is held back this many epochs before it is delivered
    /// (network delay / out-of-order delivery).
    Delay(u32),
    /// The event is delivered twice (at-least-once delivery upstream).
    Duplicate,
    /// The event's payload is damaged in flight; the service's validation
    /// must reject it with a typed error.
    Corrupt,
}

/// A fault applied by a misbehaving client to one frame offered over the
/// TCP front door (`mobirescue-net`). The plan schedules it like every
/// other fault kind and the network chaos harness applies it at the
/// socket, so a front-door chaos run stays a pure function of its fault
/// seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnFault {
    /// The client writes part of a frame and disconnects. The listener
    /// must treat the torso as a rejected frame, never as a request.
    MidFrameDisconnect,
    /// The frame arrives split across two writes with a pause in between
    /// (a torn write). The listener must reassemble it and respond
    /// normally — torn delivery is not data loss.
    TornWrite,
    /// The client trickles a partial frame header and then stalls
    /// (slow-loris). The listener's frame deadline must close the
    /// connection instead of pinning a handler thread forever.
    SlowLoris,
}

/// How a snapshot text is damaged on write (failing disk / torn write).
/// The embedded position is reduced modulo the snapshot length when
/// applied, so plans stay valid for any snapshot size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotCorruption {
    /// The text is cut short at a plan-chosen byte offset.
    Truncate(u64),
    /// One byte at a plan-chosen offset has a bit flipped.
    BitFlip(u64),
}

/// Probabilities and horizons from which a seeded [`FaultPlan`] is drawn.
#[derive(Debug, Clone)]
pub struct FaultPlanConfig {
    /// Epochs the schedule covers (shard faults are drawn per epoch).
    pub epochs: u32,
    /// Shards the schedule covers.
    pub num_shards: usize,
    /// Request offers covered by ingestion-fault decisions; offers beyond
    /// the horizon pass through clean.
    pub ingest_horizon: usize,
    /// Per-offer probability of [`IngestFault::Drop`].
    pub p_drop: f64,
    /// Per-offer probability of [`IngestFault::Delay`].
    pub p_delay: f64,
    /// Per-offer probability of [`IngestFault::Duplicate`].
    pub p_duplicate: f64,
    /// Per-offer probability of [`IngestFault::Corrupt`].
    pub p_corrupt: f64,
    /// Largest delay, epochs (delays are drawn uniformly in `1..=max`).
    pub max_delay_epochs: u32,
    /// Per-(epoch, shard) probability of [`ShardFault::Stall`].
    pub p_stall: f64,
    /// Per-(epoch, shard) probability of [`ShardFault::Crash`].
    pub p_crash: f64,
    /// Per-(epoch, shard) probability of an injected registry-swap
    /// failure.
    pub p_swap_fail: f64,
    /// Stall magnitude, clock milliseconds (choose it above the service's
    /// epoch deadline to guarantee the fallback trips).
    pub stall_ms: u64,
    /// How many snapshot writes get corrupted (the harness damages the
    /// text `DispatchService::snapshot` returned).
    pub snapshot_corruptions: u32,
    /// How many rollout deliveries get their policy checkpoint replaced
    /// with a poisoned one (kinds cycle NaN → wrong-dims → reward-tank).
    pub poisoned_checkpoints: u32,
    /// Frame offers over the TCP front door covered by connection-fault
    /// decisions; offers beyond the horizon are sent clean.
    pub conn_horizon: usize,
    /// Per-frame probability of [`ConnFault::MidFrameDisconnect`].
    pub p_conn_disconnect: f64,
    /// Per-frame probability of [`ConnFault::TornWrite`].
    pub p_conn_torn: f64,
    /// Per-frame probability of [`ConnFault::SlowLoris`].
    pub p_conn_slowloris: f64,
    /// Epochs covered by trainer-fault decisions (one draw per epoch;
    /// epochs beyond the horizon pass through clean).
    pub trainer_horizon: u32,
    /// Per-epoch probability of [`TrainerFault::Crash`].
    pub p_trainer_crash: f64,
    /// Per-epoch probability of [`TrainerFault::StaleCandidateFlood`].
    pub p_trainer_flood: f64,
    /// Per-epoch probability of [`TrainerFault::TransitionDrop`].
    pub p_trainer_drop: f64,
    /// Candidates per [`TrainerFault::StaleCandidateFlood`] burst.
    pub trainer_flood_len: u32,
    /// Journaled push attempts covered by WAL-fault decisions; attempts
    /// beyond the horizon append clean.
    pub wal_horizon: usize,
    /// Per-attempt probability of [`WalFault::TornAppend`].
    pub p_wal_torn: f64,
    /// Per-attempt probability of [`WalFault::FsyncStall`].
    pub p_wal_stall: f64,
    /// Fsync-stall magnitude, clock milliseconds.
    pub wal_stall_ms: u64,
}

impl FaultPlanConfig {
    /// The standard chaos mix: every fault kind armed with moderate
    /// probability.
    pub fn chaos(epochs: u32, num_shards: usize) -> Self {
        Self {
            epochs,
            num_shards,
            ingest_horizon: 256,
            p_drop: 0.08,
            p_delay: 0.08,
            p_duplicate: 0.06,
            p_corrupt: 0.05,
            max_delay_epochs: 2,
            p_stall: 0.10,
            p_crash: 0.08,
            p_swap_fail: 0.06,
            stall_ms: 50,
            snapshot_corruptions: 0,
            poisoned_checkpoints: 0,
            conn_horizon: 0,
            p_conn_disconnect: 0.0,
            p_conn_torn: 0.0,
            p_conn_slowloris: 0.0,
            trainer_horizon: 0,
            p_trainer_crash: 0.0,
            p_trainer_flood: 0.0,
            p_trainer_drop: 0.0,
            trainer_flood_len: 3,
            wal_horizon: 0,
            p_wal_torn: 0.0,
            p_wal_stall: 0.0,
            wal_stall_ms: 0,
        }
    }

    /// The front-door chaos mix: connection faults armed on top of the
    /// standard [`FaultPlanConfig::chaos`] schedule. The network chaos
    /// harness uses this; in-process chaos keeps `conn_horizon == 0`.
    pub fn net_chaos(epochs: u32, num_shards: usize) -> Self {
        Self {
            conn_horizon: 192,
            p_conn_disconnect: 0.08,
            p_conn_torn: 0.10,
            p_conn_slowloris: 0.05,
            ..Self::chaos(epochs, num_shards)
        }
    }

    /// The trainer chaos mix: *only* trainer faults armed. Shard faults
    /// stay off on purpose — a shard crash rebuilds its dispatcher (losing
    /// the in-flight transition tap), so trainer-loop invariants are
    /// verified against an otherwise-healthy fleet, and shard recovery has
    /// its own suite.
    pub fn trainer_chaos(epochs: u32, num_shards: usize) -> Self {
        Self {
            trainer_horizon: epochs,
            p_trainer_crash: 0.15,
            p_trainer_flood: 0.10,
            p_trainer_drop: 0.15,
            trainer_flood_len: 3,
            ..Self::quiet(epochs, num_shards)
        }
    }

    /// The journal chaos mix: *only* WAL faults armed (torn appends and
    /// fsync stalls; the WAL harness flips journal bits on disk itself,
    /// since a flipped segment poisons every later recovery).
    /// Everything else stays off so journal invariants are verified
    /// against an otherwise-healthy fleet, mirroring
    /// [`FaultPlanConfig::trainer_chaos`].
    pub fn wal_chaos(epochs: u32, num_shards: usize) -> Self {
        Self {
            wal_horizon: 64,
            p_wal_torn: 0.10,
            p_wal_stall: 0.12,
            wal_stall_ms: 15,
            ..Self::quiet(epochs, num_shards)
        }
    }

    /// No faults at all — the control arm of a chaos comparison.
    pub fn quiet(epochs: u32, num_shards: usize) -> Self {
        Self {
            epochs,
            num_shards,
            ingest_horizon: 0,
            p_drop: 0.0,
            p_delay: 0.0,
            p_duplicate: 0.0,
            p_corrupt: 0.0,
            max_delay_epochs: 1,
            p_stall: 0.0,
            p_crash: 0.0,
            p_swap_fail: 0.0,
            stall_ms: 0,
            snapshot_corruptions: 0,
            poisoned_checkpoints: 0,
            conn_horizon: 0,
            p_conn_disconnect: 0.0,
            p_conn_torn: 0.0,
            p_conn_slowloris: 0.0,
            trainer_horizon: 0,
            p_trainer_crash: 0.0,
            p_trainer_flood: 0.0,
            p_trainer_drop: 0.0,
            trainer_flood_len: 0,
            wal_horizon: 0,
            p_wal_torn: 0.0,
            p_wal_stall: 0.0,
            wal_stall_ms: 0,
        }
    }
}

/// What a plan has scheduled, by kind — inspectable before the run so
/// tests can assert "faults fired" against "faults were planned".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScheduledFaults {
    /// Ingestion offers with a fault decision.
    pub ingest: usize,
    /// Scheduled stalls.
    pub stalls: usize,
    /// Scheduled crashes.
    pub crashes: usize,
    /// Scheduled registry-swap failures.
    pub swap_fails: usize,
    /// Scheduled snapshot corruptions.
    pub snapshot_corruptions: usize,
    /// Scheduled checkpoint poisonings.
    pub poisoned_checkpoints: usize,
    /// Front-door frame offers with a connection-fault decision.
    pub conn: usize,
    /// Scheduled trainer faults.
    pub trainer: usize,
    /// Journaled push attempts with a WAL-fault decision.
    pub wal: usize,
}

impl ScheduledFaults {
    /// Whether anything is scheduled at all.
    pub fn any(&self) -> bool {
        self.ingest
            + self.stalls
            + self.crashes
            + self.swap_fails
            + self.snapshot_corruptions
            + self.poisoned_checkpoints
            + self.conn
            + self.trainer
            + self.wal
            > 0
    }
}

/// A deterministic, inspectable schedule of faults.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    ingest: Vec<Option<IngestFault>>,
    shard: BTreeMap<(u32, usize), ShardFault>,
    swap_fail: BTreeSet<(u32, usize)>,
    snapshot: Vec<SnapshotCorruption>,
    poison: Vec<CheckpointPoison>,
    conn: Vec<Option<ConnFault>>,
    trainer: BTreeMap<u32, TrainerFault>,
    wal: Vec<Option<WalFault>>,
}

impl FaultPlan {
    /// A plan with nothing scheduled (compose with the builder methods).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Draws a full schedule from `seed` under `cfg`. The same
    /// `(seed, cfg)` always yields the same plan.
    pub fn generate(seed: u64, cfg: &FaultPlanConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6d72_6663_6861_6f73); // "mrfchaos"
        let ingest = (0..cfg.ingest_horizon)
            .map(|_| {
                let roll: f64 = rng.random();
                let mut acc = cfg.p_drop;
                if roll < acc {
                    return Some(IngestFault::Drop);
                }
                acc += cfg.p_delay;
                if roll < acc {
                    let d = rng.random_range(1..=cfg.max_delay_epochs.max(1));
                    return Some(IngestFault::Delay(d));
                }
                acc += cfg.p_duplicate;
                if roll < acc {
                    return Some(IngestFault::Duplicate);
                }
                acc += cfg.p_corrupt;
                if roll < acc {
                    return Some(IngestFault::Corrupt);
                }
                None
            })
            .collect();
        let mut shard = BTreeMap::new();
        let mut swap_fail = BTreeSet::new();
        for epoch in 0..cfg.epochs {
            for s in 0..cfg.num_shards {
                let roll: f64 = rng.random();
                if roll < cfg.p_crash {
                    shard.insert((epoch, s), ShardFault::Crash);
                } else if roll < cfg.p_crash + cfg.p_stall {
                    shard.insert((epoch, s), ShardFault::Stall(cfg.stall_ms));
                }
                if rng.random_bool(cfg.p_swap_fail) {
                    swap_fail.insert((epoch, s));
                }
            }
        }
        let snapshot = (0..cfg.snapshot_corruptions)
            .map(|_| {
                if rng.random::<bool>() {
                    SnapshotCorruption::Truncate(rng.random::<u64>())
                } else {
                    SnapshotCorruption::BitFlip(rng.random::<u64>())
                }
            })
            .collect();
        // Drawn after every other kind so enabling poisons never perturbs
        // a seed's existing schedule.
        let poison = (0..cfg.poisoned_checkpoints)
            .map(|i| match i % 3 {
                0 => CheckpointPoison::NanWeights,
                1 => CheckpointPoison::WrongDims,
                _ => CheckpointPoison::RewardTank,
            })
            .collect();
        // Connection faults draw last for the same reason: arming the
        // front door must leave a seed's in-process schedule untouched.
        let conn = (0..cfg.conn_horizon)
            .map(|_| {
                let roll: f64 = rng.random();
                let mut acc = cfg.p_conn_disconnect;
                if roll < acc {
                    return Some(ConnFault::MidFrameDisconnect);
                }
                acc += cfg.p_conn_torn;
                if roll < acc {
                    return Some(ConnFault::TornWrite);
                }
                acc += cfg.p_conn_slowloris;
                if roll < acc {
                    return Some(ConnFault::SlowLoris);
                }
                None
            })
            .collect();
        // Trainer faults draw after conn for the same reason again: arming
        // the trainer must leave every earlier schedule for a seed intact.
        let mut trainer = BTreeMap::new();
        for epoch in 0..cfg.trainer_horizon {
            let roll: f64 = rng.random();
            let mut acc = cfg.p_trainer_crash;
            if roll < acc {
                trainer.insert(epoch, TrainerFault::Crash);
                continue;
            }
            acc += cfg.p_trainer_flood;
            if roll < acc {
                trainer.insert(
                    epoch,
                    TrainerFault::StaleCandidateFlood(cfg.trainer_flood_len.max(1)),
                );
                continue;
            }
            acc += cfg.p_trainer_drop;
            if roll < acc {
                trainer.insert(epoch, TrainerFault::TransitionDrop);
            }
        }
        // WAL faults draw after trainer, with their own offer index, so
        // arming the journal leaves every existing seeded plan intact.
        let wal = (0..cfg.wal_horizon)
            .map(|_| {
                let roll: f64 = rng.random();
                let mut acc = cfg.p_wal_torn;
                if roll < acc {
                    return Some(WalFault::TornAppend);
                }
                acc += cfg.p_wal_stall;
                if roll < acc {
                    return Some(WalFault::FsyncStall(cfg.wal_stall_ms));
                }
                None
            })
            .collect();
        Self {
            ingest,
            shard,
            swap_fail,
            snapshot,
            poison,
            conn,
            trainer,
            wal,
        }
    }

    /// Schedules `fault` for the `offer_index`-th request offer.
    pub fn with_ingest_fault(mut self, offer_index: usize, fault: IngestFault) -> Self {
        if self.ingest.len() <= offer_index {
            self.ingest.resize(offer_index + 1, None);
        }
        self.ingest[offer_index] = Some(fault);
        self
    }

    /// Schedules a crash of `shard` at `epoch`.
    pub fn with_crash(mut self, epoch: u32, shard: usize) -> Self {
        self.shard.insert((epoch, shard), ShardFault::Crash);
        self
    }

    /// Schedules an `ms`-millisecond stall of `shard` at `epoch`.
    pub fn with_stall(mut self, epoch: u32, shard: usize, ms: u64) -> Self {
        self.shard.insert((epoch, shard), ShardFault::Stall(ms));
        self
    }

    /// Schedules a registry-swap failure for `shard` at `epoch`.
    pub fn with_swap_failure(mut self, epoch: u32, shard: usize) -> Self {
        self.swap_fail.insert((epoch, shard));
        self
    }

    /// Schedules a corruption of the next not-yet-corrupted snapshot
    /// write.
    pub fn with_snapshot_corruption(mut self, corruption: SnapshotCorruption) -> Self {
        self.snapshot.push(corruption);
        self
    }

    /// Schedules the next rollout submission's policy checkpoint to be
    /// replaced with a poisoned one of the given kind.
    pub fn with_poisoned_checkpoint(mut self, kind: CheckpointPoison) -> Self {
        self.poison.push(kind);
        self
    }

    /// Schedules `fault` for the `offer_index`-th frame sent over the
    /// front door.
    pub fn with_conn_fault(mut self, offer_index: usize, fault: ConnFault) -> Self {
        if self.conn.len() <= offer_index {
            self.conn.resize(offer_index + 1, None);
        }
        self.conn[offer_index] = Some(fault);
        self
    }

    /// Schedules `fault` for the trainer at `epoch`.
    pub fn with_trainer_fault(mut self, epoch: u32, fault: TrainerFault) -> Self {
        self.trainer.insert(epoch, fault);
        self
    }

    /// Schedules `fault` for the `offer_index`-th journaled push attempt.
    pub fn with_wal_fault(mut self, offer_index: usize, fault: WalFault) -> Self {
        if self.wal.len() <= offer_index {
            self.wal.resize(offer_index + 1, None);
        }
        self.wal[offer_index] = Some(fault);
        self
    }

    /// What the plan has scheduled, by kind.
    pub fn scheduled(&self) -> ScheduledFaults {
        ScheduledFaults {
            ingest: self.ingest.iter().filter(|f| f.is_some()).count(),
            stalls: self
                .shard
                .values()
                .filter(|f| matches!(f, ShardFault::Stall(_)))
                .count(),
            crashes: self
                .shard
                .values()
                .filter(|f| matches!(f, ShardFault::Crash))
                .count(),
            swap_fails: self.swap_fail.len(),
            snapshot_corruptions: self.snapshot.len(),
            poisoned_checkpoints: self.poison.len(),
            conn: self.conn.iter().filter(|f| f.is_some()).count(),
            trainer: self.trainer.len(),
            wal: self.wal.iter().filter(|f| f.is_some()).count(),
        }
    }
}

/// Cumulative counts of faults that actually *fired* during a run.
///
/// `delays_released` is incremented by the chaos harness when it finally
/// delivers a held-back event; `delays - delays_released` is therefore
/// the number of delayed events still in flight.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Request offers the harness drew an ingest decision for (one per
    /// offer; retries re-send without drawing).
    pub offers: u64,
    /// Offers dropped.
    pub drops: u64,
    /// Offers deferred.
    pub delays: u64,
    /// Deferred events released into their queue so far.
    pub delays_released: u64,
    /// Offers duplicated.
    pub duplicates: u64,
    /// Offers corrupted.
    pub corrupts: u64,
    /// Shard stalls fired.
    pub stalls: u64,
    /// Shard crashes fired.
    pub crashes: u64,
    /// Registry-swap failures fired.
    pub swap_fails: u64,
    /// Snapshot writes corrupted.
    pub snapshot_corruptions: u64,
    /// Rollout deliveries whose checkpoint was poisoned.
    pub poisoned_checkpoints: u64,
    /// Mid-frame disconnects fired at the front door.
    pub conn_disconnects: u64,
    /// Torn writes fired at the front door.
    pub conn_torn_writes: u64,
    /// Slow-loris stalls fired at the front door.
    pub conn_slow_loris: u64,
    /// Trainer crashes fired.
    pub trainer_crashes: u64,
    /// Stale-candidate floods fired.
    pub trainer_floods: u64,
    /// Transition drops fired.
    pub trainer_drops: u64,
    /// Torn journal appends fired.
    pub wal_torn: u64,
    /// Journal fsync stalls fired.
    pub wal_stalls: u64,
}

impl FaultCounters {
    /// Faults that degrade an epoch when they fire (stall past the
    /// deadline, or a failed swap).
    pub fn degrading(&self) -> u64 {
        self.stalls + self.swap_fails
    }

    /// Whether any fault fired at all.
    pub fn any(&self) -> bool {
        self.drops
            + self.delays
            + self.duplicates
            + self.corrupts
            + self.stalls
            + self.crashes
            + self.swap_fails
            + self.snapshot_corruptions
            + self.poisoned_checkpoints
            + self.conn_disconnects
            + self.conn_torn_writes
            + self.conn_slow_loris
            + self.trainer_crashes
            + self.trainer_floods
            + self.trainer_drops
            + self.wal_torn
            + self.wal_stalls
            > 0
    }
}

/// Applies a [`FaultPlan`] — at the service's [`FaultHooks`] and at the
/// harnesses' boundary draws — each fault exactly once, with cumulative
/// fired-fault counters.
#[derive(Debug)]
pub struct FaultInjector {
    scheduled: ScheduledFaults,
    state: Mutex<InjectorState>,
}

/// The schedule still to be consumed, the per-kind offer cursors, and
/// the faults fired so far.
#[derive(Debug)]
struct InjectorState {
    plan: FaultPlan,
    ingest_idx: usize,
    conn_idx: usize,
    wal_idx: usize,
    fired: FaultCounters,
}

impl FaultInjector {
    /// An injector executing `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        Self {
            scheduled: plan.scheduled(),
            state: Mutex::new(InjectorState {
                plan,
                ingest_idx: 0,
                conn_idx: 0,
                wal_idx: 0,
                fired: FaultCounters::default(),
            }),
        }
    }

    /// An injector executing the schedule drawn from `(seed, cfg)`.
    pub fn from_seed(seed: u64, cfg: &FaultPlanConfig) -> Self {
        Self::new(FaultPlan::generate(seed, cfg))
    }

    /// What the underlying plan scheduled (fixed at construction).
    pub fn scheduled(&self) -> ScheduledFaults {
        self.scheduled
    }

    fn state(&self) -> MutexGuard<'_, InjectorState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The fault (if any) for the next request offer. Counts the offer and
    /// the fired fault.
    pub fn next_ingest_fault(&self) -> Option<IngestFault> {
        let mut s = self.state();
        let fault = s.plan.ingest.get(s.ingest_idx).copied().flatten();
        s.ingest_idx += 1;
        let c = &mut s.fired;
        c.offers += 1;
        match fault {
            Some(IngestFault::Drop) => c.drops += 1,
            Some(IngestFault::Delay(_)) => c.delays += 1,
            Some(IngestFault::Duplicate) => c.duplicates += 1,
            Some(IngestFault::Corrupt) => c.corrupts += 1,
            None => {}
        }
        fault
    }

    /// The fault (if any) for the next frame offered over the front door.
    /// Consumes the offer index and counts the fired fault. Connection
    /// offers advance independently of ingest offers: the front-door
    /// harness perturbs the wire without shifting the in-process schedule.
    pub fn next_conn_fault(&self) -> Option<ConnFault> {
        let mut s = self.state();
        let fault = s.plan.conn.get(s.conn_idx).copied().flatten();
        s.conn_idx += 1;
        let c = &mut s.fired;
        match fault {
            Some(ConnFault::MidFrameDisconnect) => c.conn_disconnects += 1,
            Some(ConnFault::TornWrite) => c.conn_torn_writes += 1,
            Some(ConnFault::SlowLoris) => c.conn_slow_loris += 1,
            None => {}
        }
        fault
    }

    /// Notes that a held-back event was delivered.
    pub(crate) fn note_delay_released(&self) {
        self.state().fired.delays_released += 1;
    }

    /// Damages `text` according to the next scheduled snapshot corruption,
    /// or returns it untouched when none is scheduled.
    pub fn corrupt_snapshot(&self, text: String) -> String {
        let mut s = self.state();
        let Some(c) = pop_front(&mut s.plan.snapshot) else {
            return text;
        };
        s.fired.snapshot_corruptions += 1;
        apply_corruption(text, c)
    }

    /// Replaces a rollout submission's policy checkpoint text with the
    /// next scheduled poison (consumed one-shot), or passes the text
    /// through untouched when none is scheduled.
    pub fn poison_checkpoint(&self, policy_text: Option<String>) -> Option<String> {
        let mut s = self.state();
        let Some(kind) = pop_front(&mut s.plan.poison) else {
            return policy_text;
        };
        s.fired.poisoned_checkpoints += 1;
        Some(poisoned_policy_text(kind))
    }

    /// The faults fired so far.
    pub fn counters(&self) -> FaultCounters {
        self.state().fired
    }
}

impl FaultHooks for FaultInjector {
    /// Takes (consumes) the shard fault scheduled for `(epoch, shard)`, if
    /// any. One-shot: a crashed epoch's replay sees no fault.
    fn shard_fault(&self, epoch: u32, shard: usize) -> Option<ShardFault> {
        let mut s = self.state();
        let fault = s.plan.shard.remove(&(epoch, shard));
        match fault {
            Some(ShardFault::Stall(_)) => s.fired.stalls += 1,
            Some(ShardFault::Crash) => s.fired.crashes += 1,
            None => {}
        }
        fault
    }

    /// Takes (consumes) the registry-swap failure scheduled for
    /// `(epoch, shard)`, if any.
    fn swap_failure(&self, epoch: u32, shard: usize) -> bool {
        let mut s = self.state();
        let fired = s.plan.swap_fail.remove(&(epoch, shard));
        if fired {
            s.fired.swap_fails += 1;
        }
        fired
    }

    /// Takes (consumes) the trainer fault scheduled for `epoch`, if any.
    /// One-shot, like every other fault kind.
    fn trainer_fault(&self, epoch: u32) -> Option<TrainerFault> {
        let mut s = self.state();
        let fault = s.plan.trainer.remove(&epoch);
        match fault {
            Some(TrainerFault::Crash) => s.fired.trainer_crashes += 1,
            Some(TrainerFault::StaleCandidateFlood(_)) => s.fired.trainer_floods += 1,
            Some(TrainerFault::TransitionDrop) => s.fired.trainer_drops += 1,
            None => {}
        }
        fault
    }

    /// The fault (if any) for the next journaled push attempt. WAL
    /// offers advance on their own index: arming the journal never
    /// shifts the ingest or conn schedules, and vice versa.
    fn wal_fault(&self) -> Option<WalFault> {
        let mut s = self.state();
        let fault = s.plan.wal.get(s.wal_idx).copied().flatten();
        s.wal_idx += 1;
        match fault {
            Some(WalFault::TornAppend) => s.fired.wal_torn += 1,
            Some(WalFault::FsyncStall(_)) => s.fired.wal_stalls += 1,
            None => {}
        }
        fault
    }
}

/// Removes and returns the first element, in schedule order.
fn pop_front<T>(v: &mut Vec<T>) -> Option<T> {
    (!v.is_empty()).then(|| v.remove(0))
}

/// Applies one corruption to a snapshot text. Snapshot formats are pure
/// ASCII, so byte surgery stays valid UTF-8; `from_utf8_lossy` guards the
/// general case anyway.
fn apply_corruption(text: String, c: SnapshotCorruption) -> String {
    let mut bytes = text.into_bytes();
    if bytes.is_empty() {
        return String::new();
    }
    match c {
        SnapshotCorruption::Truncate(at) => {
            // Keep at least one byte, lose at least one.
            let keep = 1 + (at as usize) % bytes.len().max(2).saturating_sub(1);
            bytes.truncate(keep.min(bytes.len() - 1));
        }
        SnapshotCorruption::BitFlip(at) => {
            let i = (at as usize) % bytes.len();
            bytes[i] ^= 0x10;
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobirescue_core::rl_dispatch::FEATURE_DIM;

    #[test]
    fn plans_are_deterministic_and_inspectable() {
        let cfg = FaultPlanConfig::chaos(8, 2);
        let a = FaultPlan::generate(42, &cfg);
        let b = FaultPlan::generate(42, &cfg);
        assert_eq!(a.scheduled(), b.scheduled());
        assert_eq!(a.ingest, b.ingest);
        assert_eq!(a.shard, b.shard);
        let c = FaultPlan::generate(43, &cfg);
        assert_ne!(
            (a.ingest.clone(), a.shard.clone(), a.swap_fail.clone()),
            (c.ingest.clone(), c.shard.clone(), c.swap_fail.clone()),
            "different seeds draw different schedules"
        );
        let quiet = FaultPlan::generate(42, &FaultPlanConfig::quiet(8, 2));
        assert!(!quiet.scheduled().any());
    }

    #[test]
    fn injector_consumes_faults_one_shot() {
        let plan = FaultPlan::empty()
            .with_crash(3, 0)
            .with_stall(4, 1, 500)
            .with_swap_failure(2, 0)
            .with_ingest_fault(1, IngestFault::Drop);
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.next_ingest_fault(), None);
        assert_eq!(inj.next_ingest_fault(), Some(IngestFault::Drop));
        assert_eq!(inj.next_ingest_fault(), None, "beyond the horizon");
        assert_eq!(inj.shard_fault(3, 0), Some(ShardFault::Crash));
        assert_eq!(inj.shard_fault(3, 0), None, "crash fires once");
        assert_eq!(inj.shard_fault(4, 1), Some(ShardFault::Stall(500)));
        assert!(inj.swap_failure(2, 0));
        assert!(!inj.swap_failure(2, 0), "swap failure fires once");
        let c = inj.counters();
        assert_eq!(c.offers, 3);
        assert_eq!(c.drops, 1);
        assert_eq!(c.crashes, 1);
        assert_eq!(c.stalls, 1);
        assert_eq!(c.swap_fails, 1);
        assert!(c.any());
    }

    #[test]
    fn poisoned_checkpoints_consume_one_shot_and_build_what_they_claim() {
        use mobirescue_rl::persist::mlp_from_text;
        let plan = FaultPlan::empty()
            .with_poisoned_checkpoint(CheckpointPoison::NanWeights)
            .with_poisoned_checkpoint(CheckpointPoison::WrongDims)
            .with_poisoned_checkpoint(CheckpointPoison::RewardTank);
        assert_eq!(plan.scheduled().poisoned_checkpoints, 3);
        let inj = FaultInjector::new(plan);

        let nan = inj.poison_checkpoint(Some("good".into())).expect("text");
        let net = mlp_from_text(&nan).expect("NaN poison still parses");
        assert!(net.first_non_finite_param().is_some());

        let wrong = inj.poison_checkpoint(None).expect("poison ignores None");
        let net = mlp_from_text(&wrong).expect("parses");
        assert_eq!(net.input_dim(), FEATURE_DIM + 1);

        let tank = inj.poison_checkpoint(Some("good".into())).expect("text");
        let net = mlp_from_text(&tank).expect("parses");
        assert_eq!((net.input_dim(), net.output_dim()), (FEATURE_DIM, 1));
        assert!(net.first_non_finite_param().is_none());
        // Stand-by (flag set) out-scores any zone candidate (flag clear).
        let mut standby = [0.0; FEATURE_DIM];
        standby[FEATURE_DIM - 1] = 1.0;
        let mut zone = [0.9; FEATURE_DIM];
        zone[FEATURE_DIM - 1] = 0.0;
        assert!(net.predict(&standby)[0] > net.predict(&zone)[0] + 100.0);

        // Exhausted: submissions pass through untouched.
        assert_eq!(
            inj.poison_checkpoint(Some("good".into())).as_deref(),
            Some("good")
        );
        assert_eq!(inj.counters().poisoned_checkpoints, 3);
    }

    #[test]
    fn generated_poisons_cycle_and_leave_seeded_plans_untouched() {
        let base_cfg = FaultPlanConfig::chaos(6, 2);
        let with_poison = FaultPlanConfig {
            poisoned_checkpoints: 4,
            ..base_cfg.clone()
        };
        let a = FaultPlan::generate(7, &base_cfg);
        let b = FaultPlan::generate(7, &with_poison);
        assert_eq!(a.ingest, b.ingest, "poisons must not perturb other draws");
        assert_eq!(a.shard, b.shard);
        assert_eq!(a.swap_fail, b.swap_fail);
        assert_eq!(
            b.poison,
            vec![
                CheckpointPoison::NanWeights,
                CheckpointPoison::WrongDims,
                CheckpointPoison::RewardTank,
                CheckpointPoison::NanWeights,
            ]
        );
    }

    #[test]
    fn conn_faults_consume_one_shot_with_their_own_index() {
        let plan = FaultPlan::empty()
            .with_conn_fault(1, ConnFault::TornWrite)
            .with_conn_fault(2, ConnFault::MidFrameDisconnect)
            .with_conn_fault(3, ConnFault::SlowLoris)
            .with_ingest_fault(0, IngestFault::Drop);
        assert_eq!(plan.scheduled().conn, 3);
        assert!(plan.scheduled().any());
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.next_conn_fault(), None);
        assert_eq!(inj.next_conn_fault(), Some(ConnFault::TornWrite));
        assert_eq!(inj.next_conn_fault(), Some(ConnFault::MidFrameDisconnect));
        assert_eq!(inj.next_conn_fault(), Some(ConnFault::SlowLoris));
        assert_eq!(inj.next_conn_fault(), None, "beyond the horizon");
        // The conn index did not consume the ingest schedule.
        assert_eq!(inj.next_ingest_fault(), Some(IngestFault::Drop));
        let c = inj.counters();
        assert_eq!(c.conn_disconnects, 1);
        assert_eq!(c.conn_torn_writes, 1);
        assert_eq!(c.conn_slow_loris, 1);
        assert!(c.any());
    }

    #[test]
    fn conn_draws_leave_seeded_plans_untouched() {
        // Arming the front door must not perturb the in-process schedule a
        // seed already draws — conn faults are drawn after everything else.
        let base_cfg = FaultPlanConfig::chaos(6, 2);
        let with_conn = FaultPlanConfig::net_chaos(6, 2);
        let a = FaultPlan::generate(7, &base_cfg);
        let b = FaultPlan::generate(7, &with_conn);
        assert_eq!(a.ingest, b.ingest, "conn draws must not perturb ingest");
        assert_eq!(a.shard, b.shard);
        assert_eq!(a.swap_fail, b.swap_fail);
        assert_eq!(a.scheduled().conn, 0);
        assert!(b.scheduled().conn > 0, "net chaos schedules conn faults");
        // And the conn schedule itself is deterministic per seed.
        let c = FaultPlan::generate(7, &with_conn);
        assert_eq!(b.conn, c.conn);
    }

    #[test]
    fn trainer_faults_consume_one_shot() {
        let plan = FaultPlan::empty()
            .with_trainer_fault(1, TrainerFault::Crash)
            .with_trainer_fault(2, TrainerFault::StaleCandidateFlood(4))
            .with_trainer_fault(3, TrainerFault::TransitionDrop);
        assert_eq!(plan.scheduled().trainer, 3);
        assert!(plan.scheduled().any());
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.trainer_fault(0), None);
        assert_eq!(inj.trainer_fault(1), Some(TrainerFault::Crash));
        assert_eq!(inj.trainer_fault(1), None, "crash fires once");
        assert_eq!(
            inj.trainer_fault(2),
            Some(TrainerFault::StaleCandidateFlood(4))
        );
        assert_eq!(inj.trainer_fault(3), Some(TrainerFault::TransitionDrop));
        let c = inj.counters();
        assert_eq!(c.trainer_crashes, 1);
        assert_eq!(c.trainer_floods, 1);
        assert_eq!(c.trainer_drops, 1);
        assert!(c.any());
    }

    #[test]
    fn trainer_draws_leave_seeded_plans_untouched() {
        // Arming the trainer must not perturb anything a seed already
        // draws — trainer faults are drawn after every other kind.
        let base_cfg = FaultPlanConfig::net_chaos(6, 2);
        let with_trainer = FaultPlanConfig {
            trainer_horizon: 6,
            p_trainer_crash: 0.3,
            p_trainer_flood: 0.3,
            p_trainer_drop: 0.3,
            ..base_cfg.clone()
        };
        let a = FaultPlan::generate(7, &base_cfg);
        let b = FaultPlan::generate(7, &with_trainer);
        assert_eq!(a.ingest, b.ingest, "trainer draws must not perturb ingest");
        assert_eq!(a.shard, b.shard);
        assert_eq!(a.swap_fail, b.swap_fail);
        assert_eq!(a.conn, b.conn, "trainer draws must not perturb conn");
        assert_eq!(a.scheduled().trainer, 0);
        assert!(b.scheduled().trainer > 0, "horizon 6 at p=0.9 draws faults");
        // And the trainer schedule itself is deterministic per seed.
        let c = FaultPlan::generate(7, &with_trainer);
        assert_eq!(b.trainer, c.trainer);
        // The dedicated mix schedules only trainer faults.
        let solo = FaultPlan::generate(7, &FaultPlanConfig::trainer_chaos(8, 2));
        let sched = solo.scheduled();
        assert_eq!(
            (
                sched.ingest,
                sched.stalls,
                sched.crashes,
                sched.swap_fails,
                sched.conn
            ),
            (0, 0, 0, 0, 0),
            "trainer chaos arms no other fault kind"
        );
    }

    #[test]
    fn wal_faults_consume_one_shot_with_their_own_index() {
        let plan = FaultPlan::empty()
            .with_wal_fault(1, WalFault::TornAppend)
            .with_wal_fault(3, WalFault::FsyncStall(7))
            .with_ingest_fault(0, IngestFault::Drop)
            .with_conn_fault(0, ConnFault::TornWrite);
        assert_eq!(plan.scheduled().wal, 2);
        assert!(plan.scheduled().any());
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.wal_fault(), None);
        assert_eq!(inj.wal_fault(), Some(WalFault::TornAppend));
        assert_eq!(inj.wal_fault(), None);
        assert_eq!(inj.wal_fault(), Some(WalFault::FsyncStall(7)));
        assert_eq!(inj.wal_fault(), None, "beyond the horizon");
        // The WAL index consumed neither the ingest nor the conn schedule.
        assert_eq!(inj.next_ingest_fault(), Some(IngestFault::Drop));
        assert_eq!(inj.next_conn_fault(), Some(ConnFault::TornWrite));
        let c = inj.counters();
        assert_eq!(c.wal_torn, 1);
        assert_eq!(c.wal_stalls, 1);
        assert!(c.any());
    }

    #[test]
    fn wal_draws_leave_seeded_plans_untouched() {
        // Arming the journal must not perturb anything a seed already
        // draws — WAL faults are drawn after every other kind.
        let base_cfg = FaultPlanConfig {
            trainer_horizon: 6,
            p_trainer_crash: 0.2,
            p_trainer_flood: 0.2,
            p_trainer_drop: 0.2,
            ..FaultPlanConfig::net_chaos(6, 2)
        };
        let with_wal = FaultPlanConfig {
            wal_horizon: 64,
            p_wal_torn: 0.3,
            p_wal_stall: 0.3,
            wal_stall_ms: 10,
            ..base_cfg.clone()
        };
        let a = FaultPlan::generate(7, &base_cfg);
        let b = FaultPlan::generate(7, &with_wal);
        assert_eq!(a.ingest, b.ingest, "wal draws must not perturb ingest");
        assert_eq!(a.shard, b.shard);
        assert_eq!(a.swap_fail, b.swap_fail);
        assert_eq!(a.conn, b.conn, "wal draws must not perturb conn");
        assert_eq!(a.trainer, b.trainer, "wal draws must not perturb trainer");
        assert_eq!(a.scheduled().wal, 0);
        assert!(b.scheduled().wal > 0, "horizon 64 at p=0.6 draws faults");
        // And the WAL schedule itself is deterministic per seed.
        let c = FaultPlan::generate(7, &with_wal);
        assert_eq!(b.wal, c.wal);
        // The dedicated mix schedules only WAL faults.
        let solo = FaultPlan::generate(7, &FaultPlanConfig::wal_chaos(8, 2));
        let sched = solo.scheduled();
        assert_eq!(
            (
                sched.ingest,
                sched.stalls,
                sched.crashes,
                sched.swap_fails,
                sched.conn,
                sched.trainer
            ),
            (0, 0, 0, 0, 0, 0),
            "wal chaos arms no other fault kind"
        );
        assert!(sched.wal > 0);
    }

    #[test]
    fn snapshot_corruption_damages_text() {
        let plan = FaultPlan::empty()
            .with_snapshot_corruption(SnapshotCorruption::BitFlip(7))
            .with_snapshot_corruption(SnapshotCorruption::Truncate(5));
        let inj = FaultInjector::new(plan);
        let original = "mrserve 1\nepochs 3\nend\nsum 0123456789abcdef\n".to_owned();
        let flipped = inj.corrupt_snapshot(original.clone());
        assert_ne!(flipped, original);
        assert_eq!(flipped.len(), original.len());
        let truncated = inj.corrupt_snapshot(original.clone());
        assert!(truncated.len() < original.len());
        // Plan exhausted: further writes pass through untouched.
        assert_eq!(inj.corrupt_snapshot(original.clone()), original);
        assert_eq!(inj.counters().snapshot_corruptions, 2);
    }
}
