//! The dispatch service: sharded runner, ingestion front, epoch barrier,
//! snapshot/restore, and the recovery machinery exercised by the chaos
//! harness (bounded ingestion retry, shard crash-restart from the last
//! boundary checkpoint).

use crate::clock::{Clock, ClockTimeSource};
use crate::error::ServeError;
use crate::event::Event;
use crate::fault::{FaultHooks, TrainerFault, WalFault};
use crate::metrics::{LatencyHistogram, MetricsSnapshot, ShardMetrics};
use crate::queue::{BoundedQueue, ShedPolicy};
use crate::registry::{ModelBundle, ModelRegistry};
use crate::rollout::{
    self, reward_tank_policy_text, CandidateBundle, RolloutConfig, RolloutCounters, RolloutError,
    RolloutInFlight, RolloutStatus,
};
use crate::shard::{
    spawn_shard, RolloutDirective, ShardCmd, ShardReply, ShardSpec, ShardStatus, SwapError,
};
use crate::trainer::{Trainer, TrainerConfig, TrainerObs, TrainerStatus};
use crate::wal::{FsyncPolicy, Wal, WalConfig, WalEntry, WalError};
use mobirescue_core::predictor::RequestPredictor;
use mobirescue_core::rl_dispatch::RlDispatchConfig;
use mobirescue_core::scenario::Scenario;
use mobirescue_obs::{Counter, Histogram, Level, ObsSnapshot, Registry, TimeSource};
use mobirescue_rl::persist::{mlp_from_text, mlp_to_text};
use mobirescue_rl::PairTransition;
use mobirescue_roadnet::graph::SegmentId;
use mobirescue_sim::{open_snapshot, seal_snapshot};
use mobirescue_sim::{EpochReport, RequestSpec, SimConfig, World};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Configuration of a [`DispatchService`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Independent city shards hosted on the thread pool.
    pub num_shards: usize,
    /// Capacity of each shard's request ingest queue.
    pub request_queue_capacity: usize,
    /// Capacity of the shared weather/road-damage advisory queue.
    pub advisory_queue_capacity: usize,
    /// Per-shard simulation settings (the dispatch period is the paper's
    /// 5-minute tick).
    pub sim: SimConfig,
    /// Dispatcher settings shared by all shards.
    pub rl: RlDispatchConfig,
    /// In-process fault hooks for chaos testing (`None` in production:
    /// no hook fires). The service asks them only about faults a caller
    /// cannot cause — shard stalls and crashes, swap failures, trainer
    /// faults, WAL appends — and never on the ingest, snapshot or
    /// rollout-submission paths: boundary faults are the chaos harness's
    /// to apply.
    pub faults: Option<Arc<dyn FaultHooks>>,
    /// Per-epoch dispatch compute budget, ms. A shard whose primary
    /// dispatcher exceeds it discards the late plan and replans with the
    /// heuristic fallback (a degraded epoch). `None` disables the
    /// deadline.
    pub epoch_deadline_ms: Option<u64>,
    /// Restart a dead shard worker from its last boundary checkpoint and
    /// replay the epoch's drained events, instead of failing the epoch.
    /// Costs one shard snapshot per epoch.
    pub auto_recover: bool,
    /// Observability registry the service publishes into. `None` (the
    /// default) gives the service a private registry, reachable through
    /// [`DispatchService::obs`]. Supplying a registry is for embedding the
    /// service in a host that scrapes one place — never share it with a
    /// *live* second service: counters are get-or-create by name, and
    /// [`DispatchService::restore`] overwrites them from the snapshot.
    pub obs: Option<Arc<Registry>>,
    /// Gate parameters for [`DispatchService::submit_rollout`]'s guarded
    /// promotion pipeline (admission → shadow → canary → watch).
    pub rollout: RolloutConfig,
    /// Online training loop. `Some` makes every shard tap its dispatch
    /// transitions into a background trainer whose candidate checkpoints
    /// feed [`DispatchService::submit_rollout`]; `None` (the default)
    /// disables training entirely.
    pub trainer: Option<TrainerConfig>,
    /// Durable write-ahead ingest journal. `Some` journals every request
    /// push attempt *before* it reaches a queue — so an `Ok(true)` from
    /// [`DispatchService::ingest`] (and therefore a net-layer `Ack`)
    /// means the request survives a process kill; `None` (the default)
    /// keeps ingestion memory-only.
    pub wal: Option<WalConfig>,
}

impl ServeConfig {
    /// A service over `sim` with one shard and moderate queue bounds.
    pub fn new(sim: SimConfig) -> Self {
        Self {
            num_shards: 1,
            request_queue_capacity: 1_024,
            advisory_queue_capacity: 256,
            sim,
            rl: RlDispatchConfig::default(),
            faults: None,
            epoch_deadline_ms: None,
            auto_recover: false,
            obs: None,
            rollout: RolloutConfig::default(),
            trainer: None,
            wal: None,
        }
    }
}

/// Bounded retry for [`DispatchService::ingest_with_retry`]: when the
/// queue sheds the event, back off on the service clock and re-offer.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Re-offers after the first attempt.
    pub max_retries: u32,
    /// First backoff, ms (scaled by `backoff_multiplier` per retry).
    pub base_backoff_ms: u64,
    /// Multiplier applied to the backoff after every retry.
    pub backoff_multiplier: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            base_backoff_ms: 10,
            backoff_multiplier: 2,
        }
    }
}

/// Mutable service-level accounting, behind one lock. Monotonic counters
/// live in the obs [`Registry`] instead; this holds only what the epoch
/// logic reads back.
struct ServiceState {
    epochs_completed: u32,
    histogram: LatencyHistogram,
    shard_metrics: Vec<ShardMetrics>,
    last_swap_error: Option<(usize, SwapError)>,
    /// The rollout pipeline's in-flight candidate, if any.
    rollout: Option<RolloutInFlight>,
    /// Recent per-epoch fleet rewards (capped at `rollout.watch_epochs`);
    /// their mean is the baseline a post-promotion watch compares against.
    recent_rewards: VecDeque<f64>,
}

struct ShardHandle {
    tx: Sender<ShardCmd>,
    rx: Receiver<ShardReply>,
    join: Option<JoinHandle<()>>,
}

/// The online trainer plus its last epoch-boundary checkpoint. The
/// checkpoint is refreshed after every trainer tick, so an injected
/// trainer crash at a boundary respawns into exactly the state an
/// unfaulted trainer would hold.
struct TrainerSlot {
    trainer: Trainer,
    checkpoint: String,
}

/// A running sharded dispatch service.
///
/// Producers call [`DispatchService::ingest`] from any thread at any time;
/// an epoch driver (usually [`crate::EpochScheduler`]) calls
/// [`DispatchService::run_epoch`] every dispatch period. Snapshots taken
/// at epoch boundaries restore into a service that continues
/// step-for-step identically.
pub struct DispatchService {
    config: ServeConfig,
    scenario: Arc<Scenario>,
    registry: Arc<ModelRegistry>,
    clock: Arc<dyn Clock>,
    request_queues: Vec<Arc<BoundedQueue<RequestSpec>>>,
    advisories: Arc<BoundedQueue<Event>>,
    // Each handle sits in its own Mutex so a dead worker can be replaced
    // through `&self` during crash recovery (and because the non-`Sync`
    // receiver must not be shared bare across the `Arc`).
    shards: Vec<Mutex<ShardHandle>>,
    // Last boundary checkpoint per shard (auto-recover only).
    checkpoints: Mutex<Vec<Option<String>>>,
    obs: Arc<Registry>,
    // Registry-backed counters, handles fetched once at start.
    retries: Counter,
    restarts: Counter,
    advisories_applied: Counter,
    advisories_invalid: Counter,
    degraded_epochs: Counter,
    swap_fail_injected: Counter,
    swap_fail_build: Counter,
    swap_fail_rollout: Counter,
    rollouts_admitted: Counter,
    rollouts_rejected: Counter,
    rollouts_rolled_back: Counter,
    candidates_submitted: Counter,
    candidates_admitted: Counter,
    candidates_rejected: Counter,
    snapshot_hist: Histogram,
    // The online trainer (populated iff `config.trainer` is set), stepped
    // synchronously at each epoch boundary.
    trainer: Mutex<Option<TrainerSlot>>,
    trainer_obs: Option<TrainerObs>,
    // The durable ingest journal (populated iff `config.wal` is set),
    // appended to under its own lock so producers group-commit naturally.
    wal: Mutex<Option<Wal>>,
    state: Mutex<ServiceState>,
}

impl DispatchService {
    /// Starts the service: validates the configuration, spawns one worker
    /// thread per shard, and (when `config.wal` is set) opens the durable
    /// ingest journal and replays every journaled request into the fresh
    /// queues — a fresh boot has no snapshot, so the entire journal is the
    /// un-checkpointed suffix.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for zero shards,
    /// [`ServeError::World`] when the simulation configuration cannot host
    /// a world over `scenario`, and [`ServeError::Wal`] when the journal
    /// directory holds a corrupt segment.
    pub fn start(
        scenario: Arc<Scenario>,
        config: ServeConfig,
        clock: Arc<dyn Clock>,
        registry: Arc<ModelRegistry>,
    ) -> Result<Self, ServeError> {
        let svc = Self::start_core(scenario, config, clock, registry)?;
        svc.attach_wal(Some(0))?;
        Ok(svc)
    }

    /// Spawns the service without touching the journal; `start` and
    /// `restore` attach it afterwards with the right replay cutoff.
    fn start_core(
        scenario: Arc<Scenario>,
        config: ServeConfig,
        clock: Arc<dyn Clock>,
        registry: Arc<ModelRegistry>,
    ) -> Result<Self, ServeError> {
        if config.num_shards == 0 {
            return Err(ServeError::BadConfig("need at least one shard"));
        }
        // Validate once on the caller's thread so workers cannot fail
        // construction.
        World::new(&scenario.city, &scenario.conditions, &config.sim)?;
        // Requests reject the newcomer (already-accepted rescues are not
        // silently forgotten); advisories evict the oldest (fresh
        // observations supersede stale ones).
        let request_queues: Vec<_> = (0..config.num_shards)
            .map(|_| {
                Arc::new(BoundedQueue::new(
                    config.request_queue_capacity,
                    ShedPolicy::DropNewest,
                ))
            })
            .collect();
        let advisories = Arc::new(BoundedQueue::new(
            config.advisory_queue_capacity,
            ShedPolicy::DropOldest,
        ));
        let obs = config.obs.clone().unwrap_or_default();
        let make_spec = |scenario: &Arc<Scenario>| ShardSpec {
            scenario: Arc::clone(scenario),
            registry: Arc::clone(&registry),
            clock: Arc::clone(&clock),
            sim: config.sim.clone(),
            rl: config.rl.clone(),
            faults: config.faults.clone(),
            obs: Arc::clone(&obs),
            tap_transitions: config.trainer.is_some(),
        };
        let shards = (0..config.num_shards)
            .map(|i| {
                let (cmd_tx, cmd_rx) = channel();
                let (reply_tx, reply_rx) = channel();
                let join = spawn_shard(i, make_spec(&scenario), cmd_rx, reply_tx);
                Mutex::new(ShardHandle {
                    tx: cmd_tx,
                    rx: reply_rx,
                    join: Some(join),
                })
            })
            .collect();
        let state = ServiceState {
            epochs_completed: 0,
            histogram: LatencyHistogram::new(),
            shard_metrics: vec![ShardMetrics::default(); config.num_shards],
            last_swap_error: None,
            rollout: None,
            recent_rewards: VecDeque::new(),
        };
        let checkpoints = vec![None; config.num_shards];
        let retries = obs.counter("serve.ingest_retries");
        let restarts = obs.counter("serve.shard_restarts");
        let advisories_applied = obs.counter("serve.advisories_applied");
        let advisories_invalid = obs.counter("serve.advisories_invalid");
        let degraded_epochs = obs.counter("serve.degraded_epochs");
        let swap_fail_injected = obs.counter("serve.swap_failures_injected");
        let swap_fail_build = obs.counter("serve.swap_failures_build");
        let swap_fail_rollout = obs.counter("serve.swap_failures_rollout");
        let rollouts_admitted = obs.counter("serve.rollouts_admitted");
        let rollouts_rejected = obs.counter("serve.rollouts_rejected");
        let rollouts_rolled_back = obs.counter("serve.rollouts_rolled_back");
        let candidates_submitted = obs.counter("train.candidates_submitted");
        let candidates_admitted = obs.counter("train.candidates_admitted");
        let candidates_rejected = obs.counter("train.candidates_rejected");
        let snapshot_hist = obs.histogram("epoch.snapshot_ms");
        let trainer = config.trainer.clone().map(|cfg| {
            let trainer = Trainer::new(cfg);
            let checkpoint = trainer.snapshot_text();
            TrainerSlot {
                trainer,
                checkpoint,
            }
        });
        let trainer_obs = config.trainer.is_some().then(|| {
            let time: Arc<dyn TimeSource> = Arc::new(ClockTimeSource(Arc::clone(&clock)));
            TrainerObs::new(&obs, time)
        });
        Ok(Self {
            config,
            scenario,
            registry,
            clock,
            request_queues,
            advisories,
            shards,
            checkpoints: Mutex::new(checkpoints),
            obs,
            retries,
            restarts,
            advisories_applied,
            advisories_invalid,
            degraded_epochs,
            swap_fail_injected,
            swap_fail_build,
            swap_fail_rollout,
            rollouts_admitted,
            rollouts_rejected,
            rollouts_rolled_back,
            candidates_submitted,
            candidates_admitted,
            candidates_rejected,
            snapshot_hist,
            trainer: Mutex::new(trainer),
            trainer_obs,
            wal: Mutex::new(None),
            state: Mutex::new(state),
        })
    }

    /// Opens the journal from `config.wal` (no-op when unset) and replays
    /// the suffix past `hwm` into the request queues: `Some(h)` replays
    /// records with `seq > h`, `None` (a pre-wal snapshot with no
    /// high-water mark) replays nothing.
    fn attach_wal(&self, hwm: Option<u64>) -> Result<(), ServeError> {
        let Some(cfg) = self.config.wal.clone() else {
            return Ok(());
        };
        let time: Arc<dyn TimeSource> = Arc::new(ClockTimeSource(Arc::clone(&self.clock)));
        let (mut wal, recovery) = Wal::open(cfg, &self.obs, time)?;
        if let Some(WalError::TornTail { segment, offset }) = &recovery.torn {
            self.obs.events().log(
                Level::Warn,
                0,
                None,
                format!("wal: truncated torn tail in {segment} at byte {offset}"),
            );
        }
        let cutoff = hwm.unwrap_or(u64::MAX);
        let mut replayed = 0u64;
        for rec in &recovery.records {
            if rec.seq <= cutoff {
                continue;
            }
            if rec.shard >= self.request_queues.len() {
                return Err(ServeError::Wal(WalError::Corrupt {
                    segment: rec.segment.clone(),
                    offset: rec.offset,
                    why: format!(
                        "shard {} out of range (service hosts {})",
                        rec.shard,
                        self.request_queues.len()
                    ),
                }));
            }
            // Replay bypasses journaling: the record is already durable.
            // Every journaled record was admitted (and acked) by the
            // crashed process, so an overflow here means the queue
            // capacity shrank across the restart — refuse rather than
            // silently shed a durable request.
            if !self.request_queues[rec.shard].push(rec.spec) {
                return Err(ServeError::ReplayOverflow {
                    shard: rec.shard,
                    capacity: self.request_queues[rec.shard].capacity(),
                });
            }
            replayed += 1;
        }
        wal.note_replayed(replayed);
        if replayed > 0 {
            self.obs.events().log(
                Level::Info,
                0,
                None,
                format!("wal: replayed {replayed} journaled requests past hwm {cutoff}"),
            );
        }
        if let Some(h) = hwm {
            wal.mark_snapshot(h);
        }
        *lock(&self.wal) = Some(wal);
        Ok(())
    }

    /// Appends one admitted offer for `shard` to the journal, applying the
    /// [`WalFault`] the configured [`FaultHooks`] hand out (if any).
    fn journal(&self, wal: &mut Wal, shard: usize, spec: RequestSpec) -> Result<(), ServeError> {
        let entry = WalEntry {
            clock_ms: self.clock.now_ms(),
            shard,
            spec,
        };
        match self.config.faults.as_ref().and_then(|f| f.wal_fault()) {
            Some(WalFault::TornAppend) => {
                // The append dies mid-write: the tail is torn (and healed
                // in place, as recovery would), nothing was made durable,
                // so the caller must refuse the request instead of acking.
                let err = wal.inject_torn_append(&entry);
                self.obs
                    .events()
                    .log(Level::Warn, 0, Some(shard), format!("wal: injected {err}"));
                return Err(ServeError::Wal(err));
            }
            Some(WalFault::FsyncStall(ms)) => {
                self.clock.sleep_ms(ms);
                wal.append(&[entry])?;
            }
            None => {
                wal.append(&[entry])?;
            }
        }
        Ok(())
    }

    /// Journals then pushes one request, atomically with respect to
    /// [`snapshot`]: the queue only sees specs the journal already
    /// holds, so `Ok(true)` here means the request survives a process
    /// kill. A full queue sheds *before* journaling — `Ok(false)` means
    /// the offer left no durable trace, so a recovery never replays a
    /// request whose client got a NACK (and a shed-then-retried offer
    /// is journaled exactly once, on the attempt that is admitted).
    ///
    /// The journal lock is held across the push; it serializes every
    /// journaled push, which is what makes the shed check race-free
    /// (concurrent epoch drains only ever make room). [`snapshot`]
    /// captures the high-water mark and the queue contents in one
    /// journal critical section, so a record at `seq <= hwm` is always
    /// visible to the queue capture and a record past it never is.
    ///
    /// [`snapshot`]: DispatchService::snapshot
    fn journal_push(&self, shard: usize, spec: RequestSpec) -> Result<bool, ServeError> {
        let mut guard = lock(&self.wal);
        let q = &self.request_queues[shard];
        if let Some(wal) = guard.as_mut() {
            if q.admittable(1) > 0 {
                self.journal(wal, shard, spec)?;
            }
        }
        Ok(q.push(spec))
    }

    /// Flushes the journal when the fsync policy is `Epoch`; called at
    /// every epoch boundary.
    fn wal_epoch_sync(&self) -> Result<(), ServeError> {
        let mut guard = lock(&self.wal);
        if let Some(wal) = guard.as_mut() {
            if wal.fsync_policy() == FsyncPolicy::Epoch {
                wal.sync()?;
            }
        }
        Ok(())
    }

    /// Forces the journal to stable storage regardless of fsync policy.
    /// Drain paths call this before reporting a clean shutdown.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Wal`] when the flush fails.
    pub fn wal_sync(&self) -> Result<(), ServeError> {
        let mut guard = lock(&self.wal);
        if let Some(wal) = guard.as_mut() {
            wal.sync()?;
        }
        Ok(())
    }

    /// Deletes journal segments wholly covered by the last snapshot's
    /// high-water mark, returning how many were removed. Call only after
    /// the snapshot that recorded that mark is durably persisted —
    /// compaction deletes the only other copy of those records.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Wal`] when a segment cannot be removed.
    pub fn wal_compact(&self) -> Result<usize, ServeError> {
        let mut guard = lock(&self.wal);
        match guard.as_mut() {
            Some(wal) => Ok(wal.compact()?),
            None => Ok(0),
        }
    }

    /// The journal's last assigned sequence number (0 when no journal is
    /// configured or nothing was ever journaled).
    pub fn wal_last_seq(&self) -> u64 {
        lock(&self.wal).as_ref().map_or(0, |w| w.last_seq())
    }

    fn state(&self) -> MutexGuard<'_, ServiceState> {
        lock(&self.state)
    }

    fn shard(&self, i: usize) -> MutexGuard<'_, ShardHandle> {
        lock(&self.shards[i])
    }

    fn shard_spec(&self) -> ShardSpec {
        ShardSpec {
            scenario: Arc::clone(&self.scenario),
            registry: Arc::clone(&self.registry),
            clock: Arc::clone(&self.clock),
            sim: self.config.sim.clone(),
            rl: self.config.rl.clone(),
            faults: self.config.faults.clone(),
            obs: Arc::clone(&self.obs),
            tap_transitions: self.config.trainer.is_some(),
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The observability registry the service (and its shard workers)
    /// publish into: `serve.*` counters, per-epoch phase histograms
    /// (`epoch.ingest_ms`, `epoch.predict_ms`, `epoch.dispatch_ms`,
    /// `epoch.routing_ms`, `epoch.snapshot_ms`), per-shard `routing.*`
    /// cache gauges, and the structured event ring.
    pub fn obs(&self) -> &Arc<Registry> {
        &self.obs
    }

    /// How many dead shard workers were restarted from a checkpoint. An
    /// operational counter, deliberately *not* part of
    /// [`MetricsSnapshot`] nor the snapshot text: a recovered run must
    /// converge to the exact state of an unfaulted one.
    pub fn shard_restarts(&self) -> u64 {
        self.restarts.value()
    }

    /// Submits a candidate checkpoint bundle to the guarded rollout
    /// pipeline instead of installing it directly into the registry.
    ///
    /// The candidate is structurally validated at once ([`rollout::admit`]:
    /// parse, finite weights, `FEATURE_DIM`-compatible shapes, sane probe
    /// outputs); an admitted candidate then advances one pipeline stage per
    /// [`DispatchService::run_epoch`] — shadow scoring, canary shards,
    /// fleet-wide promotion, post-promotion watch — and any gate failure
    /// rolls it back without ever (further) touching dispatch. Returns the
    /// in-flight status, or `None` when the configured gates are all empty
    /// and the candidate was promoted immediately.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Rollout`] with a typed [`RolloutError`]: a
    /// rollout already in flight, an empty candidate, or an admission
    /// failure naming the offending artifact.
    pub fn submit_rollout(
        &self,
        predictor_text: Option<&str>,
        policy_text: Option<&str>,
    ) -> Result<Option<RolloutStatus>, ServeError> {
        let mut state = self.state();
        let epoch = state.epochs_completed;
        if state.rollout.is_some() {
            self.rollouts_rejected.inc();
            return Err(ServeError::Rollout(RolloutError::InFlight));
        }
        let admitted = rollout::admit(predictor_text, policy_text, self.config.rollout.probe_bound);
        let (predictor, policy) = match admitted {
            Ok(models) => models,
            Err(e) => {
                self.rollouts_rejected.inc();
                self.obs.events().log(
                    Level::Warn,
                    epoch,
                    None,
                    format!("rollout candidate rejected at admission: {e}"),
                );
                return Err(ServeError::Rollout(e));
            }
        };
        self.rollouts_admitted.inc();
        let version = self.registry.current().version + 1;
        let candidate = CandidateBundle {
            bundle: Arc::new(ModelBundle {
                version,
                predictor,
                policy,
            }),
            predictor_text: predictor_text.map(normalize_text),
            policy_text: policy_text.map(normalize_text),
        };
        let cfg = &self.config.rollout;
        let mut events: Vec<(Level, Option<usize>, String)> = Vec::new();
        let inflight = if cfg.shadow_epochs > 0 {
            events.push((
                Level::Info,
                None,
                format!("rollout v{version}: admitted, entering shadow evaluation"),
            ));
            Some(RolloutInFlight::Shadow {
                done: 0,
                cand_total: 0.0,
                inc_total: 0.0,
                candidate,
            })
        } else if cfg.canary_epochs > 0 && cfg.canary_shards > 0 {
            events.push((
                Level::Info,
                None,
                format!("rollout v{version}: admitted, entering canary stage"),
            ));
            Some(RolloutInFlight::Canary {
                done: 0,
                canary_total: 0.0,
                control_total: 0.0,
                failures: 0,
                candidate,
            })
        } else {
            self.promote(&mut state, &candidate, &mut events)
        };
        let status = inflight.as_ref().map(RolloutInFlight::status);
        state.rollout = inflight;
        drop(state);
        for (level, shard, message) in events {
            self.obs.events().log(level, epoch, shard, message);
        }
        Ok(status)
    }

    /// The in-flight rollout's stage, epochs completed within it, and the
    /// candidate's (tentative) version; `None` when nothing is in flight.
    pub fn rollout_status(&self) -> Option<RolloutStatus> {
        self.state().rollout.as_ref().map(RolloutInFlight::status)
    }

    /// Lifetime rollout counters: admitted, rejected, rolled back.
    /// Operational counters (like [`DispatchService::shard_restarts`]),
    /// deliberately not part of the snapshot text.
    pub fn rollout_counters(&self) -> RolloutCounters {
        RolloutCounters {
            admitted: self.rollouts_admitted.value(),
            rejected: self.rollouts_rejected.value(),
            rolled_back: self.rollouts_rolled_back.value(),
        }
    }

    /// The online trainer's progress counters, or `None` when the service
    /// was configured without a trainer.
    pub fn trainer_status(&self) -> Option<TrainerStatus> {
        lock(&self.trainer).as_ref().map(|s| s.trainer.status())
    }

    /// The trainer's current online-network checkpoint text (exactly what
    /// its next candidate emission would submit), or `None` without a
    /// trainer. Byte-stable across snapshot/restore and, on a
    /// [`crate::SimClock`], across same-seeded runs.
    pub fn trainer_policy_text(&self) -> Option<String> {
        lock(&self.trainer)
            .as_ref()
            .map(|s| s.trainer.policy_text())
    }

    /// Installs the candidate fleet-wide, pinning the previous bundle for
    /// the watch window's rollback (when a watch window is configured).
    fn promote(
        &self,
        state: &mut ServiceState,
        candidate: &CandidateBundle,
        events: &mut Vec<(Level, Option<usize>, String)>,
    ) -> Option<RolloutInFlight> {
        let prior = self.registry.current();
        let version = self.registry.install(
            candidate.bundle.predictor.clone(),
            candidate.bundle.policy.clone(),
        );
        events.push((
            Level::Info,
            None,
            format!("rollout v{version}: promoted fleet-wide"),
        ));
        let cfg = &self.config.rollout;
        if cfg.watch_epochs == 0 {
            return None;
        }
        let baseline = if state.recent_rewards.is_empty() {
            None
        } else {
            Some(state.recent_rewards.iter().sum::<f64>() / state.recent_rewards.len() as f64)
        };
        Some(RolloutInFlight::Watch {
            done: 0,
            total: 0.0,
            baseline,
            prior,
        })
    }

    /// Advances the rollout state machine by one completed epoch. Runs
    /// under the state lock, after the epoch's shard statuses have been
    /// folded into the accumulators passed here.
    #[allow(clippy::too_many_arguments)] // a fold over one epoch's statuses
    fn advance_rollout(
        &self,
        state: &mut ServiceState,
        fleet_reward: f64,
        shadow_cand: f64,
        shadow_error: Option<(usize, String)>,
        canary_reward: f64,
        canary_n: u32,
        control_reward: f64,
        control_n: u32,
        canary_failures: u64,
        events: &mut Vec<(Level, Option<usize>, String)>,
    ) {
        let cfg = &self.config.rollout;
        let next = match state.rollout.take() {
            None => None,
            Some(RolloutInFlight::Shadow {
                mut done,
                mut cand_total,
                mut inc_total,
                candidate,
            }) => {
                let version = candidate.bundle.version;
                if let Some((shard, e)) = shadow_error {
                    self.rollouts_rolled_back.inc();
                    events.push((
                        Level::Warn,
                        Some(shard),
                        format!(
                            "rollout v{version}: shadow evaluation failed, candidate dropped: {e}"
                        ),
                    ));
                    None
                } else {
                    done += 1;
                    cand_total += shadow_cand;
                    inc_total += fleet_reward;
                    if done < cfg.shadow_epochs {
                        Some(RolloutInFlight::Shadow {
                            done,
                            cand_total,
                            inc_total,
                            candidate,
                        })
                    } else if cand_total + cfg.shadow_slack >= inc_total {
                        events.push((
                            Level::Info,
                            None,
                            format!(
                                "rollout v{version}: shadow gate passed \
                                 (candidate {cand_total:.3} vs incumbent {inc_total:.3})"
                            ),
                        ));
                        if cfg.canary_epochs > 0 && cfg.canary_shards > 0 {
                            Some(RolloutInFlight::Canary {
                                done: 0,
                                canary_total: 0.0,
                                control_total: 0.0,
                                failures: 0,
                                candidate,
                            })
                        } else {
                            self.promote(state, &candidate, events)
                        }
                    } else {
                        self.rollouts_rolled_back.inc();
                        events.push((
                            Level::Warn,
                            None,
                            format!(
                                "rollout v{version}: shadow gate failed \
                                 (candidate {cand_total:.3} vs incumbent {inc_total:.3}), \
                                 candidate dropped"
                            ),
                        ));
                        None
                    }
                }
            }
            Some(RolloutInFlight::Canary {
                mut done,
                mut canary_total,
                mut control_total,
                mut failures,
                candidate,
            }) => {
                let version = candidate.bundle.version;
                done += 1;
                canary_total += canary_reward;
                control_total += control_reward;
                failures += canary_failures;
                if done < cfg.canary_epochs {
                    Some(RolloutInFlight::Canary {
                        done,
                        canary_total,
                        control_total,
                        failures,
                        candidate,
                    })
                } else {
                    let canary_mean = canary_total / f64::from(canary_n.max(1) * done);
                    let control_mean = if control_n == 0 {
                        0.0
                    } else {
                        control_total / f64::from(control_n * done)
                    };
                    let healthy = failures == 0
                        && (control_n == 0 || canary_mean + cfg.canary_slack >= control_mean);
                    if healthy {
                        events.push((
                            Level::Info,
                            None,
                            format!(
                                "rollout v{version}: canary gate passed \
                                 (canary {canary_mean:.3} vs control {control_mean:.3})"
                            ),
                        ));
                        self.promote(state, &candidate, events)
                    } else {
                        self.rollouts_rolled_back.inc();
                        events.push((
                            Level::Warn,
                            None,
                            format!(
                                "rollout v{version}: canary gate failed ({failures} build \
                                 failures, canary {canary_mean:.3} vs control \
                                 {control_mean:.3}), candidate dropped"
                            ),
                        ));
                        None
                    }
                }
            }
            Some(RolloutInFlight::Watch {
                mut done,
                mut total,
                baseline,
                prior,
            }) => {
                let version = prior.version + 1;
                done += 1;
                total += fleet_reward;
                if done < cfg.watch_epochs {
                    Some(RolloutInFlight::Watch {
                        done,
                        total,
                        baseline,
                        prior,
                    })
                } else {
                    let mean = total / f64::from(done);
                    match baseline {
                        Some(b) if mean + cfg.watch_slack < b => {
                            let prior_version = prior.version;
                            self.registry.restore_bundle(prior);
                            self.rollouts_rolled_back.inc();
                            events.push((
                                Level::Warn,
                                None,
                                format!(
                                    "rollout v{version}: post-promotion regression (fleet \
                                     reward {mean:.3} vs baseline {b:.3}), rolled back to \
                                     v{prior_version}"
                                ),
                            ));
                        }
                        _ => {
                            events.push((
                                Level::Info,
                                None,
                                format!(
                                    "rollout v{version}: watch window clean, promotion confirmed"
                                ),
                            ));
                        }
                    }
                    None
                }
            }
        };
        state.rollout = next;
        state.recent_rewards.push_back(fleet_reward);
        let cap = cfg.watch_epochs.max(1) as usize;
        while state.recent_rewards.len() > cap {
            state.recent_rewards.pop_front();
        }
    }

    fn validate_request(&self, spec: &RequestSpec) -> Result<(), ServeError> {
        if spec.segment.index() >= self.scenario.city.network.num_segments() {
            return Err(ServeError::World(
                mobirescue_sim::WorldError::UnknownSegment(spec.segment),
            ));
        }
        Ok(())
    }

    /// Offers one event to the ingestion front. Returns `Ok(true)` if it
    /// was admitted — with a journal configured, only after the request
    /// is journaled — and `Ok(false)` if the bounded queue shed it.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownShard`] for an out-of-range shard,
    /// [`ServeError::World`] for a request on a segment the city does not
    /// have — malformed events are rejected at the door, not queued — and
    /// [`ServeError::Wal`] when the journal append fails (the request is
    /// then not admitted).
    pub fn ingest(&self, event: Event) -> Result<bool, ServeError> {
        let shard = event.shard();
        if shard >= self.config.num_shards {
            return Err(ServeError::UnknownShard {
                shard,
                num_shards: self.config.num_shards,
            });
        }
        match event {
            Event::Request { spec, .. } => {
                self.validate_request(&spec)?;
                self.journal_push(shard, spec)
            }
            other => Ok(self.advisories.push(other)),
        }
    }

    /// [`DispatchService::ingest`] with bounded retry: when the queue
    /// sheds the offer, back off on the service clock and re-offer, up to
    /// `retry.max_retries` times; every re-offer counts in
    /// `ingest_retries`. Errors are permanent — malformed events and
    /// failed journal appends are not retried.
    ///
    /// # Errors
    ///
    /// Whatever [`DispatchService::ingest`] returns.
    pub fn ingest_with_retry(&self, event: Event, retry: &RetryPolicy) -> Result<bool, ServeError> {
        let mut backoff_ms = retry.base_backoff_ms;
        let mut attempts = 0;
        loop {
            if self.ingest(event)? {
                return Ok(true);
            }
            if attempts >= retry.max_retries {
                return Ok(false);
            }
            attempts += 1;
            self.retries.inc();
            self.clock.sleep_ms(backoff_ms);
            backoff_ms = backoff_ms.saturating_mul(retry.backoff_multiplier.max(1));
        }
    }

    /// Validates drained advisories against the scenario. Weather and
    /// road-damage reports do not mutate the world — hourly conditions are
    /// the scenario's precomputed ground truth (the paper's G̃ per hour) —
    /// but every advisory is checked and counted, and invalid ones
    /// (unknown segment, out-of-window hour) are dropped loudly in the
    /// metrics rather than silently.
    fn apply_advisories(&self, drained: Vec<Event>) -> (u64, u64) {
        let hours = self.scenario.conditions.hours();
        let num_segments = self.scenario.city.network.num_segments();
        let mut applied = 0;
        let mut invalid = 0;
        for event in drained {
            let ok = match event {
                Event::Weather { hour, rain_mm, .. } => {
                    hour < hours && rain_mm.is_finite() && rain_mm >= 0.0
                }
                Event::RoadDamage { segment, hour, .. } => {
                    hour < hours && segment.index() < num_segments
                }
                Event::Request { .. } => false, // never queued here
            };
            if ok {
                applied += 1;
            } else {
                invalid += 1;
            }
        }
        (applied, invalid)
    }

    fn shard_error(&self, shard: usize, message: impl Into<String>) -> ServeError {
        ServeError::Shard {
            shard,
            message: message.into(),
        }
    }

    fn recv_reply(&self, shard: usize) -> Result<ShardReply, ServeError> {
        self.shard(shard)
            .rx
            .recv()
            .map_err(|_| self.shard_error(shard, "worker thread died"))
    }

    fn to_metrics(&self, shard: usize, st: &ShardStatus) -> ShardMetrics {
        ShardMetrics {
            epochs: st.epochs,
            queue_depth: self.request_queues[shard].depth(),
            injected: st.injected,
            rejected: st.rejected,
            waiting: st.waiting,
            picked_up: st.picked_up,
            delivered: st.delivered,
            model_version: st.model_version,
            routing_hits: st.routing.hits,
            routing_misses: st.routing.misses,
            degraded: st.degraded,
        }
    }

    /// Restarts shard `i`'s worker, restores it from the last boundary
    /// checkpoint (a missing checkpoint means the shard had completed no
    /// epoch — a fresh world *is* its last good state), and replays the
    /// epoch with the already-drained `requests`. The crashed epoch's
    /// faults were consumed when they fired, so the replay runs unfaulted.
    fn recover_shard(
        &self,
        i: usize,
        requests: &[RequestSpec],
        budget_ms: Option<u64>,
        rollout: Option<RolloutDirective>,
    ) -> Result<Box<ShardStatus>, ServeError> {
        self.restarts.inc();
        self.obs.events().log(
            Level::Error,
            self.state().epochs_completed,
            Some(i),
            "shard worker died; restarting from last boundary checkpoint",
        );
        {
            let mut h = self.shard(i);
            if let Some(join) = h.join.take() {
                let _ = join.join();
            }
            let (cmd_tx, cmd_rx) = channel();
            let (reply_tx, reply_rx) = channel();
            h.join = Some(spawn_shard(i, self.shard_spec(), cmd_rx, reply_tx));
            h.tx = cmd_tx;
            h.rx = reply_rx;
        }
        let checkpoint = lock(&self.checkpoints)[i].clone();
        if let Some(text) = checkpoint {
            self.shard(i)
                .tx
                .send(ShardCmd::Restore(text))
                .map_err(|_| self.shard_error(i, "restarted worker gone"))?;
            match self.recv_reply(i)? {
                ShardReply::Restored(Ok(_)) => {}
                ShardReply::Restored(Err(message)) => {
                    return Err(self.shard_error(i, message));
                }
                _ => return Err(self.shard_error(i, "out-of-protocol reply")),
            }
        }
        self.shard(i)
            .tx
            .send(ShardCmd::RunEpoch {
                requests: requests.to_vec(),
                budget_ms,
                rollout,
            })
            .map_err(|_| self.shard_error(i, "restarted worker gone"))?;
        match self.recv_reply(i)? {
            ShardReply::Epoch(Ok(st)) => Ok(st),
            ShardReply::Epoch(Err(message)) => Err(self.shard_error(i, message)),
            _ => Err(self.shard_error(i, "out-of-protocol reply")),
        }
    }

    /// Takes a post-epoch checkpoint of every shard for crash recovery.
    fn checkpoint_shards(&self) -> Result<(), ServeError> {
        let ts = ClockTimeSource(Arc::clone(&self.clock));
        let _span = self.snapshot_hist.time(&ts);
        for i in 0..self.shards.len() {
            self.shard(i)
                .tx
                .send(ShardCmd::Snapshot)
                .map_err(|_| self.shard_error(i, "worker thread gone"))?;
            match self.recv_reply(i)? {
                ShardReply::Snapshot(Ok(text)) => {
                    lock(&self.checkpoints)[i] = Some(text);
                }
                ShardReply::Snapshot(Err(message)) => {
                    return Err(self.shard_error(i, message));
                }
                _ => return Err(self.shard_error(i, "out-of-protocol reply")),
            }
        }
        Ok(())
    }

    /// Runs one dispatch epoch on every shard (the barrier): drains each
    /// shard's request queue into its world, advances all shards one
    /// dispatch period in parallel, and collects their reports. With `auto_recover`, a shard whose worker died is
    /// restarted from its last boundary checkpoint and the epoch is
    /// replayed with the same drained batch — no epoch is skipped.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Shard`] when a worker has died (and
    /// `auto_recover` is off or recovery itself failed).
    pub fn run_epoch(&self) -> Result<Vec<EpochReport>, ServeError> {
        let (applied, invalid) = self.apply_advisories(self.advisories.drain());
        let budget_ms = self.config.epoch_deadline_ms;
        // In-flight rollout → a per-shard directive: shadow candidates are
        // scored on every shard; canary candidates serve only the shards
        // below `canary_shards` (the rest are controls).
        let stage_directive = match &self.state().rollout {
            Some(RolloutInFlight::Shadow { candidate, .. }) => {
                Some(RolloutDirective::Shadow(Arc::clone(&candidate.bundle)))
            }
            Some(RolloutInFlight::Canary { candidate, .. }) => {
                Some(RolloutDirective::Canary(Arc::clone(&candidate.bundle)))
            }
            _ => None,
        };
        let canary_shards = self.config.rollout.canary_shards;
        let directive = |i: usize| match &stage_directive {
            Some(RolloutDirective::Shadow(_)) => stage_directive.clone(),
            Some(RolloutDirective::Canary(_)) if i < canary_shards => stage_directive.clone(),
            _ => None,
        };
        let drained: Vec<Vec<RequestSpec>> =
            self.request_queues.iter().map(|q| q.drain()).collect();
        let mut send_failed = vec![false; self.shards.len()];
        for (i, requests) in drained.iter().enumerate() {
            let sent = self.shard(i).tx.send(ShardCmd::RunEpoch {
                requests: requests.clone(),
                budget_ms,
                rollout: directive(i),
            });
            if sent.is_err() {
                if !self.config.auto_recover {
                    return Err(self.shard_error(i, "worker thread gone"));
                }
                send_failed[i] = true;
            }
        }
        let mut statuses = Vec::with_capacity(self.shards.len());
        let mut first_error = None;
        for (i, requests) in drained.iter().enumerate() {
            let outcome = if send_failed[i] {
                Err(self.shard_error(i, "worker thread gone"))
            } else {
                match self.recv_reply(i) {
                    Ok(ShardReply::Epoch(Ok(st))) => Ok(st),
                    Ok(ShardReply::Epoch(Err(message))) => Err(self.shard_error(i, message)),
                    Ok(_) => Err(self.shard_error(i, "out-of-protocol reply")),
                    Err(e) => Err(e),
                }
            };
            let outcome = match outcome {
                Err(_) if self.config.auto_recover => {
                    self.recover_shard(i, requests, budget_ms, directive(i))
                }
                other => other,
            };
            match outcome {
                Ok(st) => statuses.push((i, st)),
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        let mut reports = Vec::with_capacity(statuses.len());
        let mut events: Vec<(Level, Option<usize>, String)> = Vec::new();
        // Tapped transitions, collected in shard-index order so the
        // trainer's input stream is deterministic.
        let mut trainer_feed: Vec<PairTransition> = Vec::new();
        let epoch;
        {
            let mut state = self.state();
            let mut any_degraded = false;
            let mut fleet_reward = 0.0;
            let mut shadow_cand = 0.0;
            let mut shadow_error: Option<(usize, String)> = None;
            let (mut canary_reward, mut canary_n) = (0.0, 0u32);
            let (mut control_reward, mut control_n) = (0.0, 0u32);
            let mut canary_failures = 0u64;
            let canary_stage = matches!(&stage_directive, Some(RolloutDirective::Canary(_)));
            for (i, st) in statuses {
                state.histogram.record(st.compute_ms);
                state.shard_metrics[i] = self.to_metrics(i, &st);
                any_degraded |= st.degraded_now;
                fleet_reward += st.reward;
                if let Some(sh) = &st.shadow {
                    shadow_cand += sh.candidate_reward;
                    if let Some(e) = &sh.error {
                        if shadow_error.is_none() {
                            shadow_error = Some((i, e.clone()));
                        }
                    }
                }
                if canary_stage {
                    if i < canary_shards {
                        canary_reward += st.reward;
                        canary_n += 1;
                    } else {
                        control_reward += st.reward;
                        control_n += 1;
                    }
                }
                if st.degraded_now {
                    events.push((
                        Level::Warn,
                        Some(i),
                        "epoch served degraded on the heuristic fallback".to_owned(),
                    ));
                }
                if let Some(err) = st.swap_error {
                    match &err {
                        SwapError::Injected => self.swap_fail_injected.inc(),
                        SwapError::Build(_) => self.swap_fail_build.inc(),
                        SwapError::Rollout(_) => {
                            self.swap_fail_rollout.inc();
                            canary_failures += 1;
                        }
                    }
                    events.push((Level::Warn, Some(i), format!("model swap failed: {err}")));
                    state.last_swap_error = Some((i, err));
                }
                if let Some(report) = st.report {
                    reports.push(report);
                }
                trainer_feed.extend(st.transitions);
            }
            self.advance_rollout(
                &mut state,
                fleet_reward,
                shadow_cand,
                shadow_error,
                canary_reward,
                canary_n,
                control_reward,
                control_n,
                canary_failures,
                &mut events,
            );
            epoch = state.epochs_completed;
            state.epochs_completed += 1;
            self.advisories_applied.add(applied);
            self.advisories_invalid.add(invalid);
            if any_degraded {
                self.degraded_epochs.inc();
            }
        }
        for (level, shard, message) in events {
            self.obs.events().log(level, epoch, shard, message);
        }
        self.run_trainer_phase(epoch, trainer_feed);
        self.wal_epoch_sync()?;
        self.obs
            .events()
            .log(Level::Info, epoch, None, format!("epoch {epoch} complete"));
        if self.config.auto_recover {
            self.checkpoint_shards()?;
        }
        Ok(reports)
    }

    /// The trainer's slice of the epoch boundary: apply any scheduled
    /// trainer fault, offer the epoch's tapped transitions into the
    /// bounded queue, run the learning steps, refresh the crash-recovery
    /// checkpoint, and route an emitted candidate into the rollout
    /// pipeline. A no-op when no trainer is configured.
    fn run_trainer_phase(&self, epoch: u32, mut transitions: Vec<PairTransition>) {
        let Some(obs) = &self.trainer_obs else { return };
        let fault = self
            .config
            .faults
            .as_ref()
            .and_then(|f| f.trainer_fault(epoch));
        let mut flood = 0u32;
        match fault {
            None => {}
            Some(TrainerFault::TransitionDrop) => {
                // Lost in transit, upstream of the trainer queue: these
                // never count as offered, so conservation still holds.
                let n = transitions.len();
                transitions.clear();
                self.obs.events().log(
                    Level::Warn,
                    epoch,
                    None,
                    format!("trainer fault: {n} tapped transitions lost in transit"),
                );
            }
            Some(TrainerFault::StaleCandidateFlood(n)) => flood = n,
            Some(TrainerFault::Crash) => {
                let mut slot = lock(&self.trainer);
                if let Some(s) = slot.as_mut() {
                    let cfg = self
                        .config
                        .trainer
                        .clone()
                        .expect("trainer slot implies config");
                    match Trainer::restore(cfg, &s.checkpoint) {
                        Ok(trainer) => {
                            s.trainer = trainer;
                            self.obs.events().log(
                                Level::Error,
                                epoch,
                                None,
                                "trainer crashed; respawned from last boundary checkpoint",
                            );
                        }
                        Err(e) => {
                            // Unreachable with self-written checkpoints;
                            // keep the live trainer rather than panicking.
                            self.obs.events().log(
                                Level::Error,
                                epoch,
                                None,
                                format!("trainer crash recovery failed, kept live state: {e}"),
                            );
                        }
                    }
                }
            }
        }
        let candidate = {
            let mut slot = lock(&self.trainer);
            let Some(s) = slot.as_mut() else { return };
            s.trainer.offer(transitions, obs);
            let candidate = s.trainer.epoch_tick(obs);
            s.checkpoint = s.trainer.snapshot_text();
            candidate
        };
        // Submission happens outside the trainer lock: `submit_rollout`
        // takes the state lock, and it never touches the trainer.
        if let Some(text) = candidate {
            self.candidates_submitted.inc();
            match self.submit_rollout(None, Some(&text)) {
                Ok(_) => {
                    self.candidates_admitted.inc();
                    self.obs.events().log(
                        Level::Info,
                        epoch,
                        None,
                        "trainer candidate submitted to the rollout pipeline",
                    );
                }
                Err(e) => {
                    // A rollout already in flight (or a rejected artifact)
                    // discards the candidate deterministically; the next
                    // cadence tick emits a fresher one anyway.
                    self.candidates_rejected.inc();
                    self.obs.events().log(
                        Level::Warn,
                        epoch,
                        None,
                        format!("trainer candidate discarded: {e}"),
                    );
                }
            }
        }
        for _ in 0..flood {
            // A wedged trainer replaying stale state: structurally valid,
            // reward-tanking candidates. Every one must die at a gate.
            self.candidates_submitted.inc();
            let stale = reward_tank_policy_text();
            match self.submit_rollout(None, Some(&stale)) {
                Ok(_) => self.candidates_admitted.inc(),
                Err(_) => self.candidates_rejected.inc(),
            }
        }
        if flood > 0 {
            self.obs.events().log(
                Level::Warn,
                epoch,
                None,
                format!("trainer fault: flood of {flood} stale candidates submitted"),
            );
        }
    }

    /// The most recent failed model hot-swap, if any: the shard index and
    /// the typed reason (injected fault, bundle build failure, or a
    /// rollout candidate rejected on a canary shard). A failed swap is not
    /// fatal — the shard keeps serving with its previous dispatcher, or
    /// degraded on the heuristic fallback when none exists — but operators
    /// should see it.
    pub fn last_swap_error(&self) -> Option<(usize, SwapError)> {
        self.state().last_swap_error.clone()
    }

    /// Assembles a point-in-time metrics snapshot without stopping any
    /// shard.
    pub fn metrics(&self) -> MetricsSnapshot {
        let state = self.state();
        let mut shards = state.shard_metrics.clone();
        for (i, m) in shards.iter_mut().enumerate() {
            m.queue_depth = self.request_queues[i].depth();
        }
        MetricsSnapshot {
            epochs_completed: state.epochs_completed,
            requests_accepted: self.request_queues.iter().map(|q| q.accepted()).sum(),
            requests_shed: self.request_queues.iter().map(|q| q.shed()).sum(),
            advisories_accepted: self.advisories.accepted(),
            advisories_shed: self.advisories.shed(),
            advisories_applied: self.advisories_applied.value(),
            advisories_invalid: self.advisories_invalid.value(),
            degraded_epochs: self.degraded_epochs.value(),
            ingest_retries: self.retries.value(),
            swap_failures_injected: self.swap_fail_injected.value(),
            swap_failures_build: self.swap_fail_build.value(),
            swap_failures_rollout: self.swap_fail_rollout.value(),
            model_version: self.registry.current().version,
            model_swaps: self.registry.swaps(),
            epoch_latency: state.histogram.clone(),
            shards,
        }
    }

    /// Mirrors the full [`MetricsSnapshot`] view into the registry and
    /// captures it. The returned snapshot therefore carries *everything*:
    /// the registry-native phase histograms, counters and events that
    /// accumulate live, plus `serve.*` mirrors of the queue, model and
    /// per-shard counters that have other sources of truth.
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        let m = self.metrics();
        let o = &self.obs;
        o.counter("serve.epochs_completed")
            .set(u64::from(m.epochs_completed));
        o.counter("serve.requests_accepted")
            .set(m.requests_accepted);
        o.counter("serve.requests_shed").set(m.requests_shed);
        o.counter("serve.advisories_accepted")
            .set(m.advisories_accepted);
        o.counter("serve.advisories_shed").set(m.advisories_shed);
        o.gauge("serve.model_version").set(m.model_version as i64);
        o.counter("serve.model_swaps").set(m.model_swaps);
        for (i, s) in m.shards.iter().enumerate() {
            let p = format!("serve.shard{i}");
            o.counter(&format!("{p}.epochs")).set(u64::from(s.epochs));
            o.gauge(&format!("{p}.queue_depth"))
                .set(s.queue_depth as i64);
            o.counter(&format!("{p}.injected")).set(s.injected);
            o.counter(&format!("{p}.rejected")).set(s.rejected);
            o.gauge(&format!("{p}.waiting")).set(s.waiting as i64);
            o.counter(&format!("{p}.picked_up")).set(s.picked_up as u64);
            o.counter(&format!("{p}.delivered")).set(s.delivered as u64);
            o.gauge(&format!("{p}.model_version"))
                .set(s.model_version as i64);
            o.counter(&format!("{p}.routing_hits")).set(s.routing_hits);
            o.counter(&format!("{p}.routing_misses"))
                .set(s.routing_misses);
            o.counter(&format!("{p}.degraded_epochs")).set(s.degraded);
        }
        o.snapshot()
    }

    /// Serializes the whole service — every shard's world, the pending
    /// queue contents, and the service counters — to a versioned text
    /// blob sealed with an FNV-1a checksum trailer. Take it at an epoch
    /// boundary (between [`run_epoch`] calls); a service restored from it
    /// continues identically.
    ///
    /// [`run_epoch`]: DispatchService::run_epoch
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Shard`] when a worker cannot serialize.
    pub fn snapshot(&self) -> Result<String, ServeError> {
        let ts = ClockTimeSource(Arc::clone(&self.clock));
        let _span = self.snapshot_hist.time(&ts);
        // Capture the journal high-water mark AND the queue contents in
        // ONE journal critical section, before taking the state lock (wal
        // and state locks are never held together). Every journaled push
        // holds the wal lock across its queue push, so a record at
        // `seq <= hwm` is already visible to this capture and a record
        // past the mark never is — exactly the invariant a restore's
        // replay-strictly-past-hwm depends on. Capturing them in separate
        // critical sections would let a concurrent listener thread slip a
        // push between them, losing (or duplicating) an acked request
        // across a crash-restore.
        let (wal_hwm, rqueue_text) = {
            let mut guard = lock(&self.wal);
            let hwm = match guard.as_mut() {
                Some(wal) => {
                    let hwm = wal.last_seq();
                    wal.mark_snapshot(hwm);
                    hwm
                }
                None => 0,
            };
            let mut rq = String::new();
            for (i, q) in self.request_queues.iter().enumerate() {
                let _ = writeln!(rq, "rqueue {i} {} {}", q.accepted(), q.shed());
                for spec in q.peek_all() {
                    let _ = writeln!(rq, "queued {i} {} {}", spec.appear_s, spec.segment.0);
                }
            }
            (hwm, rq)
        };
        let mut out = String::from("mrserve 1\n");
        {
            let state = self.state();
            let _ = writeln!(out, "epochs {} {}", state.epochs_completed, wal_hwm);
            let _ = writeln!(
                out,
                "advisories {} {} {} {}",
                self.advisories_applied.value(),
                self.advisories_invalid.value(),
                self.advisories.accepted(),
                self.advisories.shed()
            );
            let _ = writeln!(out, "hist {}", state.histogram.to_line());
            let _ = writeln!(
                out,
                "resil {} {} {} {} {}",
                self.degraded_epochs.value(),
                self.retries.value(),
                self.swap_fail_injected.value(),
                self.swap_fail_build.value(),
                self.swap_fail_rollout.value()
            );
            if !state.recent_rewards.is_empty() {
                out.push_str("rrew");
                for r in &state.recent_rewards {
                    let _ = write!(out, " {r:?}");
                }
                out.push('\n');
            }
            // In-flight rollout state: the stage accumulators plus the
            // checkpoint texts needed to rebuild the candidate (or, during
            // a watch window, the pinned prior bundle) bit-identically.
            match &state.rollout {
                None => {}
                Some(RolloutInFlight::Shadow {
                    done,
                    cand_total,
                    inc_total,
                    candidate,
                }) => {
                    let _ = writeln!(
                        out,
                        "rollout shadow {done} {cand_total:?} {inc_total:?} {}",
                        candidate.bundle.version
                    );
                    write_candidate_texts(&mut out, candidate);
                }
                Some(RolloutInFlight::Canary {
                    done,
                    canary_total,
                    control_total,
                    failures,
                    candidate,
                }) => {
                    let _ = writeln!(
                        out,
                        "rollout canary {done} {canary_total:?} {control_total:?} {failures} {}",
                        candidate.bundle.version
                    );
                    write_candidate_texts(&mut out, candidate);
                }
                Some(RolloutInFlight::Watch {
                    done,
                    total,
                    baseline,
                    prior,
                }) => {
                    let baseline_text = match baseline {
                        Some(b) => format!("{b:?}"),
                        None => "-".to_owned(),
                    };
                    let _ = writeln!(
                        out,
                        "rollout watch {done} {total:?} {baseline_text} {}",
                        prior.version
                    );
                    if let Some(p) = &prior.predictor {
                        write_text_block(&mut out, "rtext ppred", &p.to_text());
                    }
                    if let Some(net) = &prior.policy {
                        write_text_block(&mut out, "rtext ppol", &mlp_to_text(net));
                    }
                }
            }
        }
        // Trainer state rides along as one counted text block; snapshots
        // taken before the trainer existed simply lack the record, and
        // restore treats its absence as training-from-scratch (or
        // disabled, when the config carries no trainer).
        if let Some(slot) = lock(&self.trainer).as_ref() {
            write_text_block(&mut out, "tstate", &slot.trainer.snapshot_text());
        }
        out.push_str(&rqueue_text);
        for event in self.advisories.peek_all() {
            match event {
                Event::Weather {
                    shard,
                    hour,
                    rain_mm,
                } => {
                    let _ = writeln!(out, "adv w {shard} {hour} {rain_mm:?}");
                }
                Event::RoadDamage {
                    shard,
                    segment,
                    hour,
                    flooded,
                } => {
                    let _ = writeln!(
                        out,
                        "adv d {shard} {} {hour} {}",
                        segment.0,
                        u8::from(flooded)
                    );
                }
                Event::Request { .. } => {}
            }
        }
        for i in 0..self.shards.len() {
            self.shard(i)
                .tx
                .send(ShardCmd::Snapshot)
                .map_err(|_| self.shard_error(i, "worker thread gone"))?;
            match self.recv_reply(i)? {
                ShardReply::Snapshot(Ok(text)) => {
                    let _ = writeln!(out, "shard {i} {}", text.lines().count());
                    out.push_str(&text);
                }
                ShardReply::Snapshot(Err(message)) => {
                    return Err(self.shard_error(i, message));
                }
                _ => return Err(self.shard_error(i, "out-of-protocol reply")),
            }
        }
        out.push_str("end\n");
        Ok(seal_snapshot(out))
    }

    /// Rebuilds a service from a snapshot over the *same* scenario. The
    /// restored service's [`DispatchService::metrics`] equals the
    /// snapshotted one's, and subsequent epochs evolve identically.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadSnapshot`] on malformed input — including
    /// a failed checksum (truncated or bit-flipped text) and a shard count
    /// that does not match `config` — plus anything
    /// [`DispatchService::start`] can return.
    pub fn restore(
        scenario: Arc<Scenario>,
        config: ServeConfig,
        clock: Arc<dyn Clock>,
        registry: Arc<ModelRegistry>,
        text: &str,
    ) -> Result<Self, ServeError> {
        let bad = |why: &str| ServeError::BadSnapshot(why.to_owned());
        let text = open_snapshot(text).map_err(ServeError::BadSnapshot)?;
        // start_core, not start: the journal must replay against the
        // *restored* queues with the snapshot's high-water mark as the
        // cutoff, so it attaches at the very end of restore.
        let svc = Self::start_core(scenario, config, clock, registry)?;
        let mut lines = text.lines();
        if lines.next() != Some("mrserve 1") {
            return Err(bad("missing `mrserve 1` header"));
        }
        let mut epochs = 0u32;
        let mut wal_hwm: Option<u64> = None;
        let mut adv_counts = (0u64, 0u64, 0u64, 0u64);
        let mut resil = (0u64, 0u64);
        let mut swap_causes = (0u64, 0u64, 0u64);
        let mut recent_rewards: VecDeque<f64> = VecDeque::new();
        let mut pending_rollout: Option<PendingRollout> = None;
        let mut rtexts = RolloutTexts::default();
        let mut histogram = LatencyHistogram::new();
        let mut rqueue_counters = vec![(0u64, 0u64); svc.config.num_shards];
        let mut trainer_text: Option<String> = None;
        let mut restored_shards = vec![false; svc.config.num_shards];
        let mut shard_metrics = vec![ShardMetrics::default(); svc.config.num_shards];
        let mut saw_end = false;
        while let Some(line) = lines.next() {
            let mut p = line.split_whitespace();
            let Some(tag) = p.next() else { continue };
            match tag {
                "epochs" => {
                    epochs = p
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad("bad epochs line"))?;
                    // Pre-wal snapshots carry one field; the extended
                    // format appends the journal high-water mark. Absent
                    // means "replay nothing" — everything this snapshot
                    // holds predates the journal.
                    wal_hwm = match p.next() {
                        Some(t) => Some(t.parse().map_err(|_| bad("bad epochs hwm"))?),
                        None => None,
                    };
                }
                "advisories" => {
                    let mut next = || p.next().and_then(|t| t.parse::<u64>().ok());
                    adv_counts = (
                        next().ok_or_else(|| bad("bad advisories line"))?,
                        next().ok_or_else(|| bad("bad advisories line"))?,
                        next().ok_or_else(|| bad("bad advisories line"))?,
                        next().ok_or_else(|| bad("bad advisories line"))?,
                    );
                }
                "hist" => {
                    let rest = line.strip_prefix("hist ").unwrap_or("");
                    histogram =
                        LatencyHistogram::from_line(rest).ok_or_else(|| bad("bad hist line"))?;
                }
                "resil" => {
                    let mut next = || p.next().and_then(|t| t.parse::<u64>().ok());
                    resil = (
                        next().ok_or_else(|| bad("bad resil line"))?,
                        next().ok_or_else(|| bad("bad resil line"))?,
                    );
                    // Pre-rollout snapshots carry two fields; the extended
                    // format appends the three swap-cause counters.
                    let extra: Vec<u64> = {
                        let mut v = Vec::new();
                        for t in p.by_ref() {
                            v.push(t.parse().map_err(|_| bad("bad resil line"))?);
                        }
                        v
                    };
                    swap_causes = match extra[..] {
                        [] => (0, 0, 0),
                        [i, b, r] => (i, b, r),
                        _ => return Err(bad("bad resil line")),
                    };
                }
                "rrew" => {
                    for t in p.by_ref() {
                        recent_rewards.push_back(t.parse().map_err(|_| bad("bad rrew value"))?);
                    }
                }
                "rollout" => {
                    if pending_rollout.is_some() {
                        return Err(bad("duplicate rollout record"));
                    }
                    pending_rollout =
                        Some(PendingRollout::parse(&mut p).ok_or_else(|| bad("bad rollout line"))?);
                }
                "rtext" => {
                    let kind = p.next().ok_or_else(|| bad("bad rtext kind"))?;
                    let num_lines: usize = p
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad("bad rtext line count"))?;
                    let mut body = String::new();
                    for _ in 0..num_lines {
                        let l = lines.next().ok_or_else(|| bad("truncated rtext body"))?;
                        body.push_str(l);
                        body.push('\n');
                    }
                    let slot = match kind {
                        "cpred" => &mut rtexts.cpred,
                        "cpol" => &mut rtexts.cpol,
                        "ppred" => &mut rtexts.ppred,
                        "ppol" => &mut rtexts.ppol,
                        _ => return Err(bad("unknown rtext kind")),
                    };
                    if slot.replace(body).is_some() {
                        return Err(bad("duplicate rtext record"));
                    }
                }
                "tstate" => {
                    let num_lines: usize = p
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad("bad tstate line count"))?;
                    let mut body = String::new();
                    for _ in 0..num_lines {
                        let l = lines.next().ok_or_else(|| bad("truncated tstate body"))?;
                        body.push_str(l);
                        body.push('\n');
                    }
                    if trainer_text.replace(body).is_some() {
                        return Err(bad("duplicate tstate record"));
                    }
                }
                "rqueue" => {
                    let i: usize = p
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad("bad rqueue index"))?;
                    if i >= svc.config.num_shards {
                        return Err(bad("rqueue index out of range"));
                    }
                    let accepted = p
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad("bad rqueue accepted"))?;
                    let shed = p
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad("bad rqueue shed"))?;
                    rqueue_counters[i] = (accepted, shed);
                }
                "queued" => {
                    let i: usize = p
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad("bad queued shard"))?;
                    if i >= svc.config.num_shards {
                        return Err(bad("queued shard out of range"));
                    }
                    let appear_s = p
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad("bad queued appear_s"))?;
                    let segment = p
                        .next()
                        .and_then(|t| t.parse().ok())
                        .map(SegmentId)
                        .ok_or_else(|| bad("bad queued segment"))?;
                    // A `queued` record was admitted (and acked) by the
                    // snapshotted process; overflow means the capacity
                    // shrank across the restart — refuse rather than
                    // silently shed it.
                    if !svc.request_queues[i].push(RequestSpec { appear_s, segment }) {
                        return Err(ServeError::ReplayOverflow {
                            shard: i,
                            capacity: svc.request_queues[i].capacity(),
                        });
                    }
                }
                "adv" => match p.next() {
                    Some("w") => {
                        let shard = p
                            .next()
                            .and_then(|t| t.parse().ok())
                            .ok_or_else(|| bad("bad adv shard"))?;
                        let hour = p
                            .next()
                            .and_then(|t| t.parse().ok())
                            .ok_or_else(|| bad("bad adv hour"))?;
                        let rain_mm = p
                            .next()
                            .and_then(|t| t.parse().ok())
                            .ok_or_else(|| bad("bad adv rain"))?;
                        svc.advisories.push(Event::Weather {
                            shard,
                            hour,
                            rain_mm,
                        });
                    }
                    Some("d") => {
                        let shard = p
                            .next()
                            .and_then(|t| t.parse().ok())
                            .ok_or_else(|| bad("bad adv shard"))?;
                        let segment = p
                            .next()
                            .and_then(|t| t.parse().ok())
                            .map(SegmentId)
                            .ok_or_else(|| bad("bad adv segment"))?;
                        let hour = p
                            .next()
                            .and_then(|t| t.parse().ok())
                            .ok_or_else(|| bad("bad adv hour"))?;
                        let flooded = match p.next() {
                            Some("1") => true,
                            Some("0") => false,
                            _ => return Err(bad("bad adv flooded flag")),
                        };
                        svc.advisories.push(Event::RoadDamage {
                            shard,
                            segment,
                            hour,
                            flooded,
                        });
                    }
                    _ => return Err(bad("unknown advisory kind")),
                },
                "shard" => {
                    let i: usize = p
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad("bad shard index"))?;
                    if i >= svc.config.num_shards {
                        return Err(bad("shard index out of range"));
                    }
                    let num_lines: usize = p
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad("bad shard line count"))?;
                    let mut body = String::new();
                    for _ in 0..num_lines {
                        let l = lines.next().ok_or_else(|| bad("truncated shard body"))?;
                        body.push_str(l);
                        body.push('\n');
                    }
                    svc.shard(i)
                        .tx
                        .send(ShardCmd::Restore(body))
                        .map_err(|_| svc.shard_error(i, "worker thread gone"))?;
                    match svc.recv_reply(i)? {
                        ShardReply::Restored(Ok(st)) => {
                            shard_metrics[i] = svc.to_metrics(i, &st);
                            restored_shards[i] = true;
                        }
                        ShardReply::Restored(Err(message)) => {
                            return Err(svc.shard_error(i, message));
                        }
                        _ => return Err(svc.shard_error(i, "out-of-protocol reply")),
                    }
                }
                "end" => {
                    saw_end = true;
                    break;
                }
                other => return Err(bad(&format!("unknown record `{other}`"))),
            }
        }
        if !saw_end {
            return Err(bad("truncated snapshot (missing `end`)"));
        }
        if !restored_shards.iter().all(|&r| r) {
            return Err(bad("snapshot does not cover every configured shard"));
        }
        // Reassemble the in-flight rollout. Candidates re-enter through
        // the admission gate — a snapshot is no excuse for serving a
        // checkpoint that would not be admitted today — while a watch
        // stage's pinned prior rebuilds verbatim from its persisted texts
        // (`{:?}` float formatting round-trips weights bit-exactly).
        let restored_rollout = match pending_rollout {
            None => None,
            Some(PendingRollout::Shadow {
                done,
                cand_total,
                inc_total,
                version,
            }) => Some(RolloutInFlight::Shadow {
                done,
                cand_total,
                inc_total,
                candidate: rtexts.candidate(version, &svc.config.rollout)?,
            }),
            Some(PendingRollout::Canary {
                done,
                canary_total,
                control_total,
                failures,
                version,
            }) => Some(RolloutInFlight::Canary {
                done,
                canary_total,
                control_total,
                failures,
                candidate: rtexts.candidate(version, &svc.config.rollout)?,
            }),
            Some(PendingRollout::Watch {
                done,
                total,
                baseline,
                prior_version,
            }) => Some(RolloutInFlight::Watch {
                done,
                total,
                baseline,
                prior: rtexts.prior(prior_version)?,
            }),
        };
        // A trainer record only matters when the restored service trains:
        // the snapshot carries state, the config carries topology. With
        // training disabled the record is skipped, and a snapshot without
        // one (taken before the trainer existed, or with training off)
        // restores into a trainer-configured service training from scratch.
        if let (Some(text), Some(cfg)) = (&trainer_text, svc.config.trainer.clone()) {
            let trainer = Trainer::restore(cfg, text)
                .map_err(|e| ServeError::BadSnapshot(format!("trainer state in snapshot: {e}")))?;
            let checkpoint = trainer.snapshot_text();
            *lock(&svc.trainer) = Some(TrainerSlot {
                trainer,
                checkpoint,
            });
        }
        for (i, q) in svc.request_queues.iter().enumerate() {
            let (accepted, shed) = rqueue_counters[i];
            q.set_counters(accepted, shed);
        }
        svc.advisories.set_counters(adv_counts.2, adv_counts.3);
        // Registry-backed counters are *set*, not added: a restored
        // service continues from the snapshot's totals exactly once, even
        // when the caller handed `start` a pre-populated registry.
        svc.retries.set(resil.1);
        svc.advisories_applied.set(adv_counts.0);
        svc.advisories_invalid.set(adv_counts.1);
        svc.degraded_epochs.set(resil.0);
        svc.swap_fail_injected.set(swap_causes.0);
        svc.swap_fail_build.set(swap_causes.1);
        svc.swap_fail_rollout.set(swap_causes.2);
        {
            let mut state = svc.state();
            state.epochs_completed = epochs;
            state.histogram = histogram;
            state.shard_metrics = shard_metrics;
            state.rollout = restored_rollout;
            state.recent_rewards = recent_rewards;
        }
        // The snapshot restored everything journaled at or below its
        // high-water mark; replaying the journal suffix past it recovers
        // the requests acked after the snapshot was taken.
        svc.attach_wal(wal_hwm)?;
        // Seed recovery checkpoints with the restored state, so a crash
        // before the first post-restore boundary does not roll back to a
        // fresh world.
        if svc.config.auto_recover {
            svc.checkpoint_shards()?;
        }
        Ok(svc)
    }

    fn stop_workers(&mut self) {
        // Best-effort flush so clean exits under `Epoch`/`Off` fsync
        // policies leave the journal on stable storage.
        if let Some(wal) = self
            .wal
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .as_mut()
        {
            let _ = wal.sync();
        }
        for shard in &mut self.shards {
            let h = shard
                .get_mut()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let _ = h.tx.send(ShardCmd::Shutdown);
        }
        for shard in &mut self.shards {
            let h = shard
                .get_mut()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(join) = h.join.take() {
                let _ = join.join();
            }
        }
    }

    /// Stops every worker and waits for them to exit.
    pub fn shutdown(mut self) {
        self.stop_workers();
    }
}

impl Drop for DispatchService {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Normalizes a checkpoint text to exactly one `\n` per line (so snapshot
/// line counting is exact regardless of the submitter's trailing newline).
fn normalize_text(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 1);
    for l in text.lines() {
        out.push_str(l);
        out.push('\n');
    }
    out
}

/// Writes one `{tag} {line_count}` header plus the text body.
fn write_text_block(out: &mut String, tag: &str, text: &str) {
    let _ = writeln!(out, "{tag} {}", text.lines().count());
    for l in text.lines() {
        out.push_str(l);
        out.push('\n');
    }
}

fn write_candidate_texts(out: &mut String, candidate: &CandidateBundle) {
    if let Some(t) = &candidate.predictor_text {
        write_text_block(out, "rtext cpred", t);
    }
    if let Some(t) = &candidate.policy_text {
        write_text_block(out, "rtext cpol", t);
    }
}

/// A `rollout` snapshot record, parsed but not yet joined with its `rtext`
/// bodies (which follow later in the snapshot).
enum PendingRollout {
    Shadow {
        done: u32,
        cand_total: f64,
        inc_total: f64,
        version: u64,
    },
    Canary {
        done: u32,
        canary_total: f64,
        control_total: f64,
        failures: u64,
        version: u64,
    },
    Watch {
        done: u32,
        total: f64,
        baseline: Option<f64>,
        prior_version: u64,
    },
}

impl PendingRollout {
    fn parse(p: &mut std::str::SplitWhitespace<'_>) -> Option<Self> {
        let stage = p.next()?;
        let parsed = match stage {
            "shadow" => PendingRollout::Shadow {
                done: p.next()?.parse().ok()?,
                cand_total: p.next()?.parse().ok()?,
                inc_total: p.next()?.parse().ok()?,
                version: p.next()?.parse().ok()?,
            },
            "canary" => PendingRollout::Canary {
                done: p.next()?.parse().ok()?,
                canary_total: p.next()?.parse().ok()?,
                control_total: p.next()?.parse().ok()?,
                failures: p.next()?.parse().ok()?,
                version: p.next()?.parse().ok()?,
            },
            "watch" => PendingRollout::Watch {
                done: p.next()?.parse().ok()?,
                total: p.next()?.parse().ok()?,
                baseline: match p.next()? {
                    "-" => None,
                    t => Some(t.parse().ok()?),
                },
                prior_version: p.next()?.parse().ok()?,
            },
            _ => return None,
        };
        p.next().is_none().then_some(parsed)
    }
}

/// The `rtext` checkpoint bodies collected while parsing a snapshot.
#[derive(Default)]
struct RolloutTexts {
    cpred: Option<String>,
    cpol: Option<String>,
    ppred: Option<String>,
    ppol: Option<String>,
}

impl RolloutTexts {
    /// Rebuilds a shadow/canary candidate through the admission gate.
    fn candidate(self, version: u64, cfg: &RolloutConfig) -> Result<CandidateBundle, ServeError> {
        let (predictor, policy) =
            rollout::admit(self.cpred.as_deref(), self.cpol.as_deref(), cfg.probe_bound).map_err(
                |e| {
                    ServeError::BadSnapshot(format!(
                        "rollout candidate in snapshot failed admission: {e}"
                    ))
                },
            )?;
        Ok(CandidateBundle {
            bundle: Arc::new(ModelBundle {
                version,
                predictor,
                policy,
            }),
            predictor_text: self.cpred,
            policy_text: self.cpol,
        })
    }

    /// Rebuilds a watch stage's pinned prior bundle verbatim.
    fn prior(self, prior_version: u64) -> Result<Arc<ModelBundle>, ServeError> {
        let bad = |what: &str, e: String| {
            ServeError::BadSnapshot(format!("rollout prior {what} in snapshot: {e}"))
        };
        let predictor = self
            .ppred
            .as_deref()
            .map(RequestPredictor::from_text)
            .transpose()
            .map_err(|e| bad("predictor", e))?;
        let policy = self
            .ppol
            .as_deref()
            .map(mlp_from_text)
            .transpose()
            .map_err(|e| bad("policy", e.to_string()))?;
        Ok(Arc::new(ModelBundle {
            version: prior_version,
            predictor,
            policy,
        }))
    }
}
