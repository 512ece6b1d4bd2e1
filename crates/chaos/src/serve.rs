//! The service chaos harnesses: run a full [`DispatchService`] under a
//! seeded fault schedule and check the graceful-degradation invariants.
//!
//! Shared by the `tests/chaos.rs` suite in the workspace facade and the
//! `chaos` binary in `mobirescue-bench`, so a failing seed from a sweep
//! reproduces byte-for-byte as a test. Everything runs on a
//! [`SimClock`], so a run is a pure function of `(fault plan, options)`.
//!
//! Invariants checked after every run (violations are returned as
//! strings, one per broken invariant, rather than panicking — the caller
//! decides whether to assert or report):
//!
//! 1. **No epoch skipped silently** — the service completes exactly the
//!    requested number of epochs and every epoch yields one report per
//!    shard, faults or not.
//! 2. **Metrics conservation** — admitted + shed equals the push
//!    attempts that reached the service plus its retries, tallied by the
//!    harness (which applies the ingest faults itself); and everything
//!    admitted is either injected into a world, rejected by it, or still
//!    queued.
//! 3. **Degradation is honest** — `degraded_epochs` is positive iff a
//!    degrading fault (stall past the deadline, failed swap) actually
//!    fired, and never exceeds the number fired.
//! 4. **Crashes never outlive recovery** — every fired crash maps to
//!    exactly one shard restart.
//! 5. **Snapshot integrity** — the final snapshot restores to an equal
//!    service when written cleanly, and is *rejected with a typed error*
//!    when the harness corrupted the write.
//! 6. **Swap-failure attribution** — every injected registry failure is
//!    counted under its typed cause
//!    ([`mobirescue_serve::SwapError::Injected`]), and
//!    no build or rollout failure claims one.
//!
//! The service applies only the in-process faults (shard stalls and
//! crashes, swap failures, trainer and WAL faults). Faults at its
//! boundary — dropped, delayed, duplicated or corrupted offers, damaged
//! snapshot writes, poisoned checkpoints — are applied here, by the
//! caller, through the same [`FaultInjector`] draws; the in-process ones
//! reach the service through the injector's [`FaultHooks`].
//!
//! [`rollout_chaos_divergence`] adds the poisoned-checkpoint invariants:
//! an inadmissible or shadow-stage candidate never serves a primary
//! dispatch, every injected regression is caught with the registry still
//! pinned to the prior version, and a poisoned run ends bit-identical to
//! a twin that never saw the poison.
//!
//! [`trainer_chaos_divergence`] covers the online training loop
//! ([`mobirescue_serve::trainer`]): transition conservation under injected drops and
//! floods, stale-candidate floods never reaching a primary dispatch, and
//! a trainer that crashes at epoch boundaries recovering bit-identically
//! to an unfaulted twin.
//!
//! [`wal_chaos_divergence`] covers the durable ingest journal
//! ([`mobirescue_serve::wal`]): torn appends surface as typed refusals with the
//! conservation law `acked == dispatched + still_journaled` intact, fsync
//! stalls never perturb state, a process killed at *any byte offset* of
//! the journal recovers bit-identical to a twin that never crashed, and
//! an interior bit flip is a typed [`WalError::Corrupt`] refusal
//! naming the segment and offset.

use crate::fault::{
    FaultCounters, FaultInjector, FaultPlan, FaultPlanConfig, IngestFault, ScheduledFaults,
};
use mobirescue_core::rl_dispatch::FEATURE_DIM;
use mobirescue_core::scenario::{Scenario, ScenarioConfig};
use mobirescue_obs::ObsSnapshot;
use mobirescue_rl::nn::Mlp;
use mobirescue_rl::persist::mlp_to_text;
use mobirescue_roadnet::graph::SegmentId;
use mobirescue_serve::{
    CheckpointPoison, Clock, DispatchService, EpochScheduler, Event, FaultHooks, FsyncPolicy,
    MetricsSnapshot, ModelRegistry, RetryPolicy, RolloutConfig, RolloutError, ServeConfig,
    ServeError, SimClock, TrainerConfig, TrainerFault, TrainerStatus, WalConfig, WalError,
    WalFault,
};
use mobirescue_sim::{RequestSpec, SimConfig};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The pinned seed set every chaos sweep and pinned test shares — the
/// chaos binary and the `tests/*_chaos.rs` suites iterate this one
/// constant, so a failing seed from a sweep reproduces as a test without
/// translation.
pub const CHAOS_SEEDS: [u64; 5] = [11, 23, 37, 41, 53];

/// What a chaos run should look like, beyond the fault plan itself.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Dispatch epochs to drive.
    pub epochs: u32,
    /// City shards to host.
    pub num_shards: usize,
    /// Request offers per shard per epoch.
    pub requests_per_epoch: usize,
    /// Request queue capacity (small enough to exercise shedding).
    pub queue_capacity: usize,
    /// Per-epoch dispatch compute budget, ms (keep it below the plan's
    /// stall so every stall trips the fallback).
    pub deadline_ms: u64,
    /// The fault schedule to execute.
    pub plan: FaultPlan,
}

impl ChaosOptions {
    /// The standard sweep configuration: the full fault mix drawn from
    /// `seed`, small queues, a deadline every stall overshoots.
    pub fn seeded(seed: u64, epochs: u32, num_shards: usize) -> Self {
        let cfg = FaultPlanConfig::chaos(epochs, num_shards);
        Self {
            epochs,
            num_shards,
            requests_per_epoch: 6,
            queue_capacity: 4,
            deadline_ms: 10,
            plan: FaultPlan::generate(seed, &cfg),
        }
    }
}

/// Everything a chaos run produced, for reporting and assertions.
#[derive(Debug)]
pub struct ChaosOutcome {
    /// The seed the run was labeled with.
    pub seed: u64,
    /// What the plan had scheduled.
    pub scheduled: ScheduledFaults,
    /// What actually fired.
    pub counters: FaultCounters,
    /// Final service metrics.
    pub metrics: MetricsSnapshot,
    /// Shard workers restarted from a checkpoint.
    pub restarts: u64,
    /// Scheduler epochs that finished past their deadline.
    pub overruns: u64,
    /// The service's observability registry at the end of the run
    /// (per-phase epoch histograms, `serve.*` counters, routing gauges).
    /// Diagnostic output only — never part of any invariant: each run
    /// owns a private registry, so twins stay comparable.
    pub obs: ObsSnapshot,
    /// Broken invariants (empty on a clean run).
    pub violations: Vec<String>,
}

impl ChaosOutcome {
    /// Whether every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// A one-line report for sweep output.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "seed {:>4}: epochs {} degraded {} | fired: drop {} delay {}({} released) dup {} \
             corrupt {} stall {} crash {} swapfail {} snapcorrupt {} poison {} | restarts {} \
             retries {} shed {} -> {}",
            self.seed,
            self.metrics.epochs_completed,
            self.metrics.degraded_epochs,
            self.counters.drops,
            self.counters.delays,
            self.counters.delays_released,
            self.counters.duplicates,
            self.counters.corrupts,
            self.counters.stalls,
            self.counters.crashes,
            self.counters.swap_fails,
            self.counters.snapshot_corruptions,
            self.counters.poisoned_checkpoints,
            self.restarts,
            self.metrics.ingest_retries,
            self.metrics.requests_shed,
            if self.ok() { "OK" } else { "FAIL" },
        );
        for v in &self.violations {
            let _ = write!(line, "\n  violation: {v}");
        }
        line
    }
}

/// The standard small two-shard scenario every serve test runs on.
pub fn chaos_scenario() -> Scenario {
    ScenarioConfig::small().florence().build(11)
}

fn request_events(epoch: u32, num_shards: usize, per_shard: usize, segments: u32) -> Vec<Event> {
    let mut events = Vec::with_capacity(num_shards * per_shard);
    for shard in 0..num_shards {
        for i in 0..per_shard {
            let mix = epoch as usize * 53 + i * 17 + shard * 29;
            events.push(Event::Request {
                shard,
                spec: RequestSpec {
                    appear_s: epoch * 300 + (i as u32 * 37) % 300,
                    segment: SegmentId((mix as u32) % segments),
                },
            });
        }
    }
    events
}

/// Where snapshot text `a` first differs from `b`, as
/// `diverge at byte N (<a_name> n bytes, <b_name> m bytes)`; `None` when
/// the texts are identical.
fn divergence(a: &str, b: &str, a_name: &str, b_name: &str) -> Option<String> {
    (a != b).then(|| {
        let at = a
            .bytes()
            .zip(b.bytes())
            .position(|(x, y)| x != y)
            .unwrap_or_else(|| a.len().min(b.len()));
        format!(
            "diverge at byte {at} ({a_name} {} bytes, {b_name} {} bytes)",
            a.len(),
            b.len()
        )
    })
}

/// A competent hand-weighted incumbent: it scores candidate zones by live
/// requests and remaining demand, penalises distance, and pins the
/// standby feature strongly negative; the seed adds a small perturbation
/// so sweeps still cover distinct policies. The shadow gate can only
/// separate a reward tank from an incumbent that reliably out-picks a
/// policy which recalls every team.
fn competent_policy(seed: u64) -> Mlp {
    let mut net = Mlp::new(&[FEATURE_DIM, 1], seed ^ 0x600d);
    let base = [-2.0, 1.0, 3.0, 0.0, 0.0, -1_000.0, 0.0];
    net.visit_params_mut(|i, w, _| {
        *w = base[i] + 0.05 * *w;
    });
    net
}

/// Rollout gates for the poisoned/stale-candidate harnesses: a strict
/// four-epoch shadow gate, with canary and watch slacks wide open — in
/// these harnesses those stages only need to *pass* for a good candidate
/// (the dedicated watch tests cover post-promotion regression).
fn shadow_gated_rollout() -> RolloutConfig {
    RolloutConfig {
        shadow_epochs: 4,
        shadow_slack: 0.0,
        canary_epochs: 2,
        canary_shards: 1,
        canary_slack: 1e9,
        watch_epochs: 2,
        watch_slack: 1e9,
        probe_bound: 1e6,
    }
}

/// Runs the full service under `opts` and checks every invariant.
///
/// # Errors
///
/// Returns the first *unexpected* service error — errors the plan itself
/// provokes (corrupt events rejected at ingestion, corrupted snapshots
/// rejected at restore) are part of the contract and checked, not
/// propagated.
pub fn run_chaos(seed: u64, opts: &ChaosOptions) -> Result<ChaosOutcome, ServeError> {
    let scenario = Arc::new(chaos_scenario());
    let injector = Arc::new(FaultInjector::new(opts.plan.clone()));
    let scheduled = injector.scheduled();
    let mut config = ServeConfig::new(SimConfig::small(6));
    config.num_shards = opts.num_shards;
    config.request_queue_capacity = opts.queue_capacity;
    config.faults = Some(injector.clone());
    config.epoch_deadline_ms = Some(opts.deadline_ms);
    config.auto_recover = true;
    let clock: Arc<SimClock> = Arc::new(SimClock::new());
    let registry = Arc::new(ModelRegistry::new(None, None));
    let service = DispatchService::start(
        Arc::clone(&scenario),
        config,
        Arc::clone(&clock) as Arc<dyn Clock>,
        Arc::clone(&registry),
    )?;
    let segments = scenario.city.network.num_segments() as u32;
    let retry = RetryPolicy::default();
    let mut violations = Vec::new();

    // The harness applies the ingest faults: one draw per offer (a retry
    // re-sends the same offer and draws nothing), and it tallies every
    // push attempt that reaches the service for the conservation check.
    let mut delivered = 0u64;
    let mut rejected_corrupt = 0u64;
    let mut held: Vec<(u32, Event)> = Vec::new();
    let mut ingest = |service: &DispatchService, epoch: u32| {
        let mut send = |event: Event| match service.ingest_with_retry(event, &retry) {
            Ok(_) => delivered += 1,
            Err(ServeError::World(_)) => rejected_corrupt += 1,
            Err(e) => violations.push(format!("unexpected ingest error: {e}")),
        };
        // Delayed offers whose release epoch has arrived go first, in
        // arrival order.
        for (_, event) in held.extract_if(.., |(release, _)| *release <= epoch) {
            injector.note_delay_released();
            send(event);
        }
        for event in request_events(epoch, opts.num_shards, opts.requests_per_epoch, segments) {
            match injector.next_ingest_fault() {
                None => send(event),
                Some(IngestFault::Drop) => {}
                Some(IngestFault::Delay(epochs)) => held.push((epoch + epochs.max(1), event)),
                Some(IngestFault::Duplicate) => {
                    send(event);
                    send(event);
                }
                Some(IngestFault::Corrupt) => send(Event::Request {
                    shard: event.shard(),
                    spec: RequestSpec {
                        appear_s: 0,
                        segment: SegmentId(u32::MAX),
                    },
                }),
            }
        }
        // A couple of advisories per epoch keep the advisory path hot
        // (one valid, one invalid — both bypass fault injection).
        let _ = service.ingest(Event::Weather {
            shard: epoch as usize % opts.num_shards,
            hour: epoch % 4,
            rain_mm: 1.5 + f64::from(epoch),
        });
        let _ = service.ingest(Event::RoadDamage {
            shard: 0,
            segment: SegmentId(u32::MAX),
            hour: 0,
            flooded: true,
        });
    };

    let mut scheduler = EpochScheduler::for_service(&service)?;
    let mut short_epochs = Vec::new();
    ingest(&service, 0);
    scheduler.run(&service, clock.as_ref(), opts.epochs, |e, reports| {
        if reports.len() != opts.num_shards {
            short_epochs.push(format!(
                "epoch {e} produced {} reports for {} shards",
                reports.len(),
                opts.num_shards
            ));
        }
        if e == opts.epochs / 2 {
            // Exercise the hot-swap path mid-run with a valid policy —
            // through the guarded rollout pipeline, like a deployment
            // would. With the pipeline's default gates the candidate is
            // usually still in flight at the end of the run, which drags
            // the rollout state through the snapshot-integrity check.
            // A scheduled checkpoint poison replaces the candidate in
            // transit, before the service sees it.
            let policy =
                injector.poison_checkpoint(Some(mlp_to_text(&Mlp::new(&[FEATURE_DIM, 8, 1], 5))));
            match service.submit_rollout(None, policy.as_deref()) {
                Ok(_) => {}
                // The typed admission rejection of a poison *is* the
                // contract.
                Err(ServeError::Rollout(_)) if scheduled.poisoned_checkpoints > 0 => {}
                Err(e) => short_epochs.push(format!("guarded rollout submission failed: {e}")),
            }
        }
        if e + 1 < opts.epochs {
            ingest(&service, e + 1);
        }
    })?;
    violations.extend(short_epochs);

    let metrics = service.metrics();
    let counters = injector.counters();
    let restarts = service.shard_restarts();

    // Invariant 1: no epoch skipped silently.
    if metrics.epochs_completed != opts.epochs {
        violations.push(format!(
            "completed {} epochs, expected {}",
            metrics.epochs_completed, opts.epochs
        ));
    }
    for (i, s) in metrics.shards.iter().enumerate() {
        if s.epochs != opts.epochs {
            violations.push(format!(
                "shard {i} at epoch {}, expected {}",
                s.epochs, opts.epochs
            ));
        }
    }

    // Invariant 2: conservation. Every push attempt that reached the
    // service — each delivered offer once, plus every retry — was either
    // admitted or shed.
    if rejected_corrupt != counters.corrupts {
        violations.push(format!(
            "{} typed corrupt rejections for {} corrupt faults",
            rejected_corrupt, counters.corrupts
        ));
    }
    let pushes = metrics.requests_accepted + metrics.requests_shed;
    let attempts = delivered + metrics.ingest_retries;
    if pushes != attempts {
        violations.push(format!(
            "accepted {} + shed {} = {pushes}, but {delivered} offers (+{} retries) \
             reached the service",
            metrics.requests_accepted, metrics.requests_shed, metrics.ingest_retries
        ));
    }
    let consumed: u64 = metrics
        .shards
        .iter()
        .map(|s| s.injected + s.rejected + s.queue_depth as u64)
        .sum();
    if metrics.requests_accepted != consumed {
        violations.push(format!(
            "accepted {} but shards account for {consumed} (injected + rejected + queued)",
            metrics.requests_accepted
        ));
    }

    // Invariant 3: degradation is honest.
    let degrading = counters.degrading();
    if (metrics.degraded_epochs > 0) != (degrading > 0) {
        violations.push(format!(
            "degraded_epochs {} with {degrading} degrading faults fired",
            metrics.degraded_epochs
        ));
    }
    if metrics.degraded_epochs > degrading {
        violations.push(format!(
            "degraded_epochs {} exceeds degrading faults fired {degrading}",
            metrics.degraded_epochs
        ));
    }
    let shard_degraded: u64 = metrics.shards.iter().map(|s| s.degraded).sum();
    if shard_degraded != degrading {
        violations.push(format!(
            "shards report {shard_degraded} degraded epochs, {degrading} degrading faults fired"
        ));
    }

    // Invariant 4: every crash was recovered, nothing else restarted.
    if restarts != counters.crashes {
        violations.push(format!(
            "{restarts} restarts for {} crashes",
            counters.crashes
        ));
    }

    // Invariant 6: swap-failure attribution. Every injected registry
    // failure is counted under its typed cause, and neither a bundle
    // build nor a rollout candidate failed in a run that schedules only
    // healthy checkpoints.
    if metrics.swap_failures_injected != counters.swap_fails
        || metrics.swap_failures_build != 0
        || metrics.swap_failures_rollout != 0
    {
        violations.push(format!(
            "swap failures attributed {}i/{}b/{}r, injector fired {}",
            metrics.swap_failures_injected,
            metrics.swap_failures_build,
            metrics.swap_failures_rollout,
            counters.swap_fails
        ));
    }

    // Invariant 5: snapshot integrity. A clean write restores to an equal
    // service; a corrupted write is rejected with a typed error.
    let snapshot = injector.corrupt_snapshot(service.snapshot()?);
    let wrote_corrupted = injector.counters().snapshot_corruptions > counters.snapshot_corruptions;
    let restored = DispatchService::restore(
        Arc::clone(&scenario),
        service.config().clone(),
        Arc::new(SimClock::new()) as Arc<dyn Clock>,
        Arc::clone(&registry),
        &snapshot,
    );
    match restored {
        Ok(restored) => {
            if wrote_corrupted {
                violations.push("corrupted snapshot restored without error".to_owned());
            } else if restored.metrics() != metrics {
                violations.push("restored metrics differ from the live service".to_owned());
            }
            restored.shutdown();
        }
        Err(ServeError::BadSnapshot(_)) if wrote_corrupted => {}
        Err(e) => violations.push(format!("snapshot restore failed unexpectedly: {e}")),
    }

    let counters = injector.counters();
    let overruns = scheduler.overruns();
    let obs = service.obs_snapshot();
    service.shutdown();
    Ok(ChaosOutcome {
        seed,
        scheduled,
        counters,
        metrics,
        restarts,
        overruns,
        obs,
        violations,
    })
}

/// The replay-masking check: a service whose shards crash (and recover
/// from checkpoints) must end **bit-identical** — snapshot text equality —
/// to an unfaulted twin fed the same event stream, because each crash's
/// faults are consumed when they fire and the replayed epoch runs clean.
///
/// Returns the list of divergences (empty when the runs converged).
///
/// # Errors
///
/// Returns the first service error from either run.
pub fn crash_replay_divergence(
    crashes: &[(u32, usize)],
    epochs: u32,
    num_shards: usize,
) -> Result<Vec<String>, ServeError> {
    let scenario = Arc::new(chaos_scenario());
    let mut plan = FaultPlan::empty();
    for &(epoch, shard) in crashes {
        plan = plan.with_crash(epoch, shard);
    }
    let injector = Arc::new(FaultInjector::new(plan));
    let run =
        |faults: Option<Arc<dyn FaultHooks>>| -> Result<(String, MetricsSnapshot, u64), ServeError> {
            let mut config = ServeConfig::new(SimConfig::small(6));
            config.num_shards = num_shards;
            config.request_queue_capacity = 8;
            config.epoch_deadline_ms = Some(10);
            config.auto_recover = faults.is_some();
            config.faults = faults;
            let clock: Arc<SimClock> = Arc::new(SimClock::new());
            let registry = Arc::new(ModelRegistry::new(None, None));
            let service = DispatchService::start(
                Arc::clone(&scenario),
                config,
                Arc::clone(&clock) as Arc<dyn Clock>,
                registry,
            )?;
            let segments = scenario.city.network.num_segments() as u32;
            let mut scheduler = EpochScheduler::for_service(&service)?;
            for event in request_events(0, num_shards, 4, segments) {
                service.ingest(event)?;
            }
            scheduler.run(&service, clock.as_ref(), epochs, |e, _| {
                if e + 1 < epochs {
                    for event in request_events(e + 1, num_shards, 4, segments) {
                        let _ = service.ingest(event);
                    }
                }
            })?;
            let snapshot = service.snapshot()?;
            let metrics = service.metrics();
            let restarts = service.shard_restarts();
            service.shutdown();
            Ok((snapshot, metrics, restarts))
        };
    let (faulted_snap, faulted_metrics, restarts) = run(Some(injector.clone()))?;
    let (clean_snap, clean_metrics, _) = run(None)?;
    let mut divergences = Vec::new();
    let crashes_fired = injector.counters().crashes;
    if crashes_fired != crashes.len() as u64 {
        divergences.push(format!(
            "{crashes_fired} crashes fired, {} scheduled",
            crashes.len()
        ));
    }
    if restarts != crashes_fired {
        divergences.push(format!("{restarts} restarts for {crashes_fired} crashes"));
    }
    if faulted_metrics != clean_metrics {
        divergences
            .push("metrics diverged between crashed+recovered and unfaulted runs".to_owned());
    }
    divergences.extend(
        divergence(&faulted_snap, &clean_snap, "faulted", "clean")
            .map(|d| format!("snapshot texts {d}")),
    );
    Ok(divergences)
}

/// What a poisoned-checkpoint chaos run should look like.
#[derive(Debug, Clone)]
pub struct RolloutChaosOptions {
    /// Dispatch epochs to drive (leave room after `good_at` for the good
    /// candidate's full shadow → canary → watch pipeline).
    pub epochs: u32,
    /// City shards to host.
    pub num_shards: usize,
    /// Request offers per shard per epoch.
    pub requests_per_epoch: usize,
    /// Poisoned checkpoints delivered (one per submission) before the good
    /// candidate. Structural poisons must be rejected at admission; a
    /// reward-tanking poison must be admitted and then killed by the
    /// shadow gate.
    pub poisons: Vec<CheckpointPoison>,
    /// Epoch after which the genuine candidate is submitted (every poison
    /// must have been consumed and resolved by then).
    pub good_at: u32,
}

impl RolloutChaosOptions {
    /// The standard sweep configuration: one poison of each kind, then a
    /// good candidate with enough epochs left to fully promote.
    pub fn standard(num_shards: usize) -> Self {
        Self {
            epochs: 18,
            num_shards,
            // Light enough that free teams exist at every dispatch tick:
            // the shadow gate can only separate a reward tank from the
            // incumbent when there is work a free team *could* take.
            requests_per_epoch: 3,
            poisons: vec![
                CheckpointPoison::NanWeights,
                CheckpointPoison::WrongDims,
                CheckpointPoison::RewardTank,
            ],
            good_at: 8,
        }
    }
}

/// The poisoned-checkpoint invariants, checked as a twin experiment:
///
/// * an **inadmissible** candidate (NaN weights, wrong dims) is rejected
///   with a typed error and never reaches the registry;
/// * an admitted but **reward-tanking** candidate never serves a primary
///   dispatch (it dies in shadow), and its rejection leaves the registry
///   pinned to the *exact* prior bundle (`Arc` identity);
/// * a run that saw every poison ends **bit-identical** — snapshot text
///   and metrics — to a twin run that never saw any poison, because every
///   guard fired before dispatch could be affected.
///
/// The incumbent starts from the same weights the good candidate carries,
/// so the good candidate's shadow replay ties the incumbent exactly and
/// passes the gate deterministically, while the reward tank — which
/// refuses every dispatch — falls strictly short.
///
/// Returns the list of divergences/violations (empty on a clean run).
///
/// # Errors
///
/// Returns the first *unexpected* service error from either run (typed
/// admission rejections are the contract, not errors).
pub fn rollout_chaos_divergence(
    seed: u64,
    opts: &RolloutChaosOptions,
) -> Result<Vec<String>, ServeError> {
    let scenario = Arc::new(chaos_scenario());
    // The incumbent (and the good candidate, which carries the same
    // weights) must be a *competent* dispatcher, not a random init.
    let good_net = competent_policy(seed);
    let good_text = mlp_to_text(&good_net);
    let segments = scenario.city.network.num_segments() as u32;
    // The tank must die in shadow: the shadow gate is the one under test.
    let rollout_cfg = shadow_gated_rollout();
    struct RunEnd {
        snapshot: String,
        metrics: MetricsSnapshot,
        swaps: u64,
        rollbacks: u64,
        final_version: u64,
        violations: Vec<String>,
    }
    let run = |poisons: &[CheckpointPoison]| -> Result<RunEnd, ServeError> {
        let mut plan = FaultPlan::empty();
        for &kind in poisons {
            plan = plan.with_poisoned_checkpoint(kind);
        }
        let injector = FaultInjector::new(plan);
        let mut config = ServeConfig::new(SimConfig::small(6));
        config.num_shards = opts.num_shards;
        config.request_queue_capacity = 8;
        config.rollout = rollout_cfg.clone();
        let clock: Arc<SimClock> = Arc::new(SimClock::new());
        let registry = Arc::new(ModelRegistry::new(None, Some(good_net.clone())));
        let v1 = registry.current();
        let service = DispatchService::start(
            Arc::clone(&scenario),
            config,
            Arc::clone(&clock) as Arc<dyn Clock>,
            Arc::clone(&registry),
        )?;
        let mut violations = Vec::new();
        let mut pending: VecDeque<CheckpointPoison> = poisons.iter().copied().collect();
        let mut scheduler = EpochScheduler::for_service(&service)?;
        for event in request_events(0, opts.num_shards, opts.requests_per_epoch, segments) {
            service.ingest(event)?;
        }
        scheduler.run(&service, clock.as_ref(), opts.epochs, |e, _| {
            // One submission at a time: poisoned deliveries first, the
            // genuine candidate at `good_at`. Every delivery starts as the
            // *good* text — the injector swaps the poison in transit.
            if e < opts.good_at && service.rollout_status().is_none() {
                if let Some(kind) = pending.pop_front() {
                    let delivered = injector.poison_checkpoint(Some(good_text.clone()));
                    let outcome = service.submit_rollout(None, delivered.as_deref());
                    match (kind, outcome) {
                        (CheckpointPoison::RewardTank, Ok(_)) => {}
                        (
                            CheckpointPoison::NanWeights | CheckpointPoison::WrongDims,
                            Err(ServeError::Rollout(RolloutError::Probe { .. })),
                        ) => {}
                        (kind, outcome) => violations.push(format!(
                            "epoch {e}: poisoned submission ({kind:?}) resolved as {outcome:?}"
                        )),
                    }
                }
            } else if e == opts.good_at {
                if let Err(err) = service.submit_rollout(None, Some(&good_text)) {
                    violations.push(format!("epoch {e}: good candidate rejected: {err}"));
                }
            }
            // While poisons are being delivered and screened, nothing may
            // serve but the exact original bundle: the registry still
            // holds the v1 Arc and every shard dispatches at version 1.
            if e < opts.good_at {
                if !Arc::ptr_eq(&registry.current(), &v1) {
                    violations.push(format!("epoch {e}: registry moved off the v1 bundle"));
                }
                for (i, s) in service.metrics().shards.iter().enumerate() {
                    if s.model_version != 1 {
                        violations.push(format!(
                            "epoch {e}: shard {i} served model v{} during poison screening",
                            s.model_version
                        ));
                    }
                }
            }
            if e + 1 < opts.epochs {
                for event in
                    request_events(e + 1, opts.num_shards, opts.requests_per_epoch, segments)
                {
                    let _ = service.ingest(event);
                }
            }
        })?;
        if !pending.is_empty() {
            violations.push(format!(
                "{} poisons never submitted (good_at too early)",
                pending.len()
            ));
        }
        let tanks = poisons
            .iter()
            .filter(|p| matches!(p, CheckpointPoison::RewardTank))
            .count() as u64;
        let structural = poisons.len() as u64 - tanks;
        let counters = service.rollout_counters();
        if counters.rejected != structural {
            violations.push(format!(
                "{} admission rejections for {structural} structural poisons",
                counters.rejected
            ));
        }
        if counters.admitted != tanks + 1 {
            violations.push(format!(
                "{} admissions for {tanks} reward tanks plus the good candidate",
                counters.admitted
            ));
        }
        if counters.rolled_back != tanks {
            violations.push(format!(
                "{} rollbacks for {tanks} reward tanks",
                counters.rolled_back
            ));
        }
        if injector.counters().poisoned_checkpoints != poisons.len() as u64 {
            violations.push(format!(
                "{} poisons fired, {} scheduled",
                injector.counters().poisoned_checkpoints,
                poisons.len()
            ));
        }
        if service.rollout_status().is_some() {
            violations.push("rollout still in flight at end of run".to_owned());
        }
        let snapshot = service.snapshot()?;
        let metrics = service.metrics();
        let end = RunEnd {
            snapshot,
            metrics,
            swaps: registry.swaps(),
            rollbacks: registry.rollbacks(),
            final_version: registry.current().version,
            violations,
        };
        service.shutdown();
        Ok(end)
    };
    let mut faulted = run(&opts.poisons)?;
    let clean = run(&[])?;
    let mut divergences = std::mem::take(&mut faulted.violations);
    for v in &clean.violations {
        divergences.push(format!("clean twin: {v}"));
    }
    // The good candidate promoted exactly once in both runs; no poison
    // ever made it far enough to need a registry-level rollback.
    for (name, end) in [("faulted", &faulted), ("clean", &clean)] {
        if end.swaps != 1 || end.rollbacks != 0 || end.final_version != 2 {
            divergences.push(format!(
                "{name} run ended at v{} with {} swaps, {} rollbacks (expected v2, 1, 0)",
                end.final_version, end.swaps, end.rollbacks
            ));
        }
    }
    if faulted.metrics != clean.metrics {
        divergences.push("metrics diverged between poisoned and clean runs".to_owned());
    }
    divergences.extend(
        divergence(&faulted.snapshot, &clean.snapshot, "poisoned", "clean")
            .map(|d| format!("snapshot texts {d}")),
    );
    Ok(divergences)
}

/// What a trainer chaos run should look like.
#[derive(Debug, Clone)]
pub struct TrainerChaosOptions {
    /// Dispatch epochs to drive.
    pub epochs: u32,
    /// City shards to host.
    pub num_shards: usize,
    /// Request offers per shard per epoch. Keep it light enough that free
    /// teams exist at every tick — the shadow gate can only separate a
    /// stale reward tank from the incumbent when there is work a free
    /// team *could* take.
    pub requests_per_epoch: usize,
}

impl TrainerChaosOptions {
    /// The standard sweep configuration.
    pub fn standard(num_shards: usize) -> Self {
        Self {
            epochs: 14,
            num_shards,
            requests_per_epoch: 3,
        }
    }
}

/// The online-training-loop invariants, checked as two arms:
///
/// **Arm A (floods + transition drops, no crashes):**
/// * **Transition conservation** — `train.transitions_offered` equals
///   accepted + shed even while injected drops destroy tapped transitions
///   upstream (a dropped transition is never *offered*), and the trainer's
///   own counters agree with the registry's.
/// * **No unguarded serve** — candidate emission is disabled, so every
///   rollout submission in the run is an injected stale, reward-tanking
///   candidate; the gates must keep the registry at v1, zero swaps, and
///   every shard serving v1 at every epoch.
/// * The trainer keeps learning through the faults.
///
/// **Arm B (boundary crashes):** a run whose trainer crashes at epoch
/// boundaries (respawning from its per-boundary checkpoint) must end
/// **bit-identical** — service snapshot text, metrics, trainer status and
/// policy checkpoint — to an unfaulted twin fed the same event stream.
///
/// Returns the list of violations/divergences (empty on a clean run).
///
/// # Errors
///
/// Returns the first service error from any run.
pub fn trainer_chaos_divergence(
    seed: u64,
    opts: &TrainerChaosOptions,
) -> Result<Vec<String>, ServeError> {
    let scenario = Arc::new(chaos_scenario());
    let segments = scenario.city.network.num_segments() as u32;
    // Competent incumbent (same construction as the rollout harness): the
    // shadow gate can only kill a reward-tanking flood candidate when the
    // incumbent reliably out-picks it.
    let incumbent = competent_policy(seed);
    let rollout_cfg = shadow_gated_rollout();
    let trainer_cfg = |candidate_every: u32| TrainerConfig {
        min_replay: 8,
        batch_size: 4,
        steps_per_epoch: 2,
        candidate_every,
        hidden: vec![8],
        seed,
        ..TrainerConfig::default()
    };
    struct RunEnd {
        snapshot: String,
        metrics: MetricsSnapshot,
        status: TrainerStatus,
        policy_text: String,
        swaps: u64,
        final_version: u64,
        fired: FaultCounters,
        offered: u64,
        accepted: u64,
        shed: u64,
        submitted: u64,
        admitted: u64,
        rejected: u64,
        violations: Vec<String>,
    }
    let run =
        |plan: FaultPlan, candidate_every: u32, check_pinned: bool| -> Result<RunEnd, ServeError> {
            let injector = Arc::new(FaultInjector::new(plan));
            let mut config = ServeConfig::new(SimConfig::small(6));
            config.num_shards = opts.num_shards;
            config.request_queue_capacity = 8;
            config.rollout = rollout_cfg.clone();
            config.trainer = Some(trainer_cfg(candidate_every));
            config.faults = Some(injector.clone());
            let clock: Arc<SimClock> = Arc::new(SimClock::new());
            let registry = Arc::new(ModelRegistry::new(None, Some(incumbent.clone())));
            let service = DispatchService::start(
                Arc::clone(&scenario),
                config,
                Arc::clone(&clock) as Arc<dyn Clock>,
                Arc::clone(&registry),
            )?;
            let mut violations = Vec::new();
            let mut scheduler = EpochScheduler::for_service(&service)?;
            for event in request_events(0, opts.num_shards, opts.requests_per_epoch, segments) {
                service.ingest(event)?;
            }
            scheduler.run(&service, clock.as_ref(), opts.epochs, |e, _| {
                if check_pinned {
                    // With emission disabled, every submission this run ever
                    // makes is an injected stale candidate — primary dispatch
                    // must stay pinned to v1 on every shard at every epoch.
                    for (i, s) in service.metrics().shards.iter().enumerate() {
                        if s.model_version != 1 {
                            violations.push(format!(
                            "epoch {e}: shard {i} served model v{} under a stale-candidate flood",
                            s.model_version
                        ));
                        }
                    }
                }
                if e + 1 < opts.epochs {
                    for event in
                        request_events(e + 1, opts.num_shards, opts.requests_per_epoch, segments)
                    {
                        let _ = service.ingest(event);
                    }
                }
            })?;
            let o = service.obs();
            let end = RunEnd {
                snapshot: service.snapshot()?,
                metrics: service.metrics(),
                status: service.trainer_status().expect("trainer configured"),
                policy_text: service.trainer_policy_text().expect("trainer configured"),
                swaps: registry.swaps(),
                final_version: registry.current().version,
                fired: injector.counters(),
                offered: o.counter("train.transitions_offered").value(),
                accepted: o.counter("train.transitions_accepted").value(),
                shed: o.counter("train.transitions_shed").value(),
                submitted: o.counter("train.candidates_submitted").value(),
                admitted: o.counter("train.candidates_admitted").value(),
                rejected: o.counter("train.candidates_rejected").value(),
                violations,
            };
            service.shutdown();
            Ok(end)
        };

    // Arm A: seeded floods and transition drops, with one of each forced
    // so every seed exercises both kinds.
    let flood_drop_cfg = FaultPlanConfig {
        trainer_horizon: opts.epochs,
        p_trainer_flood: 0.20,
        p_trainer_drop: 0.25,
        trainer_flood_len: 2,
        ..FaultPlanConfig::quiet(opts.epochs, opts.num_shards)
    };
    let plan_a = FaultPlan::generate(seed, &flood_drop_cfg)
        .with_trainer_fault(2, TrainerFault::StaleCandidateFlood(2))
        .with_trainer_fault(3, TrainerFault::TransitionDrop);
    let a = run(plan_a, 0, true)?;
    let mut divergences = a.violations;
    if a.fired.trainer_floods == 0 || a.fired.trainer_drops == 0 {
        divergences.push(format!(
            "arm A fired {} floods / {} drops, expected at least one of each",
            a.fired.trainer_floods, a.fired.trainer_drops
        ));
    }
    if a.offered != a.accepted + a.shed {
        divergences.push(format!(
            "transition conservation broken: offered {} != accepted {} + shed {}",
            a.offered, a.accepted, a.shed
        ));
    }
    if a.accepted != a.status.accepted || a.shed != a.status.shed || a.offered != a.status.offered {
        divergences.push(format!(
            "registry counters ({}/{}/{}) disagree with trainer status ({}/{}/{})",
            a.offered, a.accepted, a.shed, a.status.offered, a.status.accepted, a.status.shed
        ));
    }
    if a.offered == 0 {
        divergences.push("no transitions ever offered — the tap is dead".to_owned());
    }
    if a.status.steps == 0 {
        divergences.push("trainer never learned under flood/drop faults".to_owned());
    }
    if a.submitted == 0 || a.submitted != a.admitted + a.rejected {
        divergences.push(format!(
            "candidate accounting broken: submitted {} admitted {} rejected {}",
            a.submitted, a.admitted, a.rejected
        ));
    }
    if a.swaps != 0 || a.final_version != 1 {
        divergences.push(format!(
            "stale-candidate flood reached the registry: v{} after {} swaps",
            a.final_version, a.swaps
        ));
    }

    // Arm B: seeded boundary crashes (one forced) against an unfaulted
    // twin — recovery must be bit-identical.
    let crash_cfg = FaultPlanConfig {
        trainer_horizon: opts.epochs,
        p_trainer_crash: 0.20,
        ..FaultPlanConfig::quiet(opts.epochs, opts.num_shards)
    };
    let plan_b = FaultPlan::generate(seed, &crash_cfg).with_trainer_fault(1, TrainerFault::Crash);
    let faulted = run(plan_b, 5, false)?;
    let clean = run(FaultPlan::empty(), 5, false)?;
    for v in clean.violations {
        divergences.push(format!("clean twin: {v}"));
    }
    if faulted.fired.trainer_crashes == 0 {
        divergences.push("arm B fired no trainer crashes".to_owned());
    }
    if faulted.status != clean.status {
        divergences.push(format!(
            "trainer status diverged after crash recovery: {:?} vs {:?}",
            faulted.status, clean.status
        ));
    }
    if faulted.policy_text != clean.policy_text {
        divergences.push("trainer policy checkpoint diverged after crash recovery".to_owned());
    }
    if faulted.metrics != clean.metrics {
        divergences.push("metrics diverged between crashed and unfaulted trainer runs".to_owned());
    }
    divergences.extend(
        divergence(&faulted.snapshot, &clean.snapshot, "crashed", "clean")
            .map(|d| format!("snapshot texts {d}")),
    );
    Ok(divergences)
}

/// What a WAL chaos run should look like.
#[derive(Debug, Clone)]
pub struct WalChaosOptions {
    /// Dispatch epochs to drive (the crash arm snapshots at the halfway
    /// boundary, so keep this even and at least 2).
    pub epochs: u32,
    /// City shards to host.
    pub num_shards: usize,
    /// Request offers per shard per epoch.
    pub requests_per_epoch: usize,
    /// Seeded interior byte offsets the crash arm kills at, on top of the
    /// two endpoints (right after the boundary snapshot, and after every
    /// post-snapshot offer was journaled).
    pub interior_crash_points: usize,
}

impl WalChaosOptions {
    /// The standard sweep configuration.
    pub fn standard(num_shards: usize) -> Self {
        Self {
            epochs: 8,
            num_shards,
            requests_per_epoch: 4,
            interior_crash_points: 3,
        }
    }
}

/// A journal directory private to one harness run: test threads in one
/// process may run the same seed concurrently, so the process id and the
/// seed alone do not make it unique.
fn wal_chaos_dir(seed: u64, arm: &str) -> PathBuf {
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "mobirescue-walchaos-{}-{run}-{seed}-{arm}",
        std::process::id()
    ))
}

fn fresh_dir(dir: &Path) {
    let _ = fs::remove_dir_all(dir);
}

fn wal_serve_config(
    opts: &WalChaosOptions,
    dir: &Path,
    faults: Option<Arc<dyn FaultHooks>>,
) -> ServeConfig {
    let mut config = ServeConfig::new(SimConfig::small(6));
    config.num_shards = opts.num_shards;
    config.request_queue_capacity = 8;
    config.faults = faults;
    let mut wal = WalConfig::new(dir);
    // One segment keeps the crash arm's byte-offset arithmetic over a
    // single file; rotation/compaction have their own unit coverage.
    wal.segment_max_bytes = 1 << 20;
    wal.fsync = FsyncPolicy::Always;
    config.wal = Some(wal);
    config
}

/// The one journal segment a [`wal_serve_config`] run produced.
fn only_segment(dir: &Path) -> Result<PathBuf, String> {
    let mut segs: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("journal dir unreadable: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    segs.sort();
    match segs.len() {
        1 => Ok(segs.remove(0)),
        n => Err(format!("expected one journal segment, found {n}")),
    }
}

/// Flips one bit of the first record of the one journal segment under
/// `dir` and reads it back to confirm the damage landed.
fn flip_first_record_bit(dir: &Path) -> Result<(), String> {
    let segment = only_segment(dir)?;
    let read = |p: &Path| fs::read(p).map_err(|e| format!("read {}: {e}", p.display()));
    let mut bytes = read(&segment)?;
    let header_len = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or("journal segment has no header line")?
        + 1;
    let at = header_len + 4;
    let Some(&original) = bytes.get(at) else {
        return Err(format!("journal segment too short to flip byte {at}"));
    };
    bytes[at] ^= 0x10;
    fs::write(&segment, &bytes).map_err(|e| format!("write {}: {e}", segment.display()))?;
    if read(&segment)?.get(at) != Some(&(original ^ 0x10)) {
        return Err(format!("bit flip at byte {at} did not land"));
    }
    Ok(())
}

/// The durable-ingest-journal invariants, checked as four arms:
///
/// **Arm A (seeded torn appends + fsync stalls):**
/// * every injected torn append surfaces as a typed
///   [`ServeError::Wal`]([`WalError::TornTail`]) refusal at ingestion —
///   the request was never made durable, so it is never acked;
/// * **conservation** — every acked (admitted) request is dispatched
///   (injected into a world), rejected by it, or still journaled in a
///   queue: `acked == dispatched + still_journaled`;
/// * the journal stays parseable through every injected tear (the tail
///   self-heals exactly as recovery would truncate it), so the final
///   snapshot restores over the same journal directory to an equal
///   service.
///
/// **Arm A2 (stall-only twin):** a run whose appends stall on fsync ends
/// **bit-identical** — snapshot text and metrics — to a twin that never
/// stalled: durability latency must never leak into state.
///
/// **Arm B (kill -9 at any byte):** a reference run snapshots at the
/// halfway boundary, journals one more epoch's offers, then finishes
/// cleanly. For each crash offset — right after the boundary snapshot,
/// after every post-snapshot offer, and seeded interior bytes (torn
/// mid-record included) — a twin restores from the boundary snapshot plus
/// the journal *truncated at that byte*, re-offers exactly the suffix the
/// truncated journal lost (the client-retry model: an un-journaled offer
/// was never acked), runs the remaining epochs, and must end
/// **bit-identical** to the reference: snapshot text, metrics, and
/// journal sequence numbers.
///
/// **Arm C (interior bit flip):** a run whose journal was bit-flipped
/// in place must be *refused* at recovery with a typed
/// [`WalError::Corrupt`] naming the segment and byte offset — never a
/// panic, never a silent wrong replay.
///
/// Returns the list of violations/divergences (empty on a clean run).
///
/// # Errors
///
/// Returns the first *unexpected* service error from any run (typed torn
/// refusals and the arm-C corrupt rejection are the contract, not
/// errors).
pub fn wal_chaos_divergence(seed: u64, opts: &WalChaosOptions) -> Result<Vec<String>, ServeError> {
    let scenario = Arc::new(chaos_scenario());
    let segments = scenario.city.network.num_segments() as u32;
    let mut violations = Vec::new();

    // ---- Arm A: seeded torn appends + fsync stalls, one of each forced.
    {
        let dir = wal_chaos_dir(seed, "a");
        fresh_dir(&dir);
        let cfg = FaultPlanConfig::wal_chaos(opts.epochs, opts.num_shards);
        let plan = FaultPlan::generate(seed, &cfg)
            .with_wal_fault(1, WalFault::TornAppend)
            .with_wal_fault(4, WalFault::FsyncStall(7));
        let injector = Arc::new(FaultInjector::new(plan));
        let config = wal_serve_config(opts, &dir, Some(injector.clone()));
        let clock: Arc<SimClock> = Arc::new(SimClock::new());
        let registry = Arc::new(ModelRegistry::new(None, None));
        let service = DispatchService::start(
            Arc::clone(&scenario),
            config,
            Arc::clone(&clock) as Arc<dyn Clock>,
            Arc::clone(&registry),
        )?;
        let mut torn_refused = 0u64;
        let mut ingest_errors = Vec::new();
        {
            let mut offer = |service: &DispatchService, epoch: u32| {
                for event in
                    request_events(epoch, opts.num_shards, opts.requests_per_epoch, segments)
                {
                    match service.ingest(event) {
                        Ok(_) => {}
                        Err(ServeError::Wal(WalError::TornTail { .. })) => torn_refused += 1,
                        Err(e) => ingest_errors.push(format!("unexpected ingest error: {e}")),
                    }
                }
            };
            let mut scheduler = EpochScheduler::for_service(&service)?;
            offer(&service, 0);
            scheduler.run(&service, clock.as_ref(), opts.epochs, |e, _| {
                if e + 1 < opts.epochs {
                    offer(&service, e + 1);
                }
            })?;
        }
        violations.extend(ingest_errors);
        let counters = injector.counters();
        if counters.wal_torn == 0 {
            violations.push("arm A fired no torn appends".to_owned());
        }
        if counters.wal_stalls == 0 {
            violations.push("arm A fired no fsync stalls".to_owned());
        }
        if torn_refused != counters.wal_torn {
            violations.push(format!(
                "{torn_refused} typed torn refusals for {} torn appends fired",
                counters.wal_torn
            ));
        }
        // Conservation: acked == dispatched + still_journaled.
        let metrics = service.metrics();
        let consumed: u64 = metrics
            .shards
            .iter()
            .map(|s| s.injected + s.rejected + s.queue_depth as u64)
            .sum();
        if metrics.requests_accepted != consumed {
            violations.push(format!(
                "acked {} but shards account for {consumed} (dispatched + still journaled)",
                metrics.requests_accepted
            ));
        }
        // Every injected tear self-healed: the journal directory restores
        // to an equal service.
        let snapshot = service.snapshot()?;
        match DispatchService::restore(
            Arc::clone(&scenario),
            service.config().clone(),
            Arc::new(SimClock::new()) as Arc<dyn Clock>,
            Arc::clone(&registry),
            &snapshot,
        ) {
            Ok(restored) => {
                if restored.metrics() != metrics {
                    violations
                        .push("arm A restore over the torn journal diverged from live".to_owned());
                }
                if restored.wal_last_seq() != service.wal_last_seq() {
                    violations.push(format!(
                        "arm A restore recovered journal seq {}, live is at {}",
                        restored.wal_last_seq(),
                        service.wal_last_seq()
                    ));
                }
                restored.shutdown();
            }
            Err(e) => violations.push(format!("arm A journal unrecoverable after tears: {e}")),
        }
        service.shutdown();
        fresh_dir(&dir);
    }

    // ---- Arm A2: fsync stalls must never leak into state.
    {
        let run = |arm: &str, plan: FaultPlan| -> Result<(String, MetricsSnapshot), ServeError> {
            let dir = wal_chaos_dir(seed, arm);
            fresh_dir(&dir);
            let injector = Arc::new(FaultInjector::new(plan));
            let config = wal_serve_config(opts, &dir, Some(injector));
            let clock: Arc<SimClock> = Arc::new(SimClock::new());
            let service = DispatchService::start(
                Arc::clone(&scenario),
                config,
                Arc::clone(&clock) as Arc<dyn Clock>,
                Arc::new(ModelRegistry::new(None, None)),
            )?;
            let mut scheduler = EpochScheduler::for_service(&service)?;
            for event in request_events(0, opts.num_shards, opts.requests_per_epoch, segments) {
                service.ingest(event)?;
            }
            scheduler.run(&service, clock.as_ref(), opts.epochs, |e, _| {
                if e + 1 < opts.epochs {
                    for event in
                        request_events(e + 1, opts.num_shards, opts.requests_per_epoch, segments)
                    {
                        let _ = service.ingest(event);
                    }
                }
            })?;
            let end = (service.snapshot()?, service.metrics());
            service.shutdown();
            fresh_dir(&dir);
            Ok(end)
        };
        let stall_cfg = FaultPlanConfig {
            wal_horizon: 64,
            p_wal_stall: 0.5,
            wal_stall_ms: 15,
            ..FaultPlanConfig::quiet(opts.epochs, opts.num_shards)
        };
        let plan = FaultPlan::generate(seed, &stall_cfg).with_wal_fault(0, WalFault::FsyncStall(5));
        let (stalled_snap, stalled_metrics) = run("a2s", plan)?;
        let (clean_snap, clean_metrics) = run("a2c", FaultPlan::empty())?;
        if stalled_metrics != clean_metrics {
            violations.push("metrics diverged between stalled and clean journal runs".to_owned());
        }
        violations.extend(
            divergence(&stalled_snap, &clean_snap, "stalled", "clean")
                .map(|d| format!("stall twin snapshots {d}")),
        );
    }

    // ---- Arm B: kill -9 at any byte of the journal.
    {
        let mid = (opts.epochs / 2).max(1);
        let dir = wal_chaos_dir(seed, "ref");
        fresh_dir(&dir);
        let config = wal_serve_config(opts, &dir, None);
        let clock: Arc<SimClock> = Arc::new(SimClock::new());
        let service = DispatchService::start(
            Arc::clone(&scenario),
            config,
            Arc::clone(&clock) as Arc<dyn Clock>,
            Arc::new(ModelRegistry::new(None, None)),
        )?;
        let mut scheduler = EpochScheduler::for_service(&service)?;
        for event in request_events(0, opts.num_shards, opts.requests_per_epoch, segments) {
            service.ingest(event)?;
        }
        scheduler.run(&service, clock.as_ref(), mid, |e, _| {
            if e + 1 < mid {
                for event in
                    request_events(e + 1, opts.num_shards, opts.requests_per_epoch, segments)
                {
                    let _ = service.ingest(event);
                }
            }
        })?;
        // The boundary snapshot pins the journal high-water mark; every
        // offer after it lives only in the journal until dispatched.
        let boundary_snapshot = service.snapshot()?;
        let hwm = service.wal_last_seq();
        let segment = match only_segment(&dir) {
            Ok(p) => p,
            Err(why) => {
                violations.push(format!("arm B: {why}"));
                service.shutdown();
                fresh_dir(&dir);
                return Ok(violations);
            }
        };
        let prefix_len = fs::read(&segment)
            .map_err(|e| ServeError::Io(format!("read {}: {e}", segment.display())))?
            .len();
        let post: Vec<Event> =
            request_events(mid, opts.num_shards, opts.requests_per_epoch, segments);
        for event in post.iter().cloned() {
            service.ingest(event)?;
        }
        let journal = fs::read(&segment)
            .map_err(|e| ServeError::Io(format!("read {}: {e}", segment.display())))?;
        let mut tail = EpochScheduler::for_service(&service)?;
        tail.run(&service, clock.as_ref(), opts.epochs - mid, |_, _| {})?;
        let reference_snapshot = service.snapshot()?;
        let reference_metrics = service.metrics();
        let reference_seq = service.wal_last_seq();
        service.shutdown();

        if journal.len() <= prefix_len {
            violations.push("arm B journal never grew past the boundary snapshot".to_owned());
        } else {
            // Crash offsets: both endpoints plus seeded interior bytes —
            // interior cuts usually land mid-record, exercising the torn
            // tail truncation on the recovery path.
            let span = (journal.len() - prefix_len) as u64;
            let mut cuts = vec![prefix_len, journal.len()];
            let mut x = seed ^ 0x0007_7a1c_4a05_u64;
            for _ in 0..opts.interior_crash_points {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                cuts.push(prefix_len + (x % span) as usize);
            }
            cuts.sort_unstable();
            cuts.dedup();
            let segment_file = segment.file_name().expect("segment has a name").to_owned();
            for (i, &cut) in cuts.iter().enumerate() {
                let crash_dir = wal_chaos_dir(seed, &format!("b{i}"));
                fresh_dir(&crash_dir);
                fs::create_dir_all(&crash_dir)
                    .map_err(|e| ServeError::Io(format!("create {}: {e}", crash_dir.display())))?;
                fs::write(crash_dir.join(&segment_file), &journal[..cut])
                    .map_err(|e| ServeError::Io(format!("write truncated journal: {e}")))?;
                let config = wal_serve_config(opts, &crash_dir, None);
                let clock: Arc<SimClock> = Arc::new(SimClock::new());
                let restored = DispatchService::restore(
                    Arc::clone(&scenario),
                    config,
                    Arc::clone(&clock) as Arc<dyn Clock>,
                    Arc::new(ModelRegistry::new(None, None)),
                    &boundary_snapshot,
                )?;
                let recovered = restored.wal_last_seq();
                if recovered < hwm {
                    violations.push(format!(
                        "crash at byte {cut}: recovery lost journal seq {recovered} below \
                         snapshot hwm {hwm}"
                    ));
                }
                // The client-retry model: an offer the truncated journal
                // lost was never acked, so the client re-offers exactly
                // that suffix, in order.
                let missing = (hwm + post.len() as u64 - recovered) as usize;
                for event in post[post.len() - missing..].iter().cloned() {
                    restored.ingest(event)?;
                }
                let mut tail = EpochScheduler::for_service(&restored)?;
                tail.run(&restored, clock.as_ref(), opts.epochs - mid, |_, _| {})?;
                let crashed_snapshot = restored.snapshot()?;
                if restored.metrics() != reference_metrics {
                    violations.push(format!(
                        "crash at byte {cut}: metrics diverged from the never-crashed twin"
                    ));
                }
                if restored.wal_last_seq() != reference_seq {
                    violations.push(format!(
                        "crash at byte {cut}: journal resumed at seq {}, twin at {reference_seq}",
                        restored.wal_last_seq()
                    ));
                }
                violations.extend(
                    divergence(&crashed_snapshot, &reference_snapshot, "crashed", "twin")
                        .map(|d| format!("crash at byte {cut}: snapshots {d}")),
                );
                restored.shutdown();
                fresh_dir(&crash_dir);
            }
        }
        fresh_dir(&dir);
    }

    // ---- Arm C: an interior bit flip is a typed refusal, never a panic.
    {
        let dir = wal_chaos_dir(seed, "c");
        fresh_dir(&dir);
        let config = wal_serve_config(opts, &dir, None);
        let service = DispatchService::start(
            Arc::clone(&scenario),
            config,
            Arc::new(SimClock::new()) as Arc<dyn Clock>,
            Arc::new(ModelRegistry::new(None, None)),
        )?;
        for event in request_events(0, opts.num_shards, opts.requests_per_epoch, segments) {
            let _ = service.ingest(event);
        }
        // Silent storage rot: one bit of the first journaled record flips
        // on disk, mid-line — interior damage, unambiguously not a tear.
        if let Err(why) = flip_first_record_bit(&dir) {
            violations.push(format!("arm C: {why}"));
        }
        let snapshot = service.snapshot()?;
        match DispatchService::restore(
            Arc::clone(&scenario),
            service.config().clone(),
            Arc::new(SimClock::new()) as Arc<dyn Clock>,
            Arc::new(ModelRegistry::new(None, None)),
            &snapshot,
        ) {
            Err(ServeError::Wal(WalError::Corrupt { segment, .. })) => {
                if segment.is_empty() {
                    violations.push("arm C corrupt refusal names no segment".to_owned());
                }
            }
            Ok(restored) => {
                violations.push("bit-flipped journal recovered without error".to_owned());
                restored.shutdown();
            }
            Err(e) => violations.push(format!("arm C refused with the wrong error: {e}")),
        }
        service.shutdown();
        fresh_dir(&dir);
    }

    Ok(violations)
}
