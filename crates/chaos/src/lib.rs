//! `mobirescue-chaos`: seeded fault plans and the chaos harnesses that
//! drive the dispatch service and its TCP front door through them.
//!
//! Nothing here ships in the `serve` binary. The production crates know
//! only `mobirescue_serve::FaultHooks`, a four-method trait whose every
//! hook defaults to "no fault"; this crate decides which faults exist in
//! a run and when they fire, and checks what the service must guarantee
//! when they do:
//!
//! * **Fault plans** ([`fault`]) — a [`FaultPlan`] is a seeded,
//!   inspectable schedule (dropped/delayed/duplicated/corrupted offers,
//!   shard stalls and crashes, failed hot-swaps, snapshot corruption,
//!   poisoned checkpoints, front-door connection faults, trainer and WAL
//!   faults); a [`FaultInjector`] hands each fault out exactly once and
//!   implements `FaultHooks` for the in-process kinds.
//! * **Service harnesses** ([`serve`]) — [`run_chaos`],
//!   [`crash_replay_divergence`], [`rollout_chaos_divergence`],
//!   [`trainer_chaos_divergence`] and [`wal_chaos_divergence`] run a full
//!   `DispatchService` on a `SimClock` and return broken invariants as
//!   strings.
//! * **Front-door harness** ([`net`]) — [`run_net_chaos`] drives a real
//!   TCP listener with a seeded misbehaving client under conservation
//!   accounting.
//!
//! The root `tests/*chaos*.rs` suites and the `chaos` sweep binary in
//! `mobirescue-bench` iterate the same [`CHAOS_SEEDS`], so a failing seed
//! from a sweep reproduces as a test.

#![warn(missing_docs)]

pub mod fault;
pub mod net;
pub mod serve;

pub use fault::{
    ConnFault, FaultCounters, FaultInjector, FaultPlan, FaultPlanConfig, IngestFault,
    ScheduledFaults, SnapshotCorruption,
};
pub use net::{run_net_chaos, NetChaosOptions, NetChaosReport};
pub use serve::{
    chaos_scenario, crash_replay_divergence, rollout_chaos_divergence, run_chaos,
    trainer_chaos_divergence, wal_chaos_divergence, ChaosOptions, ChaosOutcome,
    RolloutChaosOptions, TrainerChaosOptions, WalChaosOptions, CHAOS_SEEDS,
};
