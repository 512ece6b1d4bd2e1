//! The epoch scheduler: drives [`DispatchService::run_epoch`] on the
//! paper's dispatch period against a pluggable [`Clock`].

use crate::error::ServeError;
use crate::service::DispatchService;
use crate::Clock;
use mobirescue_sim::EpochReport;

/// Runs the dispatch tick every `period_ms` of clock time.
///
/// The scheduler sleeps toward fixed epoch deadlines (`start +
/// (n+1)·period`) rather than sleeping a fixed amount after each tick, so
/// one slow epoch does not shift every later deadline. Epochs whose work
/// finishes past their deadline are counted as overruns and the next epoch
/// starts immediately.
///
/// On a [`crate::SimClock`] the sleep advances simulated time instantly,
/// so a full accelerated day takes milliseconds of wall time while every
/// deadline is still hit "exactly".
#[derive(Debug)]
pub struct EpochScheduler {
    period_ms: u64,
    overruns: u64,
}

impl EpochScheduler {
    /// A scheduler ticking every `period_ms` (the paper's period is
    /// 300 000 ms — five minutes).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for a zero period.
    pub fn new(period_ms: u64) -> Result<Self, ServeError> {
        if period_ms == 0 {
            return Err(ServeError::BadConfig(
                "the dispatch period must be positive",
            ));
        }
        Ok(Self {
            period_ms,
            overruns: 0,
        })
    }

    /// A scheduler matching the service's configured dispatch period.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadConfig`] for a zero period.
    pub fn for_service(service: &DispatchService) -> Result<Self, ServeError> {
        Self::new(u64::from(service.config().sim.dispatch_period_s) * 1_000)
    }

    /// The dispatch period, milliseconds.
    pub fn period_ms(&self) -> u64 {
        self.period_ms
    }

    /// Epochs that finished after their deadline so far.
    pub fn overruns(&self) -> u64 {
        self.overruns
    }

    /// Drives `epochs` dispatch ticks, invoking `on_epoch` with each
    /// epoch's index and per-shard reports.
    ///
    /// # Errors
    ///
    /// Propagates the first [`DispatchService::run_epoch`] failure; epochs
    /// already completed stay completed.
    pub fn run(
        &mut self,
        service: &DispatchService,
        clock: &dyn Clock,
        epochs: u32,
        mut on_epoch: impl FnMut(u32, &[EpochReport]),
    ) -> Result<(), ServeError> {
        let start = clock.now_ms();
        for e in 0..epochs {
            let reports = service.run_epoch()?;
            on_epoch(e, &reports);
            let deadline = start + u64::from(e + 1) * self.period_ms;
            let now = clock.now_ms();
            if now > deadline {
                self.overruns += 1;
            } else {
                clock.sleep_ms(deadline - now);
            }
        }
        Ok(())
    }
}
