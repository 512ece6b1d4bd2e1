//! Pluggable time for span measurement and scheduling.
//!
//! Nothing in this crate reads the OS clock directly: spans measure on a
//! [`TimeSource`]. Deployments pass [`WallTime`]; deterministic tests pass
//! [`ManualTime`], whose sleeps return instantly and whose reads only move
//! when something advances it, so instrumented runs produce bit-identical
//! results — observability must never perturb determinism. The serve
//! runtime schedules its epochs on the same trait (re-exported there as
//! `Clock`, `WallClock` and `SimClock`), so every span it records
//! measures on the clock its scheduler runs on.

use crate::histogram::Histogram;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonic millisecond clock spans measure on.
pub trait TimeSource: Send + Sync {
    /// Milliseconds since an arbitrary (per-source) origin.
    fn now_ms(&self) -> u64;

    /// Blocks (or simulates blocking) for `ms` milliseconds.
    fn sleep_ms(&self, ms: u64);
}

/// Real time, anchored at construction: [`TimeSource::sleep_ms`] blocks
/// the calling thread.
#[derive(Debug)]
pub struct WallTime {
    start: Instant,
}

impl WallTime {
    /// A wall time source starting at zero now.
    pub fn new() -> Self {
        Self {
            start: Instant::now(),
        }
    }
}

impl Default for WallTime {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeSource for WallTime {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    fn sleep_ms(&self, ms: u64) {
        std::thread::sleep(Duration::from_millis(ms));
    }
}

/// Simulated time: only moves when advanced, and sleeping advances it
/// instantly. Deterministic — two runs see identical timestamps.
#[derive(Debug, Default)]
pub struct ManualTime {
    now: AtomicU64,
}

impl ManualTime {
    /// A manual time source at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the source by `ms`.
    pub fn advance_ms(&self, ms: u64) {
        self.now.fetch_add(ms, Ordering::Relaxed);
    }
}

impl TimeSource for ManualTime {
    fn now_ms(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }

    fn sleep_ms(&self, ms: u64) {
        self.advance_ms(ms);
    }
}

/// A guard that records the milliseconds between its creation and its
/// drop into a [`Histogram`] — the `span!`-like primitive. Obtain one
/// via [`Histogram::time`]; call [`SpanTimer::discard`] to abandon the
/// measurement instead.
pub struct SpanTimer<'a> {
    hist: &'a Histogram,
    source: &'a dyn TimeSource,
    start_ms: u64,
    armed: bool,
}

impl<'a> SpanTimer<'a> {
    pub(crate) fn start(hist: &'a Histogram, source: &'a dyn TimeSource) -> Self {
        Self {
            hist,
            source,
            start_ms: source.now_ms(),
            armed: true,
        }
    }

    /// Milliseconds elapsed so far.
    pub fn elapsed_ms(&self) -> u64 {
        self.source.now_ms().saturating_sub(self.start_ms)
    }

    /// Drops the guard without recording anything.
    pub fn discard(mut self) {
        self.armed = false;
    }
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.hist.record(self.elapsed_ms());
        }
    }
}

/// An optional, shareable time source for embedding in hot structures
/// (the simulation engine, the dispatcher): disabled by default, in which
/// case every read is a branch on `None` and no clock is touched.
#[derive(Clone, Default)]
pub struct PhaseTimer {
    source: Option<Arc<dyn TimeSource>>,
}

impl PhaseTimer {
    /// A timer that never measures (the default for batch runs).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A timer measuring on `source`.
    pub fn new(source: Arc<dyn TimeSource>) -> Self {
        Self {
            source: Some(source),
        }
    }

    /// Whether a time source is attached.
    pub fn enabled(&self) -> bool {
        self.source.is_some()
    }

    /// The current time, or `None` when disabled.
    pub fn now_ms(&self) -> Option<u64> {
        self.source.as_ref().map(|s| s.now_ms())
    }

    /// Milliseconds since `start` (a value previously returned by
    /// [`PhaseTimer::now_ms`]); 0 when disabled.
    pub fn elapsed_since(&self, start: Option<u64>) -> u64 {
        match (start, self.now_ms()) {
            (Some(t0), Some(t1)) => t1.saturating_sub(t0),
            _ => 0,
        }
    }
}

impl fmt::Debug for PhaseTimer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PhaseTimer")
            .field("enabled", &self.enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_time_is_deterministic() {
        let t = ManualTime::new();
        assert_eq!(t.now_ms(), 0);
        t.advance_ms(40);
        assert_eq!(t.now_ms(), 40);
        t.sleep_ms(250);
        assert_eq!(t.now_ms(), 290, "sleeping advances manual time");
    }

    #[test]
    fn wall_time_moves() {
        let t = WallTime::new();
        let a = t.now_ms();
        t.sleep_ms(2);
        assert!(t.now_ms() > a);
    }

    #[test]
    fn span_records_on_drop_and_discard_does_not() {
        let h = Histogram::new();
        let t = ManualTime::new();
        {
            let span = h.time(&t);
            t.advance_ms(7);
            assert_eq!(span.elapsed_ms(), 7);
        }
        let snap = h.snapshot();
        assert_eq!((snap.count(), snap.max), (1, 7));
        let span = h.time(&t);
        t.advance_ms(100);
        span.discard();
        assert_eq!(h.snapshot().count(), 1);
    }

    #[test]
    fn disabled_phase_timer_reads_nothing() {
        let p = PhaseTimer::disabled();
        assert!(!p.enabled());
        assert_eq!(p.now_ms(), None);
        assert_eq!(p.elapsed_since(None), 0);
        let m = Arc::new(ManualTime::new());
        let p = PhaseTimer::new(Arc::clone(&m) as Arc<dyn TimeSource>);
        let t0 = p.now_ms();
        m.advance_ms(5);
        assert_eq!(p.elapsed_since(t0), 5);
    }
}
