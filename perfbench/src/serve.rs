//! Calls into the `serve`, `wal` and `net` layers, timed from here: every
//! traced run replays an open-loop request stream over the charlotte
//! scenario at `RATE_RPS` into an in-process `DispatchService` configured like
//! `serve --listen --wal-dir` (2 shards, 100 ms epochs, `--fsync always`,
//! a snapshot persisted every epoch), and times standalone `mrnet 1`
//! frame coding and one-entry journal appends.

use crate::elapsed_ms;
use crate::report::Outcome;
use crate::stats::{median, percentile, sorted};
use mobirescue_core::scenario::Scenario;
use mobirescue_net::Frame;
use mobirescue_obs::{Registry, WallTime};
use mobirescue_roadnet::graph::SegmentId;
use mobirescue_serve::{
    Clock, DispatchService, Event, FsyncPolicy, ModelRegistry, ServeConfig, Wal, WalConfig,
    WalEntry, WallClock,
};
use mobirescue_sim::types::{RequestSpec, SimConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open-loop ingest rate of the replay: about a third of the rate at
/// which the TCP front door's p99 ack latency leaves its flat region on a
/// 2-core x86-64 box.
const RATE_RPS: u64 = 1_000;
/// Shards and epoch period of `serve --listen` (its defaults).
const SHARDS: u32 = 2;
const PERIOD_MS: u64 = 100;
/// Standalone calls per micro-measurement.
const MICRO_REPS: usize = 200;

/// Where cargo puts build outputs; scratch journals go under it so the
/// benchmark writes nothing outside the checkout.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
}

/// Per-layer `net`, `wal` and `serve` metrics: `n` requests replayed at
/// `RATE_RPS` into an in-process service over `scenario`.
pub fn layers(out: &mut Outcome, scenario: Arc<Scenario>, seed: u64, n: u64) -> Result<(), String> {
    let wal_dir = target_dir().join(format!("perfbench-wal-{}", std::process::id()));
    let segments = scenario.city.network.num_segments() as u32;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf00d);
    let result = replay(out, scenario, &mut rng, segments, n, &wal_dir);
    let _ = std::fs::remove_dir_all(&wal_dir);
    result
}

fn replay(
    out: &mut Outcome,
    scenario: Arc<Scenario>,
    rng: &mut StdRng,
    segments: u32,
    n: u64,
    wal_dir: &Path,
) -> Result<(), String> {
    // net: encode + decode of one request frame, timed in batches.
    const BATCH: usize = 1_000;
    let frame = Frame::Request {
        id: 7,
        shard: 1,
        appear_s: 42,
        segment: 4_242,
    };
    let codec: Vec<f64> = (0..MICRO_REPS / 4)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..BATCH {
                let bytes = std::hint::black_box(&frame).encode();
                std::hint::black_box(Frame::decode(&bytes).map_err(|e| format!("{e:?}")))
                    .expect("a fresh frame decodes");
            }
            elapsed_ms(t0) * 1e3 / BATCH as f64
        })
        .collect();
    out.put("net.codec_us", median(&codec));

    // wal: one-entry appends, fsync always, on the same filesystem.
    let dir = wal_dir.join("append");
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = WalConfig::new(&dir);
    cfg.fsync = FsyncPolicy::Always;
    let (mut wal, _) = Wal::open(cfg, &Registry::new(), Arc::new(WallTime::new()))
        .map_err(|e| format!("{e:?}"))?;
    let append: Vec<f64> = (0..MICRO_REPS)
        .map(|i| {
            let entry = WalEntry {
                clock_ms: i as u64,
                shard: 0,
                spec: RequestSpec {
                    appear_s: 0,
                    segment: SegmentId(i as u32 % segments),
                },
            };
            let t0 = Instant::now();
            wal.append(&[entry]).map_err(|e| format!("{e:?}"))?;
            Ok(elapsed_ms(t0) * 1e3)
        })
        .collect::<Result<_, String>>()?;
    drop(wal);
    out.put("wal.append_us_p50", median(&append));

    // serve: the service `serve --listen` runs, fed an open-loop stream at
    // RATE_RPS while a second thread runs the epoch loop and persists a
    // snapshot after every epoch.
    // Covers every epoch the replay runs (n / RATE_RPS seconds of 100 ms
    // epochs, 300 simulated seconds each).
    let mut sim = SimConfig::paper(scenario.conditions.first_hour());
    sim.duration_hours = 48;
    let mut config = ServeConfig::new(sim);
    config.num_shards = SHARDS as usize;
    let dir = wal_dir.join("service");
    let _ = std::fs::remove_dir_all(&dir);
    let mut wal_cfg = WalConfig::new(dir.join("journal"));
    wal_cfg.fsync = FsyncPolicy::Always;
    config.wal = Some(wal_cfg);
    let clock = Arc::new(WallClock::new());
    let service = DispatchService::start(
        Arc::clone(&scenario),
        config,
        clock as Arc<dyn Clock>,
        Arc::new(ModelRegistry::new(None, None)),
    )
    .map_err(|e| format!("{e:?}"))?;
    let stop = AtomicBool::new(false);
    let snapshot_path = dir.join("snapshot.txt");
    let (ingest_us, accepted, epochs) = std::thread::scope(|s| {
        let epochs = s.spawn(|| -> Result<(Vec<f64>, Vec<f64>, usize), String> {
            let (mut run, mut snap, mut depth) = (Vec::new(), Vec::new(), 0);
            let start = Instant::now();
            let mut k = 1u32;
            while !stop.load(Ordering::SeqCst) {
                let target = start + Duration::from_millis(PERIOD_MS) * k;
                let now = Instant::now();
                if target > now {
                    std::thread::sleep(target - now);
                }
                k += 1;
                let m = service.metrics();
                depth = depth.max(m.shards.iter().map(|s| s.queue_depth).max().unwrap_or(0));
                let t0 = Instant::now();
                service.run_epoch().map_err(|e| format!("{e:?}"))?;
                run.push(elapsed_ms(t0));
                let t0 = Instant::now();
                persist(&service, &snapshot_path)?;
                snap.push(elapsed_ms(t0));
            }
            Ok((run, snap, depth))
        });
        let period = Duration::from_nanos(1_000_000_000 / RATE_RPS);
        let start = Instant::now();
        let mut ingest_us = Vec::with_capacity(n as usize);
        let mut accepted = 0u64;
        let mut result = Ok(());
        for i in 0..n {
            let due = start + period * i as u32;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let (shard, appear_s, segment) = (
                rng.random_range(0..SHARDS),
                rng.random_range(0..300),
                rng.random_range(0..segments),
            );
            let event = Event::Request {
                shard: shard as usize,
                spec: RequestSpec {
                    appear_s,
                    segment: SegmentId(segment),
                },
            };
            let t0 = Instant::now();
            match service.ingest(event) {
                Ok(ok) => accepted += u64::from(ok),
                Err(e) => {
                    result = Err(format!("ingest: {e:?}"));
                    break;
                }
            }
            ingest_us.push(elapsed_ms(t0) * 1e3);
        }
        stop.store(true, Ordering::SeqCst);
        let epochs = epochs
            .join()
            .map_err(|_| "epoch thread panicked".to_owned())?;
        result.map(|()| (ingest_us, accepted, epochs))
    })?;
    let (run, snap, depth) = epochs?;
    let fsyncs = service.obs().counter("wal.fsyncs").value();
    service.shutdown();
    if accepted == 0 || run.is_empty() {
        return Err("the in-process service accepted nothing or ran no epoch".into());
    }
    let ingest = sorted(&ingest_us);
    out.put("serve.ingest_us_p50", percentile(&ingest, 50.0));
    out.put("serve.ingest_us_p99", percentile(&ingest, 99.0));
    out.put("wal.fsyncs_per_ack", fsyncs as f64 / accepted as f64);
    out.put("serve.epoch_ms_p50", median(&run));
    out.put("serve.snapshot_ms_p50", median(&snap));
    out.put("serve.queue_depth_max", depth as f64);
    Ok(())
}

/// Persists a snapshot the way `serve --listen --wal-dir` does each epoch:
/// write + fsync a temporary file, rename it into place, fsync the
/// directory, then compact the journal.
fn persist(service: &DispatchService, path: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    let text = service.snapshot().map_err(|e| format!("{e:?}"))?;
    let tmp = path.with_extension("txt.tmp");
    let mut f = std::fs::File::create(&tmp).map_err(io)?;
    f.write_all(text.as_bytes()).map_err(io)?;
    f.sync_all().map_err(io)?;
    std::fs::rename(&tmp, path).map_err(io)?;
    std::fs::File::open(path.parent().expect("snapshot lives in a directory"))
        .and_then(|d| d.sync_all())
        .map_err(io)?;
    service.wal_compact().map_err(|e| format!("{e:?}"))?;
    Ok(())
}
