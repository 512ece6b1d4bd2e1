//! The `serve` binary: the online dispatch service, in two modes.
//!
//! **Demo mode** (default) drives the service on the charlotte-like
//! scenario in accelerated (simulated-clock) time, demonstrating every
//! serving feature end to end:
//!
//! 1. starts a two-shard service over the charlotte-like city under
//!    Hurricane Florence, on the paper's 5-minute dispatch period;
//! 2. streams rescue requests and weather/road-damage advisories into the
//!    bounded ingest queues from producer threads;
//! 3. rolls out a freshly trained SVM predictor + DQN policy checkpoint
//!    mid-run through the guarded promotion pipeline — the first delivery
//!    is a poisoned (NaN-weight) checkpoint and dies at the admission
//!    probe with a typed error; the clean retry is admitted and
//!    staged through shadow evaluation and a canary shard before
//!    fleet-wide promotion, all without pausing ingestion;
//! 4. snapshots the whole service at an epoch boundary — with the canary
//!    stage still in flight — tears it down, restores it from the
//!    snapshot text, and finishes the promotion on the restored service;
//! 5. prints periodic metrics and a final report, exiting 0 on success.
//!
//! **Listen mode** (`--listen ADDR`) serves the `mrnet 1` TCP front door
//! on a wall clock: requests arrive over sockets (e.g. from the `loadgen`
//! bin in `mobirescue-bench`), dispatch epochs tick at `--period-ms`, and
//! overload surfaces to clients as NACK frames. Exits 0 after `--epochs`
//! epochs with a graceful drain.
//!
//! **Train mode** (`--train`) closes the learning loop on an accelerated
//! simulated clock: the shards tap their dispatch transitions into the
//! background DQN trainer, the trainer periodically emits candidate
//! checkpoints into the guarded rollout pipeline, the service snapshots
//! and restores mid-run with the trainer's replay buffer and optimizer
//! state intact, and the run exits 0 only if at least one self-trained
//! candidate was submitted, the transition-conservation invariant held,
//! and the `train.*` metrics are live.

use mobirescue_core::predictor::{PredictorConfig, RequestPredictor};
use mobirescue_core::rl_dispatch::{RlDispatchConfig, FEATURE_DIM};
use mobirescue_core::scenario::{Scenario, ScenarioConfig};
use mobirescue_net::{NetConfig, NetServer};
use mobirescue_rl::nn::Mlp;
use mobirescue_rl::persist::mlp_to_text;
use mobirescue_roadnet::graph::SegmentId;
use mobirescue_serve::{
    poisoned_policy_text, CheckpointPoison, Clock, DispatchService, EpochScheduler, Event,
    FsyncPolicy, ModelRegistry, RolloutConfig, RolloutError, ServeConfig, ServeError, SimClock,
    TrainerConfig, WalConfig, WallClock,
};
use mobirescue_sim::{RequestSpec, SimConfig};
use std::io::Write as _;
use std::sync::Arc;

const SEED: u64 = 20180914; // Florence's landfall date.
const NUM_SHARDS: usize = 2;
const PHASE1_EPOCHS: u32 = 7;
const PHASE2_EPOCHS: u32 = 5;
const SWAP_AT_EPOCH: u32 = 3;

fn usage() -> String {
    "usage: serve [--listen ADDR] [OPTIONS]

Modes:
  (default)            run the accelerated end-to-end serving demo
  --listen ADDR        serve the mrnet 1 TCP front door on ADDR
                       (e.g. 127.0.0.1:0 to pick an ephemeral port)
  --train              run the accelerated online-training demo: shards
                       feed the background DQN trainer, whose candidates
                       enter the guarded rollout pipeline

Listen/train-mode options:
  --scenario NAME      world to serve: small | medium | charlotte | metro
                       | multi_city (default: small). Metro presets serve
                       the storm-hour condition window of a 100k+-segment
                       multi-district world
  --shards N           city shards (default: 2)
  --epochs N           dispatch epochs before draining (default: 60)
  --period-ms MS       wall-clock milliseconds per dispatch epoch
                       (default: 100; listen mode only)
  --queue-capacity N   per-shard request queue capacity (default: 1024)
  --max-conns N        concurrent connection cap; over-cap connects get
                       `mrnet 1 busy` (default: 64; listen mode only)
  --wal-dir DIR        durable ingest journal + epoch snapshots in DIR;
                       on start, restores DIR/snapshot.txt if present and
                       replays the journal suffix, so a kill -9 loses no
                       acked request (listen mode only)
  --fsync POLICY       journal fsync policy: always | epoch | off
                       (default: always; needs --wal-dir)
  --quiet              suppress per-epoch output

Common options:
  --metrics-out FILE   write the mrobs 1 metrics dump at exit
  --metrics-prom FILE  write Prometheus exposition text at exit
  --help               print this message and exit"
        .to_owned()
}

struct Args {
    listen: Option<String>,
    train: bool,
    scenario: String,
    shards: usize,
    epochs: u32,
    period_ms: u64,
    queue_capacity: usize,
    max_conns: usize,
    wal_dir: Option<std::path::PathBuf>,
    fsync: FsyncPolicy,
    quiet: bool,
    metrics_out: Option<std::path::PathBuf>,
    metrics_prom: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        listen: None,
        train: false,
        scenario: "small".to_owned(),
        shards: NUM_SHARDS,
        epochs: 60,
        period_ms: 100,
        queue_capacity: 1_024,
        max_conns: 64,
        wal_dir: None,
        fsync: FsyncPolicy::Always,
        quiet: false,
        metrics_out: None,
        metrics_prom: None,
    };
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => parsed.listen = Some(value(&mut args, "--listen")?),
            "--train" => parsed.train = true,
            "--scenario" => {
                let name = value(&mut args, "--scenario")?;
                if ScenarioConfig::from_name(&name).is_none() {
                    return Err(format!(
                        "unknown scenario {name:?} (expected small, medium, charlotte, \
                         metro, or multi_city)"
                    ));
                }
                parsed.scenario = name;
            }
            "--shards" => {
                parsed.shards = value(&mut args, "--shards")?
                    .parse()
                    .map_err(|_| "--shards needs a positive integer".to_owned())?;
            }
            "--epochs" => {
                parsed.epochs = value(&mut args, "--epochs")?
                    .parse()
                    .map_err(|_| "--epochs needs a positive integer".to_owned())?;
            }
            "--period-ms" => {
                parsed.period_ms = value(&mut args, "--period-ms")?
                    .parse()
                    .map_err(|_| "--period-ms needs a positive integer".to_owned())?;
            }
            "--queue-capacity" => {
                parsed.queue_capacity = value(&mut args, "--queue-capacity")?
                    .parse()
                    .map_err(|_| "--queue-capacity needs a positive integer".to_owned())?;
            }
            "--max-conns" => {
                parsed.max_conns = value(&mut args, "--max-conns")?
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .ok_or_else(|| "--max-conns needs a positive integer".to_owned())?;
            }
            "--wal-dir" => {
                parsed.wal_dir = Some(value(&mut args, "--wal-dir")?.into());
            }
            "--fsync" => {
                let policy = value(&mut args, "--fsync")?;
                parsed.fsync = FsyncPolicy::parse(&policy).ok_or_else(|| {
                    format!("--fsync must be always, epoch or off, got {policy:?}")
                })?;
            }
            "--quiet" => parsed.quiet = true,
            "--metrics-out" => {
                parsed.metrics_out = Some(value(&mut args, "--metrics-out")?.into());
            }
            "--metrics-prom" => {
                parsed.metrics_prom = Some(value(&mut args, "--metrics-prom")?.into());
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("serve: {message}\n\n{}", usage());
            std::process::exit(2);
        }
    };
    if args.listen.is_some() && args.train {
        eprintln!(
            "serve: --listen and --train are mutually exclusive\n\n{}",
            usage()
        );
        std::process::exit(2);
    }
    let result = match args.listen.clone() {
        Some(addr) => run_listen(&args, &addr),
        None if args.train => run_train(&args),
        None => run_demo(&args),
    };
    if let Err(e) = result {
        eprintln!("serve: {e:?}");
        std::process::exit(1);
    }
}

fn dump_metrics(args: &Args, obs: &mobirescue_obs::ObsSnapshot) -> Result<(), ServeError> {
    if let Some(path) = &args.metrics_out {
        std::fs::write(path, obs.to_text()).map_err(|e| ServeError::Io(e.to_string()))?;
        println!("wrote mrobs 1 metrics dump to {}", path.display());
    }
    if let Some(path) = &args.metrics_prom {
        std::fs::write(path, obs.to_prometheus()).map_err(|e| ServeError::Io(e.to_string()))?;
        println!("wrote Prometheus exposition to {}", path.display());
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Listen mode: the TCP front door on a wall clock.
// ---------------------------------------------------------------------

fn run_listen(args: &Args, addr: &str) -> Result<(), ServeError> {
    let scenario = Arc::new(build_scenario(&args.scenario));
    // Simulation starts at the first covered condition hour (0 for the
    // classic presets; the storm window's opening hour for metro presets).
    let first = scenario.conditions.first_hour();
    let hours = scenario.conditions.hours();
    // Size the simulated window to cover every epoch (the dispatch period
    // is simulated seconds; the wall-clock pacing below is independent).
    let base = if args.scenario == "small" {
        SimConfig::small(first)
    } else {
        SimConfig::paper(first)
    };
    let needed_hours = (args.epochs * base.dispatch_period_s).div_ceil(3_600) + 1;
    let sim = SimConfig {
        duration_hours: needed_hours.min(hours - first),
        ..base
    };
    let max_epochs = sim.duration_hours * 3_600 / sim.dispatch_period_s;
    let epochs = args.epochs.min(max_epochs);
    if epochs < args.epochs && !args.quiet {
        println!(
            "note: scenario covers {} epochs, clamping --epochs {}",
            max_epochs, args.epochs
        );
    }
    let mut config = ServeConfig::new(sim);
    config.num_shards = args.shards.max(1);
    config.request_queue_capacity = args.queue_capacity.max(1);
    // With --wal-dir, every accepted request is journaled (and fsynced
    // per --fsync) before its Ack leaves the process, and the service
    // snapshots to DIR/snapshot.txt at each epoch boundary.
    let snapshot_path = args.wal_dir.as_ref().map(|dir| dir.join("snapshot.txt"));
    if let Some(dir) = &args.wal_dir {
        std::fs::create_dir_all(dir).map_err(|e| ServeError::Io(e.to_string()))?;
        let mut wal_cfg = WalConfig::new(dir.join("journal"));
        wal_cfg.fsync = args.fsync;
        config.wal = Some(wal_cfg);
    }
    let clock: Arc<WallClock> = Arc::new(WallClock::new());
    let registry = Arc::new(ModelRegistry::new(None, None));
    let prior_snapshot = match &snapshot_path {
        Some(path) if path.exists() => {
            Some(std::fs::read_to_string(path).map_err(|e| ServeError::Io(e.to_string()))?)
        }
        _ => None,
    };
    let recovering = prior_snapshot.is_some();
    let service = Arc::new(match prior_snapshot {
        Some(text) => DispatchService::restore(
            Arc::clone(&scenario),
            config,
            Arc::clone(&clock) as Arc<dyn Clock>,
            registry,
            &text,
        )?,
        None => DispatchService::start(
            Arc::clone(&scenario),
            config,
            Arc::clone(&clock) as Arc<dyn Clock>,
            registry,
        )?,
    });
    if recovering {
        // The line the crash-recovery smoke parses: everything on this
        // line is already durable again, so `accepted` is the floor no
        // previously-acked request may fall below.
        let m = service.metrics();
        println!(
            "recovered: epochs {} accepted {} journal_seq {}",
            m.epochs_completed,
            m.requests_accepted,
            service.wal_last_seq()
        );
    }
    let mut net_cfg = NetConfig::new(addr);
    net_cfg.max_connections = args.max_conns;
    let mut server = NetServer::start(
        Arc::clone(&service),
        Arc::clone(&clock) as Arc<dyn Clock>,
        net_cfg,
    )
    .map_err(|e| ServeError::Io(e.to_string()))?;

    // The line load generators and scripts wait for — flush immediately.
    println!("listening on {}", server.local_addr());
    std::io::stdout().flush().ok();
    if !args.quiet {
        println!(
            "serving {} ({} segments, {} shards), {} epochs at {} ms/epoch",
            args.scenario,
            scenario.city.network.num_segments(),
            args.shards,
            epochs,
            args.period_ms
        );
    }

    let start_ms = clock.now_ms();
    for epoch in 0..epochs {
        let target = start_ms + (u64::from(epoch) + 1) * args.period_ms;
        let now = clock.now_ms();
        if target > now {
            clock.sleep_ms(target - now);
        }
        server.epoch_started();
        let reports = service.run_epoch()?;
        server.epoch_finished();
        if let Some(path) = &snapshot_path {
            // Persist-then-compact, in that order: the snapshot must be
            // durably renamed into place before the journal prefix it
            // covers may be dropped, so a kill -9 between the two steps
            // only ever leaves extra journal to replay, never a gap. The
            // tmp file is fsynced before the rename and the directory
            // after it — compaction deletes the only other copy of the
            // covered records, so a power loss must not be able to drop
            // the renamed directory entry.
            let text = service.snapshot()?;
            let tmp = path.with_extension("txt.tmp");
            let io = |e: std::io::Error| ServeError::Io(e.to_string());
            {
                let mut f = std::fs::File::create(&tmp).map_err(io)?;
                f.write_all(text.as_bytes()).map_err(io)?;
                f.sync_all().map_err(io)?;
            }
            std::fs::rename(&tmp, path).map_err(io)?;
            let dir = match path.parent() {
                Some(d) if !d.as_os_str().is_empty() => d,
                _ => std::path::Path::new("."),
            };
            std::fs::File::open(dir)
                .and_then(|d| d.sync_all())
                .map_err(io)?;
            service.wal_compact()?;
        }
        if !args.quiet && (epoch + 1) % 10 == 0 {
            let report = server.report();
            println!(
                "epoch {}: {} shard reports | acked {} shed-nacked {} i2d p99 {} ms",
                epoch + 1,
                reports.len(),
                report.requests_acked,
                report.sheds_nacked,
                report.i2d_p99
            );
        }
    }

    // Drain: NACK stragglers, close every connection, then stop shards.
    server.shutdown();
    let report = server.report();
    drop(server);
    println!(
        "drained after {} epochs: {} frames decoded, {} acked, {} shed-nacked, \
         {} rejected, i2d p50/p99/p999 = {}/{}/{} ms over {} requests",
        epochs,
        report.frames_decoded,
        report.requests_acked,
        report.sheds_nacked,
        report.requests_rejected,
        report.i2d_p50,
        report.i2d_p99,
        report.i2d_p999,
        report.i2d_count
    );
    if !args.quiet {
        println!("\n{}", service.metrics().render());
        println!(
            "observability summary:\n{}",
            service.obs_snapshot().render_summary()
        );
    }
    dump_metrics(args, &service.obs_snapshot())?;
    Arc::try_unwrap(service)
        .map_err(|_| ServeError::Shard {
            shard: 0,
            message: "service still referenced at shutdown".to_owned(),
        })?
        .shutdown();
    println!("serve: clean shutdown");
    Ok(())
}

// ---------------------------------------------------------------------
// Demo mode: the accelerated end-to-end feature tour.
// ---------------------------------------------------------------------

/// Builds the named preset's Florence scenario (the name is validated at
/// argument-parse time, so the lookup cannot fail here).
fn build_scenario(name: &str) -> Scenario {
    ScenarioConfig::from_name(name)
        .expect("scenario name validated by parse_args")
        .florence()
        .build(SEED)
}

/// A deterministic synthetic request stream for one shard and epoch,
/// mimicking the repo's test idiom (mined rescue records need the full
/// mobility pipeline; the service only cares about the arrival process).
fn epoch_requests(scenario: &Scenario, shard: usize, epoch: u32) -> Vec<RequestSpec> {
    let num_segments = scenario.city.network.num_segments() as u32;
    let base = epoch * 300;
    (0..8u32)
        .map(|i| {
            let mix = (epoch * 131 + i * 37 + shard as u32 * 61).wrapping_mul(2_654_435_761);
            RequestSpec {
                appear_s: base + i * 35,
                segment: SegmentId(mix % num_segments),
            }
        })
        .collect()
}

/// Streams one epoch's worth of events into the service from producer
/// threads — ingestion is concurrent with (and independent of) the epoch
/// loop.
fn ingest_epoch(service: &Arc<DispatchService>, scenario: &Arc<Scenario>, epoch: u32) {
    let handles: Vec<_> = (0..NUM_SHARDS)
        .map(|shard| {
            let service = Arc::clone(service);
            let scenario = Arc::clone(scenario);
            std::thread::spawn(move || {
                let mut accepted = 0u32;
                for spec in epoch_requests(&scenario, shard, epoch) {
                    if service
                        .ingest(Event::Request { shard, spec })
                        .expect("in-range shard and segment")
                    {
                        accepted += 1;
                    }
                }
                // One advisory of each kind per shard per epoch, pinned to
                // the covered condition window.
                let hour = (scenario.conditions.first_hour() + epoch / 12)
                    .min(scenario.conditions.hours() - 1);
                service
                    .ingest(Event::Weather {
                        shard,
                        hour,
                        rain_mm: 4.0 + f64::from(epoch),
                    })
                    .expect("in-range shard");
                service
                    .ingest(Event::RoadDamage {
                        shard,
                        segment: SegmentId((epoch * 97 + shard as u32) % 500),
                        hour,
                        flooded: epoch.is_multiple_of(2),
                    })
                    .expect("in-range shard");
                accepted
            })
        })
        .collect();
    let total: u32 = handles
        .into_iter()
        .map(|h| h.join().expect("producer thread"))
        .sum();
    println!("  ingested {total} requests for epoch {epoch}");
}

/// Trains a fresh SVM predictor + DQN policy and round-trips both through
/// the on-disk checkpoint formats, returning the texts a deployment would
/// hand to [`DispatchService::submit_rollout`].
fn train_candidate(rl: &RlDispatchConfig) -> Result<(String, String), ServeError> {
    // The paper trains on the *previous* disaster (Michael) before serving
    // the live one; a small scenario keeps the demo quick — the factor
    // vector has fixed dimensions, so the model transfers.
    let training = ScenarioConfig::small().michael().build(SEED);
    let predictor = RequestPredictor::train_on(&training, &PredictorConfig::default());
    let mut dims = vec![FEATURE_DIM];
    dims.extend_from_slice(&rl.hidden);
    dims.push(1);
    let policy = Mlp::new(&dims, rl.seed ^ 0xd15b);

    let dir = std::path::Path::new("target/serve-demo");
    std::fs::create_dir_all(dir).map_err(|e| ServeError::Io(e.to_string()))?;
    let predictor_path = dir.join("predictor.txt");
    let policy_path = dir.join("policy.txt");
    std::fs::write(&predictor_path, predictor.to_text())
        .map_err(|e| ServeError::Io(e.to_string()))?;
    std::fs::write(&policy_path, mlp_to_text(&policy))
        .map_err(|e| ServeError::Io(e.to_string()))?;
    let predictor_text =
        std::fs::read_to_string(&predictor_path).map_err(|e| ServeError::Io(e.to_string()))?;
    let policy_text =
        std::fs::read_to_string(&policy_path).map_err(|e| ServeError::Io(e.to_string()))?;
    Ok((predictor_text, policy_text))
}

fn run_demo(args: &Args) -> Result<(), ServeError> {
    println!("building the charlotte-like Florence scenario (seed {SEED})...");
    let scenario = Arc::new(ScenarioConfig::charlotte_like().florence().build(SEED));
    let hours = scenario.conditions.hours();
    let start_hour = hours / 2;
    println!(
        "  {} segments, {} hospitals, {hours} disaster hours; serving from hour {start_hour}",
        scenario.city.network.num_segments(),
        scenario.city.hospitals.len(),
    );

    let sim = SimConfig {
        num_teams: 20,
        duration_hours: 2u32.min(hours - start_hour),
        ..SimConfig::paper(start_hour)
    };
    let rl = RlDispatchConfig::default();
    // The first checkpoint delivery carries NaN weights: the rollout
    // admission probe must reject it, typed, and the clean retry goes
    // through the staged pipeline. Slacks are wide open so a demo-sized
    // candidate promotes — gate *strictness* is the chaos suite's job;
    // the demo shows the stages.
    let config = ServeConfig {
        num_shards: NUM_SHARDS,
        sim: sim.clone(),
        rl: rl.clone(),
        rollout: RolloutConfig {
            shadow_epochs: 2,
            shadow_slack: 1e9,
            canary_epochs: 2,
            canary_shards: 1,
            canary_slack: 1e9,
            watch_epochs: 2,
            watch_slack: 1e9,
            ..RolloutConfig::default()
        },
        ..ServeConfig::new(sim)
    };
    let clock: Arc<SimClock> = Arc::new(SimClock::new());
    let registry = Arc::new(ModelRegistry::new(None, None));

    println!(
        "starting {NUM_SHARDS} shards, {}s dispatch period, simulated clock",
        config.sim.dispatch_period_s
    );
    let service = Arc::new(DispatchService::start(
        Arc::clone(&scenario),
        config.clone(),
        Arc::clone(&clock) as Arc<dyn Clock>,
        Arc::clone(&registry),
    )?);

    // Phase 1: epochs 0..PHASE1_EPOCHS with a mid-run guarded rollout.
    // The first delivery of the trained checkpoint is poisoned in transit
    // (NaN weights); admission rejects it and the retry enters the
    // pipeline.
    ingest_epoch(&service, &scenario, 0);
    let mut scheduler = EpochScheduler::for_service(&service)?;
    let mut swap_failed = None;
    {
        let service_cb = Arc::clone(&service);
        let scenario_cb = Arc::clone(&scenario);
        let rl_cb = rl.clone();
        scheduler.run(&service, clock.as_ref(), PHASE1_EPOCHS, |epoch, reports| {
            let delivered: u32 = reports.iter().map(|r| r.delivered).sum();
            println!(
                "epoch {epoch}: {} shard reports, {delivered} delivered",
                reports.len()
            );
            if epoch == SWAP_AT_EPOCH {
                println!("  submitting freshly trained SVM + DQN checkpoints for rollout...");
                match train_candidate(&rl_cb) {
                    Ok((predictor_text, policy_text)) => {
                        let poisoned = poisoned_policy_text(CheckpointPoison::NanWeights);
                        match service_cb.submit_rollout(Some(&predictor_text), Some(&poisoned)) {
                            Err(ServeError::Rollout(RolloutError::Probe { artifact, message })) => {
                                println!(
                                    "  checkpoint delivery was corrupted in transit; admission \
                                     rejected the {artifact} artifact: {message}"
                                );
                                println!("  re-fetching the checkpoint and resubmitting...");
                                match service_cb
                                    .submit_rollout(Some(&predictor_text), Some(&policy_text))
                                {
                                    Ok(Some(status)) => println!(
                                        "  candidate v{} admitted, entering {} stage",
                                        status.version, status.stage
                                    ),
                                    Ok(None) => println!("  candidate promoted immediately"),
                                    Err(e) => swap_failed = Some(e),
                                }
                            }
                            Ok(_) => {
                                swap_failed = Some(ServeError::Io(
                                    "poisoned checkpoint passed admission".to_owned(),
                                ))
                            }
                            Err(e) => swap_failed = Some(e),
                        }
                    }
                    Err(e) => swap_failed = Some(e),
                }
            } else if let Some(status) = service_cb.rollout_status() {
                println!(
                    "  rollout v{}: {} stage, {} epochs in",
                    status.version, status.stage, status.epochs_done
                );
            }
            ingest_epoch(&service_cb, &scenario_cb, epoch + 1);
        })?;
    }
    if let Some(e) = swap_failed {
        return Err(e);
    }
    println!("\nafter phase 1:\n{}", service.metrics().render());
    let status = service
        .rollout_status()
        .expect("the canary stage straddles the snapshot boundary");
    println!(
        "rollout v{} still in flight ({} stage) — it must survive the restore",
        status.version, status.stage
    );

    // Snapshot/restore cycle: serialize, tear the service down, rebuild.
    println!("snapshotting the service and killing it...");
    let snapshot = service.snapshot()?;
    let metrics_before = service.metrics();
    // Keep the run's telemetry in one place across the restore: the dead
    // service's registry is handed to its successor (safe exactly because
    // the predecessor is shut down — restore overwrites the counters from
    // the snapshot, and the phase histograms keep accumulating).
    let obs_registry = Arc::clone(service.obs());
    println!("  snapshot is {} bytes", snapshot.len());
    Arc::try_unwrap(service)
        .map_err(|_| ServeError::Shard {
            shard: 0,
            message: "service still referenced at shutdown".to_owned(),
        })?
        .shutdown();

    println!("restoring from the snapshot...");
    let restore_config = ServeConfig {
        obs: Some(obs_registry),
        ..config
    };
    let service = Arc::new(DispatchService::restore(
        Arc::clone(&scenario),
        restore_config,
        Arc::clone(&clock) as Arc<dyn Clock>,
        Arc::clone(&registry),
        &snapshot,
    )?);
    assert_eq!(
        service.metrics(),
        metrics_before,
        "restored metrics must equal the snapshotted ones"
    );
    println!("  restored; metrics identical to the snapshot point");

    // Phase 2: keep serving from where the snapshot left off.
    {
        let service_cb = Arc::clone(&service);
        let scenario_cb = Arc::clone(&scenario);
        scheduler.run(&service, clock.as_ref(), PHASE2_EPOCHS, |i, reports| {
            let epoch = PHASE1_EPOCHS + i;
            let delivered: u32 = reports.iter().map(|r| r.delivered).sum();
            println!(
                "epoch {epoch}: {} shard reports, {delivered} delivered",
                reports.len()
            );
            if let Some(status) = service_cb.rollout_status() {
                println!(
                    "  rollout v{}: {} stage, {} epochs in",
                    status.version, status.stage, status.epochs_done
                );
            }
            if i + 1 < PHASE2_EPOCHS {
                ingest_epoch(&service_cb, &scenario_cb, epoch + 1);
            }
        })?;
    }

    let metrics = service.metrics();
    println!(
        "\nfinal report after {} epochs:\n{}",
        metrics.epochs_completed,
        metrics.render()
    );
    assert!(
        metrics.epochs_completed >= 10,
        "the demo must drive at least 10 epochs"
    );
    assert_eq!(metrics.model_swaps, 1, "the hot-swap must have happened");
    assert_eq!(
        metrics.model_version, 2,
        "the candidate promoted fleet-wide"
    );
    assert!(
        service.rollout_status().is_none(),
        "the pipeline must have completed"
    );
    let rollouts = service.rollout_counters();
    assert_eq!(rollouts.rejected, 1, "the poisoned delivery was rejected");
    assert_eq!(rollouts.admitted, 1, "the clean retry was admitted");
    assert_eq!(rollouts.rolled_back, 0, "nothing regressed");
    println!(
        "rollout pipeline: {} rejected (poisoned), {} admitted, {} rolled back",
        rollouts.rejected, rollouts.admitted, rollouts.rolled_back
    );

    // Dump the observability registry: per-phase epoch histograms, every
    // MetricsSnapshot counter mirrored under `serve.*`, routing gauges.
    let obs = service.obs_snapshot();
    println!("\nobservability summary:\n{}", obs.render_summary());
    println!("recent events:\n{}", service.obs().events().render());
    dump_metrics(args, &obs)?;
    Arc::try_unwrap(service)
        .map_err(|_| ServeError::Shard {
            shard: 0,
            message: "service still referenced at shutdown".to_owned(),
        })?
        .shutdown();
    println!("serve demo complete");
    Ok(())
}

// ---------------------------------------------------------------------
// Train mode: the online learning loop, accelerated.
// ---------------------------------------------------------------------

fn run_train(args: &Args) -> Result<(), ServeError> {
    let scenario = Arc::new(build_scenario(&args.scenario));
    let first = scenario.conditions.first_hour();
    let hours = scenario.conditions.hours();
    let base = if args.scenario == "small" {
        SimConfig::small(first)
    } else {
        SimConfig::paper(first)
    };
    let needed_hours = (args.epochs * base.dispatch_period_s).div_ceil(3_600) + 1;
    let sim = SimConfig {
        duration_hours: needed_hours.min(hours - first),
        ..base
    };
    let max_epochs = sim.duration_hours * 3_600 / sim.dispatch_period_s;
    let epochs = args.epochs.min(max_epochs).max(2);
    if epochs < args.epochs && !args.quiet {
        println!(
            "note: scenario covers {} epochs, clamping --epochs {}",
            max_epochs, args.epochs
        );
    }
    let shards = args.shards.max(1);
    let mut config = ServeConfig::new(sim);
    config.num_shards = shards;
    config.request_queue_capacity = args.queue_capacity.max(1);
    // The shadow gate is strict (slack 0): a self-trained candidate only
    // promotes once it actually out-scores the incumbent on the shadow
    // window — early candidates die there, which is the gate working.
    // Canary/watch slacks stay wide so the run demonstrates stage flow
    // rather than flapping on small-scenario reward noise.
    config.rollout = RolloutConfig {
        shadow_epochs: 2,
        shadow_slack: 0.0,
        canary_epochs: 2,
        canary_shards: 1,
        canary_slack: 1e9,
        watch_epochs: 2,
        watch_slack: 1e9,
        ..RolloutConfig::default()
    };
    config.trainer = Some(TrainerConfig {
        min_replay: 16,
        batch_size: 8,
        steps_per_epoch: 4,
        candidate_every: 6,
        hidden: vec![16],
        seed: SEED,
        ..TrainerConfig::default()
    });
    let clock: Arc<SimClock> = Arc::new(SimClock::new());
    let registry = Arc::new(ModelRegistry::new(None, None));

    println!(
        "training online over {} ({} segments, {shards} shards), {epochs} epochs, simulated clock",
        args.scenario,
        scenario.city.network.num_segments()
    );
    let service = Arc::new(DispatchService::start(
        Arc::clone(&scenario),
        config.clone(),
        Arc::clone(&clock) as Arc<dyn Clock>,
        Arc::clone(&registry),
    )?);

    let ingest = |service: &DispatchService, epoch: u32| {
        for shard in 0..shards {
            for spec in epoch_requests(&scenario, shard, epoch) {
                let _ = service.ingest(Event::Request { shard, spec });
            }
        }
    };
    let progress = |service: &DispatchService, epoch: u32| {
        if args.quiet || !(epoch + 1).is_multiple_of(5) {
            return;
        }
        let status = service.trainer_status().expect("trainer configured");
        println!(
            "epoch {}: trainer {} steps, replay {}, {} candidates; registry v{}",
            epoch + 1,
            status.steps,
            status.replay_len,
            status.candidates,
            registry.current().version
        );
    };

    // Phase 1, then a snapshot/restore cycle that must carry the trainer's
    // replay buffer, optimizer moments and cadence, then phase 2.
    let phase1 = epochs / 2;
    ingest(&service, 0);
    let mut scheduler = EpochScheduler::for_service(&service)?;
    {
        let service_cb = Arc::clone(&service);
        scheduler.run(&service, clock.as_ref(), phase1, |epoch, _| {
            progress(&service_cb, epoch);
            ingest(&service_cb, epoch + 1);
        })?;
    }
    let snapshot = service.snapshot()?;
    let status_before = service.trainer_status().expect("trainer configured");
    let obs_registry = Arc::clone(service.obs());
    if !args.quiet {
        println!(
            "snapshotting at epoch {phase1} ({} bytes, trainer at {} steps) and restoring...",
            snapshot.len(),
            status_before.steps
        );
    }
    Arc::try_unwrap(service)
        .map_err(|_| ServeError::Shard {
            shard: 0,
            message: "service still referenced at shutdown".to_owned(),
        })?
        .shutdown();
    let restore_config = ServeConfig {
        obs: Some(obs_registry),
        ..config
    };
    let service = Arc::new(DispatchService::restore(
        Arc::clone(&scenario),
        restore_config,
        Arc::clone(&clock) as Arc<dyn Clock>,
        Arc::clone(&registry),
        &snapshot,
    )?);
    assert_eq!(
        service.trainer_status().expect("trainer configured"),
        status_before,
        "trainer state must survive the snapshot/restore cycle"
    );
    {
        let service_cb = Arc::clone(&service);
        scheduler.run(&service, clock.as_ref(), epochs - phase1, |i, _| {
            let epoch = phase1 + i;
            progress(&service_cb, epoch);
            if i + 1 < epochs - phase1 {
                ingest(&service_cb, epoch + 1);
            }
        })?;
    }

    let status = service.trainer_status().expect("trainer configured");
    let obs = service.obs();
    let submitted = obs.counter("train.candidates_submitted").value();
    let offered = obs.counter("train.transitions_offered").value();
    let accepted = obs.counter("train.transitions_accepted").value();
    let shed = obs.counter("train.transitions_shed").value();
    println!(
        "\ntrainer after {epochs} epochs: {} steps over {} transitions \
         ({accepted} accepted, {shed} shed), {} candidates emitted, \
         {submitted} submitted to rollout; registry at v{} after {} swaps",
        status.steps,
        offered,
        status.candidates,
        registry.current().version,
        registry.swaps()
    );
    assert!(status.steps > 0, "the trainer must have learned");
    assert!(
        submitted >= 1,
        "at least one self-trained candidate must reach the rollout gate"
    );
    assert_eq!(
        offered,
        accepted + shed,
        "transition conservation must hold"
    );
    assert!(
        obs.counter("train.steps").value() > 0,
        "train.* metrics must be live"
    );
    dump_metrics(args, &service.obs_snapshot())?;
    Arc::try_unwrap(service)
        .map_err(|_| ServeError::Shard {
            shard: 0,
            message: "service still referenced at shutdown".to_owned(),
        })?
        .shutdown();
    println!("serve train demo complete");
    Ok(())
}
