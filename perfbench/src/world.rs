//! The two world workloads: `metro_nearest` and `charlotte_mobirescue`.
//!
//! Both drive `World::run_epoch` over a fixed simulated window, replayed
//! `--seconds / WINDOW_BUDGET_S` times on fresh worlds. Each replay draws
//! its requests from the workload seed and its window index, so the
//! outcome terms and timings average over several request streams. The
//! amount of work (and with it the sample count and the tail percentile)
//! is fixed for a given `--seconds`, not by how fast the code runs: a
//! faster change is compared on the same epochs, at the same percentile.

use crate::report::Outcome;
use crate::stats::{median, tail};
use crate::{check_checksum, elapsed_ms, peak_rss_mb, Args};
use mobirescue_core::experiment::ExperimentConfig;
use mobirescue_core::predictor::{mine_rescues, RequestPredictor};
use mobirescue_core::rl_dispatch::{MobiRescueDispatcher, RlDispatchConfig, FEATURE_DIM};
use mobirescue_core::scenario::{Scenario, ScenarioConfig};
use mobirescue_core::training::{busiest_request_day, requests_on_day};
use mobirescue_disaster::hurricane::Hurricane;
use mobirescue_disaster::scenario::DisasterScenario;
use mobirescue_mobility::flow::HourlyConditions;
use mobirescue_mobility::map_match::MapMatcher;
use mobirescue_rl::qscore::QScore;
use mobirescue_roadnet::damage::NetworkCondition;
use mobirescue_roadnet::generator::City;
use mobirescue_roadnet::graph::{LandmarkId, SegmentId};
use mobirescue_roadnet::planner::RoutePlanner;
use mobirescue_sim::dispatcher::{DispatchState, Dispatcher, NearestRequestDispatcher};
use mobirescue_sim::engine::{fnv1a_64, SimOutcome, World};
use mobirescue_sim::types::{DispatchPlan, RequestSpec, SimConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Metro city and storm seed: the city is the same on every run, the
/// workload seed draws the request stream.
const METRO_CITY_SEED: u64 = 7;
/// First storm hour of the metro window (Florence's landfall ramp).
const STORM_HOUR: u32 = 276;
/// Metro window: 2 simulated hours = 24 dispatch epochs.
const METRO_HOURS: u32 = 2;
/// Requests per thousand segments in the metro window (as `bench_scale`).
const REQUESTS_PER_KSEG: u32 = 180;
/// Scenario seed of the paper-scale charlotte workload: the city, the
/// storms, the mined rescues and the untrained policy are fixed; the
/// workload seed draws the request stream from the evaluation day.
const CHARLOTTE_SCENARIO_SEED: u64 = 42;
/// Charlotte window: the evaluation day's 2 busiest simulated hours.
const CHARLOTTE_HOURS: u32 = 2;
/// Requests drawn into the charlotte window: about four times the busiest
/// hours' own count, so the outcome terms average over enough requests to
/// be steady across seeds.
const CHARLOTTE_REQUESTS: usize = 240;
/// Requests replayed into the in-process service (5 s at 1000 rps).
const SERVE_REQUESTS: u64 = 5_000;
/// Rows in the candidate set `rl.best_us` scores (100 teams' worth of
/// zones plus standby, as one dispatch round sees at zone_k 12).
const BEST_ROWS: usize = 145;
/// Standalone calls per micro-measurement.
const MICRO_REPS: usize = 64;

/// Seconds of `--seconds` one window replay is sized for: 24 epochs take
/// 4–5 s on a 2-core x86-64 box in either workload.
const WINDOW_BUDGET_S: u64 = 5;

/// One timed epoch.
#[derive(Debug, Clone, Copy, Default)]
struct EpochSample {
    epoch_ms: f64,
    decision_ms: f64,
    waiting: usize,
    free_teams: usize,
    sssp: u64,
    lookups: u64,
    learn_steps: u64,
    decisions: u64,
}

/// Times `Dispatcher::dispatch` — the operator's wait for a plan. Traced,
/// it also counts the dispatcher's input size.
struct Timed<'d> {
    inner: &'d mut dyn Dispatcher,
    trace: bool,
    decision_ms: f64,
    waiting: usize,
    free_teams: usize,
}

impl Dispatcher for Timed<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn compute_latency_s(&self, state: &DispatchState<'_>) -> f64 {
        self.inner.compute_latency_s(state)
    }

    fn dispatch(&mut self, state: &DispatchState<'_>) -> DispatchPlan {
        if self.trace {
            self.waiting = state.waiting.len();
            self.free_teams = state
                .teams
                .iter()
                .filter(|t| !t.delivering && t.onboard == 0)
                .count();
        }
        let t0 = Instant::now();
        let plan = self.inner.dispatch(state);
        self.decision_ms += elapsed_ms(t0);
        plan
    }
}

/// Runs one epoch through the timing wrapper. `rl` reads the policy's
/// cumulative (learn, act) step counters, for the traced deltas.
fn timed_epoch<D: Dispatcher>(
    world: &mut World<'_>,
    dispatcher: &mut D,
    trace: bool,
    rl: &dyn Fn(&D) -> (u64, u64),
) -> EpochSample {
    let before = trace.then(|| (world.routing_stats(), rl(dispatcher)));
    let mut timed = Timed {
        inner: dispatcher,
        trace,
        decision_ms: 0.0,
        waiting: 0,
        free_teams: 0,
    };
    let t0 = Instant::now();
    world.run_epoch(&mut timed, 0.0);
    let epoch_ms = elapsed_ms(t0);
    let mut s = EpochSample {
        epoch_ms,
        decision_ms: timed.decision_ms,
        waiting: timed.waiting,
        free_teams: timed.free_teams,
        ..EpochSample::default()
    };
    if let Some((stats, (learn, act))) = before {
        let now = world.routing_stats();
        s.sssp = now.misses - stats.misses;
        s.lookups = (now.misses + now.hits) - (stats.misses + stats.hits);
        let (learn2, act2) = rl(dispatcher);
        s.learn_steps = learn2 - learn;
        s.decisions = act2 - act;
    }
    s
}

/// The Eq. 5 outcome terms of one window.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Quality {
    served_pct: f64,
    timely_pct: f64,
    drive_delay_min_mean: f64,
    serving_teams_mean: f64,
}

fn quality(outcome: &SimOutcome) -> Result<Quality, String> {
    let n = outcome.requests.len();
    let served = outcome.total_served();
    if n == 0 || served == 0 {
        return Err(format!("window served {served} of {n} requests"));
    }
    let delays: Vec<f64> = outcome
        .requests
        .iter()
        .filter_map(|r| r.driving_delay_s)
        .collect();
    let slots = outcome.serving_teams_per_slot();
    if delays.is_empty() || slots.is_empty() {
        return Err("window recorded no driving delay or serving slot".into());
    }
    Ok(Quality {
        served_pct: 100.0 * served as f64 / n as f64,
        timely_pct: 100.0 * outcome.total_timely_served() as f64 / n as f64,
        drive_delay_min_mean: delays.iter().sum::<f64>() / delays.len() as f64 / 60.0,
        serving_teams_mean: slots.iter().map(|&(_, k)| k as f64).sum::<f64>() / slots.len() as f64,
    })
}

/// The inputs of one world window.
struct Window<'a> {
    city: &'a City,
    conditions: &'a HourlyConditions,
    sim: SimConfig,
    requests: Vec<RequestSpec>,
}

/// Result of replaying a window on a fresh world.
struct Replay {
    samples: Vec<EpochSample>,
    checksum: u64,
    quality: Quality,
}

fn replay<D: Dispatcher>(
    w: &Window<'_>,
    dispatcher: &mut D,
    trace: bool,
    rl: &dyn Fn(&D) -> (u64, u64),
) -> Result<Replay, String> {
    let mut world = World::new(w.city, w.conditions, &w.sim).map_err(|e| e.to_string())?;
    world
        .schedule_requests(&w.requests)
        .map_err(|e| e.to_string())?;
    let mut samples = Vec::new();
    while world.now_s() < w.sim.duration_s() {
        samples.push(timed_epoch(&mut world, dispatcher, trace, rl));
    }
    let checksum = fnv1a_64(&world.snapshot_text());
    let quality = quality(&world.into_outcome(dispatcher.name()))?;
    Ok(Replay {
        samples,
        checksum,
        quality,
    })
}

/// The epochs of one run and the outcome of its windows.
struct Runs {
    untraced: Vec<EpochSample>,
    traced: Vec<EpochSample>,
    /// Outcome terms, averaged over the distinct windows.
    quality: Quality,
}

/// Runs `windows = --seconds / WINDOW_BUDGET_S` (at least 1) window
/// replays on fresh worlds, each with a fresh dispatcher from `make`.
/// Window `k` takes its inputs from `window(k)`.
///
/// Untraced, windows `0..windows - 1` are distinct and the last replay
/// repeats window 0. Traced, each of `windows / 2` distinct windows runs
/// untraced and then traced, so the tracing overhead compares identical
/// work. A repeated window must end in the same world as its first run,
/// and every distinct window's final-world checksum must match
/// `checksums.txt` where it has an entry.
fn run_windows<'w, D: Dispatcher>(
    args: &Args,
    window: impl Fn(u64) -> Window<'w>,
    mut make: impl FnMut() -> D,
    rl: &dyn Fn(&D) -> (u64, u64),
    mut after: impl FnMut(D),
) -> Result<Runs, String> {
    let windows = (args.seconds / WINDOW_BUDGET_S).max(1);
    let plan: Vec<(u64, bool)> = if args.trace {
        (0..(windows / 2).max(1))
            .flat_map(|k| [(k, false), (k, true)])
            .collect()
    } else {
        let distinct = windows.saturating_sub(1).max(1);
        let mut plan: Vec<(u64, bool)> = (0..distinct).map(|k| (k, false)).collect();
        if windows > 1 {
            plan.push((0, false));
        }
        plan
    };
    let mut first: Vec<(u64, Quality)> = Vec::new();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for (k, tracing) in plan {
        let mut d = make();
        let r = replay(&window(k), &mut d, tracing, rl)?;
        after(d);
        match first.get(k as usize) {
            None => {
                check_checksum(&args.workload, args.seed, k, r.checksum)?;
                first.push((r.checksum, r.quality));
            }
            Some(&(sum, quality)) if sum != r.checksum || quality != r.quality => {
                return Err(format!(
                    "window {k} replayed into world {:016x}, first run {sum:016x}",
                    r.checksum
                ));
            }
            Some(_) => {}
        }
        if tracing {
            traced.extend(r.samples);
        } else {
            untraced.extend(r.samples);
        }
    }
    let n = first.len() as f64;
    let avg = |f: fn(&Quality) -> f64| first.iter().map(|(_, q)| f(q)).sum::<f64>() / n;
    Ok(Runs {
        untraced,
        traced,
        quality: Quality {
            served_pct: avg(|q| q.served_pct),
            timely_pct: avg(|q| q.timely_pct),
            drive_delay_min_mean: avg(|q| q.drive_delay_min_mean),
            serving_teams_mean: avg(|q| q.serving_teams_mean),
        },
    })
}

/// Seeds the inputs of window `k` of a run with workload seed `seed`.
fn window_rng(seed: u64, k: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (k << 48) ^ salt)
}

fn field(samples: &[EpochSample], f: impl Fn(&EpochSample) -> f64) -> Vec<f64> {
    samples.iter().map(f).collect()
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// End-to-end metrics of the untraced epochs plus the window outcome.
fn end_to_end(out: &mut Outcome, runs: &Runs) -> Result<(), String> {
    let epoch = field(&runs.untraced, |s| s.epoch_ms);
    let decision = field(&runs.untraced, |s| s.decision_ms);
    let (te, td) = match (tail(&epoch), tail(&decision)) {
        (Some(a), Some(b)) => (a, b),
        _ => {
            return Err(format!(
                "{} epochs are too few for a tail; raise --seconds",
                epoch.len()
            ))
        }
    };
    eprintln!(
        "epoch tail p{} over n={} ({} beyond), decision tail p{} over n={}",
        te.pct, te.n, te.beyond, td.pct, td.n
    );
    out.attempted = epoch.len() as u64;
    out.put("epoch_ms_p50", median(&epoch));
    out.put("epoch_ms_tail", te.value);
    out.put("decision_ms_p50", median(&decision));
    out.put("decision_ms_tail", td.value);
    let q = runs.quality;
    eprintln!(
        "outcome: served {:.3}% timely {:.3}% drive delay {:.4} min serving teams {:.4}",
        q.served_pct, q.timely_pct, q.drive_delay_min_mean, q.serving_teams_mean
    );
    out.put("served_pct", q.served_pct);
    out.put("timely_pct", q.timely_pct);
    out.put("drive_delay_min_mean", q.drive_delay_min_mean);
    out.put("serving_teams_mean", q.serving_teams_mean);
    Ok(())
}

/// Per-layer metrics of the traced epochs shared by both world workloads.
fn world_layers(out: &mut Outcome, runs: &Runs) -> Result<(), String> {
    let t = &runs.traced;
    let epoch = median(&field(t, |s| s.epoch_ms));
    let decision = median(&field(t, |s| s.decision_ms));
    let apply = median(&field(t, |s| s.epoch_ms - s.decision_ms));
    // Decision and apply partition each epoch; their medians must account
    // for the epoch median within APPLY_TOLERANCE.
    const APPLY_TOLERANCE: f64 = 0.15;
    let gap = (decision + apply - epoch).abs() / epoch;
    eprintln!(
        "traced epoch p50 {epoch:.3} ms = decision {decision:.3} + apply {apply:.3} (gap {:.1}%)",
        gap * 100.0
    );
    if gap > APPLY_TOLERANCE {
        return Err(format!(
            "decision + apply p50 misses epoch p50 by {:.1}%",
            gap * 100.0
        ));
    }
    let untraced = median(&field(&runs.untraced, |s| s.epoch_ms));
    out.put("trace.overhead_epoch_ms", epoch - untraced);
    out.put("sim.epoch_ms_p50", epoch);
    out.put("sim.decision_ms_p50", decision);
    out.put("sim.apply_ms_p50", apply);
    out.put(
        "sim.waiting_per_epoch",
        mean(&field(t, |s| s.waiting as f64)),
    );
    out.put(
        "sim.free_teams_per_epoch",
        mean(&field(t, |s| s.free_teams as f64)),
    );
    let sssp: u64 = t.iter().map(|s| s.sssp).sum();
    let lookups: u64 = t.iter().map(|s| s.lookups).sum();
    eprintln!(
        "planner: {sssp} SSSP runs over {lookups} lookups in {} epochs",
        t.len()
    );
    out.put("roadnet.sssp_per_epoch", sssp as f64 / t.len() as f64);
    out.put("roadnet.lookups_per_epoch", lookups as f64 / t.len() as f64);
    out.put(
        "rl.decisions_per_epoch",
        mean(&field(t, |s| s.decisions as f64)),
    );
    out.put(
        "rl.learn_steps_per_epoch",
        mean(&field(t, |s| s.learn_steps as f64)),
    );
    out.put(
        "roadnet.cache_hit_rate",
        if lookups == 0 {
            0.0
        } else {
            (lookups - sssp) as f64 / lookups as f64
        },
    );
    Ok(())
}

/// `RoutePlanner::paths_from` on a fresh planner (every call a miss) and
/// `RoutePlanner::route` early-exit point queries, from seeded landmarks.
fn roadnet_micro(out: &mut Outcome, city: &City, cond: &NetworkCondition, seed: u64) {
    let n = city.network.num_landmarks() as u32;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x55_5350);
    let mut pick = || LandmarkId(rng.random_range(0..n));
    let planner = RoutePlanner::new(&city.network);
    let sssp: Vec<f64> = (0..MICRO_REPS / 4)
        .map(|_| {
            let src = pick();
            let t0 = Instant::now();
            black_box(planner.paths_from(cond, src));
            elapsed_ms(t0)
        })
        .collect();
    let planner = RoutePlanner::new(&city.network);
    let route: Vec<f64> = (0..MICRO_REPS)
        .map(|_| {
            let (a, b) = (pick(), pick());
            let t0 = Instant::now();
            black_box(planner.route(cond, a, b));
            elapsed_ms(t0) * 1e3
        })
        .collect();
    out.put("roadnet.sssp_ms", median(&sssp));
    out.put("roadnet.route_us", median(&route));
}

/// Medians of each set-up step over `SETUP_REPS` builds, keeping the last.
fn repeat_setup<T>(
    mut build: impl FnMut(&mut [Vec<f64>]) -> T,
    steps: usize,
) -> (T, f64, Vec<f64>) {
    let mut totals = Vec::new();
    let mut parts: Vec<Vec<f64>> = vec![Vec::new(); steps];
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        let built = build(&mut parts);
        totals.push(elapsed_ms(t0) / 1e3);
        last = Some(built);
    }
    let medians = parts.iter().map(|p| median(p)).collect();
    (last.expect("SETUP_REPS > 0"), median(&totals), medians)
}

fn time_s<T>(parts: &mut [Vec<f64>], i: usize, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let v = f();
    parts[i].push(elapsed_ms(t0) / 1e3);
    v
}

// ---------------------------------------------------------------------
// Set-up of the two settings
// ---------------------------------------------------------------------
//
// Every traced run reports every per-layer metric. The set-up split and
// the paper-scale `svm`, `rl`, `serve`, `wal` and `net` calls are timed
// on the same fixed inputs in both workloads, so a workload whose own
// traffic leaves a layer idle still times that layer on real work; the
// per-epoch counts stay those of the workload's own epochs.

struct MetroInputs {
    city: City,
    conditions: HourlyConditions,
}

/// Timed steps of `build_metro`: city, storm conditions.
const METRO_STEPS: usize = 2;

fn build_metro(parts: &mut [Vec<f64>]) -> MetroInputs {
    let city = time_s(parts, 0, || {
        ScenarioConfig::metro().city.build(METRO_CITY_SEED)
    });
    let conditions = time_s(parts, 1, || {
        let disaster = DisasterScenario::new(&city, Hurricane::florence(), METRO_CITY_SEED);
        HourlyConditions::from_conditions(
            (0..METRO_HOURS)
                .map(|h| disaster.network_condition(&city.network, STORM_HOUR + h))
                .collect(),
        )
    });
    MetroInputs { city, conditions }
}

/// `roadnet.city_build_s` and `disaster.conditions_s`, from the medians
/// of `build_metro`'s steps.
fn metro_setup_layers(out: &mut Outcome, parts: &[f64]) {
    out.put("roadnet.city_build_s", parts[0]);
    out.put("disaster.conditions_s", parts[1]);
}

struct CharlotteInputs {
    florence: Arc<Scenario>,
    predictor: RequestPredictor,
    day_requests: Vec<RequestSpec>,
    start_hour: u32,
}

/// Timed steps of `build_charlotte`: scenario builds, rescue mining, SVM
/// training.
const CHARLOTTE_STEPS: usize = 3;

fn build_charlotte(cfg: &ExperimentConfig, parts: &mut [Vec<f64>]) -> CharlotteInputs {
    let (florence, michael) = time_s(parts, 0, || {
        (
            cfg.scenario.clone().florence().build(cfg.seed),
            cfg.scenario.clone().michael().build(cfg.seed),
        )
    });
    let (day_requests, start_hour) = time_s(parts, 1, || {
        let matcher = MapMatcher::new(&florence.city.network);
        let rescues = mine_rescues(&florence);
        let day = busiest_request_day(&rescues).expect("Florence produces rescues");
        let day_requests = requests_on_day(&florence, &matcher, &rescues, day);
        let start_hour = day * 24 + busiest_hours(&day_requests);
        (day_requests, start_hour)
    });
    let predictor = time_s(parts, 2, || {
        RequestPredictor::train_on(&michael, &cfg.predictor)
    });
    CharlotteInputs {
        florence: Arc::new(florence),
        predictor,
        day_requests,
        start_hour,
    }
}

fn charlotte_sim(cfg: &ExperimentConfig, inputs: &CharlotteInputs) -> SimConfig {
    let mut sim = cfg.sim.clone();
    sim.start_hour = inputs.start_hour;
    sim.duration_hours = CHARLOTTE_HOURS;
    sim
}

/// Window `k` of the charlotte workload: `CHARLOTTE_REQUESTS` requests
/// drawn from the evaluation day's, at seeded times.
fn charlotte_window<'a>(
    inputs: &'a CharlotteInputs,
    sim: &SimConfig,
    seed: u64,
    k: u64,
) -> Window<'a> {
    let mut rng = window_rng(seed, k, 0xc4a7);
    let horizon = sim.duration_s();
    let day = &inputs.day_requests;
    Window {
        city: &inputs.florence.city,
        conditions: &inputs.florence.conditions,
        sim: sim.clone(),
        requests: (0..CHARLOTTE_REQUESTS)
            .map(|_| RequestSpec {
                appear_s: rng.random_range(0..horizon * 3 / 4),
                segment: day[rng.random_range(0..day.len())].segment,
            })
            .collect(),
    }
}

/// A fresh MobiRescue dispatcher: the seeded untrained policy with online
/// training on, and the Michael-trained predictor.
fn charlotte_dispatcher<'a>(
    inputs: &'a CharlotteInputs,
    rl: &RlDispatchConfig,
) -> MobiRescueDispatcher<'a> {
    let mut d =
        MobiRescueDispatcher::new(&inputs.florence, Some(inputs.predictor.clone()), rl.clone());
    d.reset_episode();
    d
}

fn rl_steps(d: &MobiRescueDispatcher<'_>) -> (u64, u64) {
    (d.policy().learn_steps(), d.policy().act_steps())
}

/// The paper-scale layer calls: the set-up split (`parts`, medians of
/// `build_charlotte`'s steps), the hourly SVM pass, `QScore::best` and
/// `QScore::learn_step` on `policy` (a policy at the end of online
/// training), and the in-process `serve`/`wal`/`net` replay.
fn paper_layers(
    out: &mut Outcome,
    inputs: &CharlotteInputs,
    parts: &[f64],
    mut policy: QScore,
    seed: u64,
) -> Result<(), String> {
    out.put("core.scenario_build_s", parts[0]);
    out.put("core.mine_s", parts[1]);
    out.put("svm.train_s", parts[2]);
    // The hourly SVM pass, on the window's simulated hours.
    let matcher = MapMatcher::new(&inputs.florence.city.network);
    let predict: Vec<f64> = (0..CHARLOTTE_HOURS.max(4))
        .map(|h| {
            let t0 = Instant::now();
            black_box(inputs.predictor.predict_distribution(
                &inputs.florence,
                &matcher,
                inputs.start_hour + h % CHARLOTTE_HOURS,
            ));
            elapsed_ms(t0)
        })
        .collect();
    out.put("svm.predict_ms", median(&predict));
    let mut rng = StdRng::seed_from_u64(seed ^ 0xbe57);
    let rows: Vec<Vec<f64>> = (0..BEST_ROWS)
        .map(|_| {
            (0..FEATURE_DIM)
                .map(|_| rng.random_range(0.0..1.0))
                .collect()
        })
        .collect();
    let best: Vec<f64> = (0..MICRO_REPS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(policy.best(black_box(&rows)));
            elapsed_ms(t0) * 1e3
        })
        .collect();
    out.put("rl.best_us", median(&best));
    if policy.learn_steps() == 0 {
        return Err("online training never stepped the policy".into());
    }
    let learn: Vec<f64> = (0..MICRO_REPS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(policy.learn_step());
            elapsed_ms(t0) * 1e3
        })
        .collect();
    out.put("rl.learn_step_us", median(&learn));
    crate::serve::layers(out, Arc::clone(&inputs.florence), seed, SERVE_REQUESTS)
}

// ---------------------------------------------------------------------
// metro_nearest
// ---------------------------------------------------------------------

pub fn metro(args: &Args) -> Result<Outcome, String> {
    let (inputs, setup_s, parts) = repeat_setup(build_metro, METRO_STEPS);
    let mut sim = SimConfig::paper(0);
    sim.num_teams = 100;
    sim.duration_hours = METRO_HOURS;
    let n = inputs.city.network.num_segments() as u32;
    let num_requests = n * REQUESTS_PER_KSEG / 1_000;
    let horizon = sim.duration_s();
    let window = |k| {
        let mut rng = window_rng(args.seed, k, 0x5ca1e);
        Window {
            city: &inputs.city,
            conditions: &inputs.conditions,
            sim: sim.clone(),
            requests: (0..num_requests)
                .map(|_| RequestSpec {
                    appear_s: rng.random_range(0..horizon * 3 / 4),
                    segment: SegmentId(rng.random_range(0..n)),
                })
                .collect(),
        }
    };
    eprintln!("metro: {n} segments, {num_requests} requests a window, setup {setup_s:.3} s");
    let no_rl = |_: &NearestRequestDispatcher| (0, 0);
    let runs = run_windows(
        args,
        window,
        NearestRequestDispatcher::default,
        &no_rl,
        drop,
    )?;
    let mut out = Outcome::default();
    if !args.trace {
        end_to_end(&mut out, &runs)?;
        out.put("setup_s", setup_s);
        out.put("peak_rss_mb", peak_rss_mb()?);
        return Ok(out);
    }
    out.attempted = (runs.traced.len() + runs.untraced.len()) as u64;
    world_layers(&mut out, &runs)?;
    roadnet_micro(&mut out, &inputs.city, inputs.conditions.at(0), args.seed);
    metro_setup_layers(&mut out, &parts);
    drop(inputs);
    // The paper-scale layers, on the charlotte setting with the policy one
    // charlotte window leaves behind.
    let cfg = ExperimentConfig::paper(CHARLOTTE_SCENARIO_SEED);
    let (paper, _, paper_parts) = repeat_setup(|p| build_charlotte(&cfg, p), CHARLOTTE_STEPS);
    let sim = charlotte_sim(&cfg, &paper);
    let mut d = charlotte_dispatcher(&paper, &cfg.rl);
    let r = replay(
        &charlotte_window(&paper, &sim, args.seed, 0),
        &mut d,
        false,
        &rl_steps,
    )?;
    check_checksum("charlotte_mobirescue", args.seed, 0, r.checksum)?;
    paper_layers(&mut out, &paper, &paper_parts, d.into_policy(), args.seed)?;
    Ok(out)
}

// ---------------------------------------------------------------------
// charlotte_mobirescue
// ---------------------------------------------------------------------

pub fn charlotte(args: &Args) -> Result<Outcome, String> {
    let cfg = ExperimentConfig::paper(CHARLOTTE_SCENARIO_SEED);
    let (inputs, setup_s, parts) = repeat_setup(|p| build_charlotte(&cfg, p), CHARLOTTE_STEPS);
    let sim = charlotte_sim(&cfg, &inputs);
    eprintln!(
        "charlotte: {} segments, {CHARLOTTE_REQUESTS} requests a window drawn from the day's {}, \
         from hour {}, setup {setup_s:.3} s",
        inputs.florence.city.network.num_segments(),
        inputs.day_requests.len(),
        inputs.start_hour
    );
    let mut final_policy: Option<QScore> = None;
    let runs = run_windows(
        args,
        |k| charlotte_window(&inputs, &sim, args.seed, k),
        || charlotte_dispatcher(&inputs, &cfg.rl),
        &rl_steps,
        |d| final_policy = Some(d.into_policy()),
    )?;
    let mut out = Outcome::default();
    if !args.trace {
        end_to_end(&mut out, &runs)?;
        report_modes(&runs.untraced);
        out.put("setup_s", setup_s);
        out.put("peak_rss_mb", peak_rss_mb()?);
        return Ok(out);
    }
    out.attempted = (runs.traced.len() + runs.untraced.len()) as u64;
    world_layers(&mut out, &runs)?;
    roadnet_micro(
        &mut out,
        &inputs.florence.city,
        inputs.florence.conditions.at(inputs.start_hour),
        args.seed,
    );
    let policy = final_policy.ok_or("no policy survived the run")?;
    paper_layers(&mut out, &inputs, &parts, policy, args.seed)?;
    // The metro set-up split, on the metro workload's city and storm.
    let (_, _, metro_parts) = repeat_setup(build_metro, METRO_STEPS);
    metro_setup_layers(&mut out, &metro_parts);
    Ok(out)
}

/// Epochs that open a simulated hour also run the hourly SVM pass, a
/// second mode of the epoch time. Says on stderr how many samples each
/// mode holds and which one the epoch tail falls in.
fn report_modes(samples: &[EpochSample]) {
    let per_hour = (3_600 / SimConfig::paper(0).dispatch_period_s) as usize;
    let epoch = field(samples, |s| s.epoch_ms);
    let Some(t) = tail(&epoch) else { return };
    let boundary = samples
        .iter()
        .enumerate()
        .filter(|(i, _)| i % per_hour == 0)
        .count();
    let at_or_above: Vec<bool> = samples
        .iter()
        .enumerate()
        .filter(|(_, s)| s.epoch_ms >= t.value)
        .map(|(i, _)| i % per_hour == 0)
        .collect();
    eprintln!(
        "modes: {boundary} hour-opening epochs of {}; at or above the p{} tail: {} hour-opening, {} other",
        samples.len(),
        t.pct,
        at_or_above.iter().filter(|&&b| b).count(),
        at_or_above.iter().filter(|&&b| !b).count()
    );
}

/// First hour of the day's `CHARLOTTE_HOURS` busiest consecutive hours
/// (the earliest on ties).
fn busiest_hours(day_requests: &[RequestSpec]) -> u32 {
    let mut per_hour = [0usize; 24];
    for r in day_requests {
        per_hour[(r.appear_s / 3_600).min(23) as usize] += 1;
    }
    let span = CHARLOTTE_HOURS as usize;
    (0..=24 - span)
        .max_by_key(|&h| {
            (
                per_hour[h..h + span].iter().sum::<usize>(),
                std::cmp::Reverse(h),
            )
        })
        .expect("a day has hours") as u32
}
