//! Seed-sweep chaos check: the dispatch service under deterministic fault
//! schedules, one line of invariant results per seed.
//!
//! ```text
//! cargo run -p mobirescue-bench --release --bin chaos -- \
//!     [--seeds N] [--base-seed S] [--epochs E] [--shards K] \
//!     [--metrics-out FILE]
//! ```
//!
//! Sweeps N seeded fault plans through `mobirescue_chaos::run_chaos`
//! (drop/delay/duplicate/corrupt ingestion, shard stalls and crashes,
//! failed hot-swaps), then runs the crash-replay masking check, the
//! poisoned-checkpoint rollout sweep (NaN weights, wrong dims, and a
//! reward-tanking policy against the guarded promotion pipeline), the
//! trainer fault sweep (transition drops, stale-candidate floods, and
//! boundary crashes against the online training loop), and the WAL fault
//! sweep (kill -9 at arbitrary journal byte offsets, torn appends, bit
//! flips and fsync stalls against the durable ingest journal, over the
//! pinned `CHAOS_SEEDS`). Exits non-zero if any seed breaks an invariant
//! — pipe the output into `robustness_serve.txt` via `scripts/chaos.sh`.

use mobirescue_chaos::{
    crash_replay_divergence, rollout_chaos_divergence, run_chaos, trainer_chaos_divergence,
    wal_chaos_divergence, ChaosOptions, RolloutChaosOptions, TrainerChaosOptions, WalChaosOptions,
    CHAOS_SEEDS,
};

fn main() {
    let mut seeds = 10u64;
    let mut base_seed = 1u64;
    let mut epochs = 6u32;
    let mut shards = 2usize;
    let mut metrics_out: Option<std::path::PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seeds" => seeds = args.next().and_then(|v| v.parse().ok()).unwrap_or(10),
            "--base-seed" => base_seed = args.next().and_then(|v| v.parse().ok()).unwrap_or(1),
            "--epochs" => epochs = args.next().and_then(|v| v.parse().ok()).unwrap_or(6),
            "--shards" => shards = args.next().and_then(|v| v.parse().ok()).unwrap_or(2),
            "--metrics-out" => metrics_out = args.next().map(std::path::PathBuf::from),
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    println!(
        "chaos sweep: {seeds} seeds from {base_seed}, {epochs} epochs x {shards} shards per run"
    );
    let mut failures = 0u64;
    let mut last_obs = None;
    for seed in base_seed..base_seed + seeds {
        let opts = ChaosOptions::seeded(seed, epochs, shards);
        match run_chaos(seed, &opts) {
            Ok(outcome) => {
                println!("{}", outcome.summary());
                if !outcome.ok() {
                    failures += 1;
                }
                last_obs = Some(outcome.obs);
            }
            Err(e) => {
                println!("seed {seed:>4}: service error: {e} -> FAIL");
                failures += 1;
            }
        }
    }

    print!("crash-replay masking (crashes at (0,0), (2,1), (4,0)): ");
    match crash_replay_divergence(
        &[(0, 0), (2, 1.min(shards - 1)), (4, 0)],
        epochs.max(5),
        shards,
    ) {
        Ok(divergences) if divergences.is_empty() => {
            println!("bit-identical to the unfaulted reference -> OK");
        }
        Ok(divergences) => {
            println!("DIVERGED -> FAIL");
            for d in &divergences {
                println!("  {d}");
            }
            failures += 1;
        }
        Err(e) => {
            println!("service error: {e} -> FAIL");
            failures += 1;
        }
    }

    println!("rollout chaos (poisoned checkpoints vs the guarded pipeline):");
    for seed in base_seed..base_seed + seeds.min(5) {
        let opts = RolloutChaosOptions::standard(shards);
        match rollout_chaos_divergence(seed, &opts) {
            Ok(divergences) if divergences.is_empty() => {
                println!("  seed {seed:>4}: poisoned twin bit-identical to clean run -> OK");
            }
            Ok(divergences) => {
                println!("  seed {seed:>4}: VIOLATED -> FAIL");
                for d in &divergences {
                    println!("    {d}");
                }
                failures += 1;
            }
            Err(e) => {
                println!("  seed {seed:>4}: service error: {e} -> FAIL");
                failures += 1;
            }
        }
    }

    println!("trainer chaos (drops, stale floods, boundary crashes vs the learning loop):");
    for seed in base_seed..base_seed + seeds.min(5) {
        let opts = TrainerChaosOptions::standard(shards);
        match trainer_chaos_divergence(seed, &opts) {
            Ok(divergences) if divergences.is_empty() => {
                println!(
                    "  seed {seed:>4}: conservation held, floods blocked, crash twin bit-identical -> OK"
                );
            }
            Ok(divergences) => {
                println!("  seed {seed:>4}: VIOLATED -> FAIL");
                for d in &divergences {
                    println!("    {d}");
                }
                failures += 1;
            }
            Err(e) => {
                println!("  seed {seed:>4}: service error: {e} -> FAIL");
                failures += 1;
            }
        }
    }

    // The WAL arm runs the pinned seed set (the same CHAOS_SEEDS constant
    // the test suites iterate) rather than the sweep range: crash-at-any-
    // byte recovery is a pinned contract, not a coverage lottery.
    println!("wal chaos (kill -9 at any journal byte, torn tails, bit flips, fsync stalls):");
    for seed in CHAOS_SEEDS {
        let opts = WalChaosOptions::standard(shards);
        match wal_chaos_divergence(seed, &opts) {
            Ok(divergences) if divergences.is_empty() => {
                println!(
                    "  seed {seed:>4}: crash twin bit-identical, corruption refused typed -> OK"
                );
            }
            Ok(divergences) => {
                println!("  seed {seed:>4}: VIOLATED -> FAIL");
                for d in &divergences {
                    println!("    {d}");
                }
                failures += 1;
            }
            Err(e) => {
                println!("  seed {seed:>4}: service error: {e} -> FAIL");
                failures += 1;
            }
        }
    }

    // Each chaos run owns a private registry (twins must stay
    // comparable), so the dump covers the last completed seed.
    if let Some(path) = &metrics_out {
        match &last_obs {
            Some(obs) => match std::fs::write(path, obs.to_text()) {
                Ok(()) => println!("wrote mrobs 1 metrics dump to {}", path.display()),
                Err(e) => {
                    eprintln!("failed to write {}: {e}", path.display());
                    failures += 1;
                }
            },
            None => eprintln!("no completed seed; nothing to dump"),
        }
    }

    if failures > 0 {
        println!("chaos sweep: {failures} failure(s)");
        std::process::exit(1);
    }
    println!("chaos sweep: all invariants held");
}
