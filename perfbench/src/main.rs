//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <metro_nearest|charlotte_mobirescue> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root. Human-readable detail goes to stderr; the
//! last line of stdout is the JSON result. Any failed correctness check
//! exits non-zero without printing a result. See `perfbench/README.md`.

mod report;
mod serve;
mod stats;
mod world;

use std::time::Instant;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Seed kept out of every tuning run, for re-checking a claimed gain.
pub const HELD_OUT_SEED: u64 = 9_001;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs an unsigned integer".to_owned())?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or("--seconds needs a positive integer")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !report::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, got {:?}",
            report::WORKLOADS,
            args.workload
        ));
    }
    Ok(args)
}

/// Milliseconds since `t0`, with every digit the clock gives.
pub fn elapsed_ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// Committed final-world checksums, one `<workload> <seed> <window> <hex>`
/// a line: the FNV-1a of `World::snapshot_text` at the end of window
/// `<window>` of a run with workload seed `<seed>`.
const CHECKSUMS: &str = include_str!("../checksums.txt");

/// Compares a window's final-world checksum with the committed one. A
/// window with no committed value is checked only for replay determinism
/// (done by the caller) and says so on stderr.
pub fn check_checksum(workload: &str, seed: u64, window: u64, got: u64) -> Result<(), String> {
    let key = format!("{workload} {seed} {window} ");
    let committed = CHECKSUMS
        .lines()
        .find_map(|line| line.strip_prefix(&key).map(str::trim));
    eprintln!("checksum {key}{got:016x}");
    match committed {
        Some(hex) if hex == format!("{got:016x}") => Ok(()),
        Some(hex) => Err(format!(
            "{workload} seed {seed} window {window}: final world {got:016x}, committed {hex}"
        )),
        None => {
            eprintln!("note: no committed checksum for {workload} seed {seed} window {window}");
            Ok(())
        }
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "metro_nearest" => world::metro(&args),
        _ => world::charlotte(&args),
    }
    .and_then(|out| report::finish(&args.workload, args.trace, &out));
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn the_documented_command_line_parses() {
        let a = parse("--workload charlotte_mobirescue --seed 7 --seconds 12 --trace 1")
            .expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12, true));
        assert_eq!(
            parse("--workload metro_nearest").expect("valid").seed,
            DEFAULT_SEED
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload metro_nearest --trace 2").is_err());
        assert!(parse("--workload metro_nearest --seconds 0").is_err());
        assert!(parse("--workload metro_nearest --seed").is_err());
    }

    #[test]
    fn committed_checksums_cover_the_default_and_held_out_seeds() {
        for w in ["metro_nearest", "charlotte_mobirescue"] {
            for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
                let key = format!("{w} {seed} 0 ");
                assert!(
                    CHECKSUMS.lines().any(|l| l.starts_with(&key)),
                    "no committed checksum for {w} seed {seed}"
                );
            }
        }
    }
}
