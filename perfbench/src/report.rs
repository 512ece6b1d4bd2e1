//! The metric catalogue and the one-line JSON result.
//!
//! Every metric is declared here with its unit. Every workload emits every
//! end-to-end metric untraced and every per-layer metric traced; `finish`
//! refuses a result whose metric set differs from the declaration, so a
//! workload can neither drop a metric nor report an undeclared one.

use std::fmt::Write as _;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["metro_nearest", "charlotte_mobirescue"];

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn spec(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit }
}

/// End-to-end metrics, measured with tracing off (`--trace 0`).
pub const END_TO_END: &[Spec] = &[
    spec("setup_s", "s"),
    spec("peak_rss_mb", "MB"),
    spec("epoch_ms_p50", "ms"),
    spec("epoch_ms_tail", "ms"),
    spec("decision_ms_p50", "ms"),
    spec("decision_ms_tail", "ms"),
    spec("served_pct", "%"),
    spec("timely_pct", "%"),
    spec("drive_delay_min_mean", "min"),
    spec("serving_teams_mean", "teams"),
];

/// Per-layer metrics, measured in the traced run (`--trace 1`).
pub const PER_LAYER: &[Spec] = &[
    spec("trace.overhead_epoch_ms", "ms"),
    spec("sim.epoch_ms_p50", "ms"),
    spec("sim.decision_ms_p50", "ms"),
    spec("sim.apply_ms_p50", "ms"),
    spec("sim.waiting_per_epoch", "count"),
    spec("sim.free_teams_per_epoch", "count"),
    spec("roadnet.sssp_per_epoch", "count"),
    spec("roadnet.lookups_per_epoch", "count"),
    spec("roadnet.cache_hit_rate", "ratio"),
    spec("roadnet.sssp_ms", "ms"),
    spec("roadnet.route_us", "us"),
    spec("roadnet.city_build_s", "s"),
    spec("disaster.conditions_s", "s"),
    spec("core.scenario_build_s", "s"),
    spec("core.mine_s", "s"),
    spec("svm.train_s", "s"),
    spec("svm.predict_ms", "ms"),
    spec("rl.best_us", "us"),
    spec("rl.decisions_per_epoch", "count"),
    spec("rl.learn_step_us", "us"),
    spec("rl.learn_steps_per_epoch", "count"),
    spec("net.codec_us", "us"),
    spec("serve.ingest_us_p50", "us"),
    spec("serve.ingest_us_p99", "us"),
    spec("wal.append_us_p50", "us"),
    spec("wal.fsyncs_per_ack", "ratio"),
    spec("serve.epoch_ms_p50", "ms"),
    spec("serve.snapshot_ms_p50", "ms"),
    spec("serve.queue_depth_max", "count"),
];

/// The metrics every workload emits in this mode, in catalogue order.
pub fn expected(trace: bool) -> &'static [Spec] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// A measured value, keyed by its catalogue name.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
}

/// A workload's measured result before it is rendered.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push(Metric { name, value });
    }
}

/// Renders the result line, or explains why the metric set is not the
/// declared one for this workload and mode.
pub fn finish(workload: &str, trace: bool, out: &Outcome) -> Result<String, String> {
    let want = expected(trace);
    let got: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
    let want_names: Vec<&str> = want.iter().map(|s| s.name).collect();
    let mut sorted_got = got.clone();
    sorted_got.sort_unstable();
    let mut sorted_want = want_names.clone();
    sorted_want.sort_unstable();
    if sorted_got != sorted_want {
        return Err(format!(
            "{workload} emitted {got:?}, declared {want_names:?}"
        ));
    }
    if out.attempted == 0 {
        return Err(format!("{workload} attempted no operation"));
    }
    let mut json = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.attempted, out.failed
    );
    for (i, s) in want.iter().enumerate() {
        let m = out
            .metrics
            .iter()
            .find(|m| m.name == s.name)
            .expect("set equality checked above");
        if !m.value.is_finite() {
            return Err(format!("{} is not finite", s.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            s.name, m.value, s.unit
        )
        .expect("writing to a String cannot fail");
    }
    json.push_str("}}");
    Ok(json)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
    }

    #[test]
    fn every_name_and_unit_is_well_formed_and_unique() {
        let all: Vec<&Spec> = END_TO_END.iter().chain(PER_LAYER).collect();
        for s in &all {
            assert!(valid_name(s.name), "bad metric name {}", s.name);
            assert!(
                !s.unit.is_empty()
                    && s.unit.len() <= 16
                    && s.unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "bad unit {} on {}",
                s.unit,
                s.name
            );
            assert_eq!(all.iter().filter(|o| o.name == s.name).count(), 1);
        }
        for w in WORKLOADS {
            assert!(valid_name(w));
        }
    }

    #[test]
    fn the_end_to_end_set_holds_setup_s_and_no_per_layer_name() {
        assert!(expected(false)
            .iter()
            .any(|s| s.name == "setup_s" && s.unit == "s"));
        for s in expected(false) {
            assert!(!s.name.contains('.'), "{} looks per-layer", s.name);
        }
        for s in expected(true) {
            assert!(s.name.contains('.'), "{} names no layer", s.name);
        }
    }

    #[test]
    fn finish_refuses_a_missing_or_extra_metric() {
        let mut out = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        for s in expected(true) {
            out.put(s.name, 1.5);
        }
        let line = finish("metro_nearest", true, &out).expect("complete set");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"roadnet.route_us\": {\"value\": 1.5, \"unit\": \"us\"}"));
        assert!(finish("metro_nearest", false, &out).is_err());
        out.put("epoch_ms_p50", 2.0);
        assert!(finish("metro_nearest", true, &out).is_err());
        out.metrics
            .retain(|m| m.name != "epoch_ms_p50" && m.name != "sim.epoch_ms_p50");
        assert!(finish("metro_nearest", true, &out).is_err());
    }

    /// `BENCHMARK.json` at the repository root declares exactly this
    /// catalogue, with the same units.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let section = |key: &str, second: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let body = &text[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split('{')
                .skip(1)
                .map(|obj| {
                    let field = |f: &str| {
                        let at = obj.find(&format!("\"{f}\"")).expect("field present");
                        let rest = &obj[at + f.len() + 2..];
                        let open = rest.find('"').expect("value opens") + 1;
                        let close = rest[open..].find('"').expect("value closes") + open;
                        rest[open..close].to_owned()
                    };
                    (field("name"), field(second))
                })
                .collect()
        };
        let declared = |table: &[Spec]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|s| (s.name.to_owned(), s.unit.to_owned()))
                .collect()
        };
        assert_eq!(section("end_to_end", "unit"), declared(END_TO_END));
        assert_eq!(section("per_layer", "unit"), declared(PER_LAYER));
        let workloads: Vec<String> = section("workloads", "why")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
