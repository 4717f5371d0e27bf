//! The metric catalogue: every metric the benchmark reports, with its
//! unit and direction. `BENCHMARK.json` mirrors it (a test keeps the
//! two in step); `README.md` says which end-to-end metric and workload
//! each per-layer metric should move.

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name (`[A-Za-z0-9_.-]+`, starting with a letter or digit).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end regression bound (share of the parent's median); 0
    /// for per-layer metrics, which have none.
    pub bound: f64,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [MetricDef; 6] = [
    m("setup_s", "s", "lower", 0.25),
    m("games_per_s", "games/s", "higher", 0.25),
    m("peak_rss_mb", "MB", "lower", 0.1),
    m("lat_ms", "ms", "lower", 0.25),
    m("lat_tail_ms", "ms", "lower", 0.25),
    m("goodput_rps", "1/s", "higher", 0.25),
];

/// Per-layer metrics, reported by every traced run. Counts are exact
/// per seed: they cover one pass over the workload's inputs.
pub const PER_LAYER: [MetricDef; 38] = [
    m("core.schedule_ns_per_gen", "ns", "lower", 0.0),
    m("core.play_ns_per_gen", "ns", "lower", 0.0),
    m("core.evolve_ns_per_gen", "ns", "lower", 0.0),
    m("core.play_share", "ratio", "lower", 0.0),
    m("game.ns_per_game_batched", "ns", "lower", 0.0),
    m("game.batched_round_share", "ratio", "higher", 0.0),
    m("game.ns_per_game_scalar", "ns", "lower", 0.0),
    m("game.tournament_ms_p50", "ms", "lower", 0.0),
    m("game.tournament_ms_p90", "ms", "lower", 0.0),
    m("game.self_share", "ratio", "lower", 0.0),
    m("count.games", "count", "lower", 0.0),
    m("count.rounds", "count", "lower", 0.0),
    m("count.rounds_batched", "count", "higher", 0.0),
    m("count.rounds_scalar", "count", "lower", 0.0),
    m("net.gossip_us_per_round", "us", "lower", 0.0),
    m("net.gossip_self_share", "ratio", "lower", 0.0),
    m("net.gossip_useful_ratio", "ratio", "higher", 0.0),
    m("net.gossip_exchanges", "count", "lower", 0.0),
    m("net.gossip_scanned", "count", "lower", 0.0),
    m("net.gossip_shared", "count", "lower", 0.0),
    m("net.resident_bytes", "bytes", "lower", 0.0),
    m("net.observed_pairs", "count", "lower", 0.0),
    m("net.forget_subject_us", "us", "lower", 0.0),
    m("ga.next_generation_us", "us", "lower", 0.0),
    m("serve.submit_us_p50", "us", "lower", 0.0),
    m("serve.submit_us_p99", "us", "lower", 0.0),
    m("serve.jobs_poll_us_p50", "us", "lower", 0.0),
    m("serve.queue_wait_us_p50", "us", "lower", 0.0),
    m("serve.queue_wait_us_p99", "us", "lower", 0.0),
    m("serve.job_compute_us_p50", "us", "lower", 0.0),
    m("serve.job_compute_us_p99", "us", "lower", 0.0),
    m("serve.cache_hit_ratio", "ratio", "higher", 0.0),
    m("serve.coalesced", "count", "higher", 0.0),
    m("serve.rejected_queue_full", "count", "lower", 0.0),
    m("serve.queue_depth_peak", "count", "lower", 0.0),
    m("serve.polls_per_job", "ratio", "lower", 0.0),
    m("load.late_ms_p99", "ms", "lower", 0.0),
    m("obs.trace_overhead", "ratio", "higher", 0.0),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::json;
    use serde_json::Value;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let all: Vec<MetricDef> = END_TO_END.iter().copied().chain(PER_LAYER).collect();
        let mut seen = std::collections::BTreeSet::new();
        for m in &all {
            assert!(valid_name(m.name), "bad metric name {:?}", m.name);
            assert!(valid_unit(m.unit), "bad unit {:?} of {}", m.unit, m.name);
            assert!(m.better == "lower" || m.better == "higher", "{}", m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
        }
        for m in END_TO_END {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{} bound {}",
                m.name,
                m.bound
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn name_rule_rejects_bad_names() {
        assert!(valid_name("net.gossip_us_per_round"));
        assert!(valid_name("lat_ms"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(""));
    }

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn triples(list: &Value) -> Vec<(String, String, String)> {
        json::array(list)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| json::str(&m[k]).expect("string field").to_owned();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let bench = benchmark_json();
        let want = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
                .collect()
        };
        assert_eq!(triples(&bench["end_to_end"]), want(&END_TO_END));
        assert_eq!(triples(&bench["per_layer"]), want(&PER_LAYER));
        for (m, j) in END_TO_END
            .iter()
            .zip(json::array(&bench["end_to_end"]).expect("list"))
        {
            assert_eq!(json::f64(&j["bound"]), Some(m.bound), "{}", m.name);
        }
        let workloads: Vec<&str> = json::array(&bench["workloads"])
            .expect("workload list")
            .iter()
            .map(|w| json::str(&w["name"]).expect("name"))
            .collect();
        let ours: Vec<&str> = crate::workload::ALL.iter().map(|(_, n, _)| *n).collect();
        assert_eq!(workloads, ours);
        for (w, (_, _, why)) in json::array(&bench["workloads"])
            .expect("list")
            .iter()
            .zip(crate::workload::ALL)
        {
            assert_eq!(json::str(&w["why"]), Some(why));
        }
    }
}
