//! The simulation workloads: paper-evolve, zoo-1000 and gossip-300.
//!
//! Untraced, the benchmark cycles through the workload's replications
//! with `ahn_core::run_replication_with` under a recorder that only
//! reads the clock once per generation. Traced, each replication runs
//! twice: once under a span recorder (the core schedule/play/evolve
//! phases) and once recomposed from the public layer functions with a
//! span around every call (`crate::shadow`). Every result, timed or
//! traced, must hash equal to the untimed reference run of its spec,
//! and the recomposed play phase must take as long as the program's
//! own, within [`DRIFT_BOUND`].

use crate::report::Outcome;
use crate::shadow::{self, Counts};
use crate::stats::{median, percentile};
use crate::trace::{name_id, totals_by_name, Span, Tracer};
use crate::workload::{sim_specs, SimSpec, Workload, DEFAULT_SEED};
use ahn_core::{canonical_hash, run_replication, run_replication_with, ReplicationResult};
use ahn_game::NodeKind;
use ahn_obs::{Phase, Recorder};
use std::time::Instant;

/// Set-ups per run, spread evenly over the untraced loop; the median is
/// reported.
const SETUPS: usize = 7;

/// How far the traced composition's play phase may run faster or
/// slower than the program's own (`obs.trace_overhead`, the median over
/// a traced run's replications) before the traced run counts as failed.
/// Span bookkeeping costs at most ~4% here; taking a different game
/// kernel than the program moves it by 0.23 (the scalar path instead of
/// the batched kernel at N = 50) to about 3 (at N = 1000).
const DRIFT_BOUND: f64 = 0.15;

/// Digest of a replication result.
pub fn digest(result: &ReplicationResult) -> u64 {
    canonical_hash(result).expect("replication results serialize")
}

/// Games a replication of `spec` plays: every tournament plays one game
/// per participant per round, plus the flooders' extra packets. With
/// `plays_per_env = 1` an environment needs `ceil(population / normal)`
/// tournaments. The traced run checks this against its exact count.
pub fn nominal_games(spec: &SimSpec) -> u64 {
    let c = &spec.config;
    let extra: usize = c
        .attackers
        .iter()
        .flatten()
        .map(|g| match g.behavior.node_kind() {
            NodeKind::Flooder { extra } => g.count * usize::from(extra),
            _ => 0,
        })
        .sum();
    let per_generation: usize = spec
        .case
        .envs
        .iter()
        .map(|e| {
            let tournaments = (c.population * c.plays_per_env).div_ceil(e.normal());
            tournaments * c.rounds * (e.size + extra)
        })
        .sum();
    (per_generation * c.generations) as u64
}

/// Reads the clock at every generation boundary: per-generation wall
/// time, and nothing else.
struct GenClock {
    last: Instant,
    gen_ms: Vec<f64>,
}

impl Recorder for GenClock {
    fn generation(&mut self, _generation: u64, _cooperation: f64) {
        let now = Instant::now();
        self.gen_ms
            .push(now.duration_since(self.last).as_secs_f64() * 1e3);
        self.last = now;
    }
}

/// Maps the experiment runner's phase marks onto spans.
struct SpanRecorder<'a> {
    tr: &'a mut Tracer,
    id: u32,
    names: [u8; 3],
}

impl Recorder for SpanRecorder<'_> {
    fn begin(&mut self, phase: Phase) {
        self.tr.begin(self.names[phase.index()], self.id);
    }

    fn end(&mut self, _phase: Phase) {
        self.tr.end();
    }
}

/// What the untraced loop measured.
#[derive(Default)]
struct Untraced {
    /// Generation times of each input replication, indexed like the
    /// inputs.
    gen_ms: Vec<Vec<f64>>,
    /// Replication seconds of each whole pass over the inputs.
    pass_seconds: Vec<f64>,
}

/// 75th percentile of unsorted samples.
fn p75(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 75.0)
}

impl Untraced {
    /// The pass time that three of four passes beat or match (the 75th
    /// percentile of pass times). On a shared host, bursts where a
    /// neighbour idles make some passes up to 1.6x faster; the median
    /// flips to that state whenever it covers half of a run, while this
    /// quantile stays in the common, contended state.
    fn sustained_pass_seconds(&self) -> f64 {
        p75(&self.pass_seconds)
    }

    /// Games per second of replication time at the sustained pass time.
    fn games_per_s(&self, specs: &[SimSpec]) -> f64 {
        let games: u64 = specs.iter().map(nominal_games).sum();
        games as f64 / self.sustained_pass_seconds()
    }

    /// Replications per second at the sustained pass time.
    fn replications_per_s(&self, specs: &[SimSpec]) -> f64 {
        specs.len() as f64 / self.sustained_pass_seconds()
    }

    /// Generation time in the sustained state: each input replication's
    /// 75th-percentile generation time (the quantile `games_per_s` takes
    /// of passes, for the same reason), averaged over the inputs. The
    /// inputs differ in cost, so a quantile of the pooled times would
    /// sit in the gap between two of them.
    fn gen_sustained_ms(&self) -> f64 {
        let per_input: Vec<f64> = self.gen_ms.iter().map(|g| p75(g)).collect();
        per_input.iter().sum::<f64>() / per_input.len() as f64
    }
}

/// Runs whole passes over `specs` until `seconds` have passed,
/// checking every result against `reference`. Between passes it calls
/// `setup` each time another `seconds / SETUPS` of the loop has passed,
/// `SETUPS - 1` times at most (the caller made the first set-up); the
/// time `setup` takes does not count towards `seconds`.
fn untraced(
    specs: &[SimSpec],
    reference: &[u64],
    seconds: f64,
    out: &mut Outcome,
    mut setup: impl FnMut(),
) -> Untraced {
    let mut m = Untraced {
        gen_ms: vec![Vec::new(); specs.len()],
        ..Untraced::default()
    };
    let started = Instant::now();
    let mut setting_up = 0.0;
    let mut setups = 1;
    let looped = |setting_up: f64| started.elapsed().as_secs_f64() - setting_up;
    while m.pass_seconds.is_empty() || looped(setting_up) < seconds {
        if setups < SETUPS && looped(setting_up) >= setups as f64 * seconds / SETUPS as f64 {
            let t = Instant::now();
            setup();
            setting_up += t.elapsed().as_secs_f64();
            setups += 1;
        }
        let mut pass = 0.0;
        for ((spec, &want), gen_ms) in specs.iter().zip(reference).zip(&mut m.gen_ms) {
            let mut clock = GenClock {
                last: Instant::now(),
                gen_ms: Vec::with_capacity(spec.config.generations),
            };
            let t = Instant::now();
            let result = run_replication_with(&spec.config, &spec.case, spec.seed, &mut clock);
            pass += t.elapsed().as_secs_f64();
            gen_ms.extend(clock.gen_ms);
            out.check(digest(&result) == want, || {
                format!("{}: timed repeat differs from the reference", spec.label)
            });
        }
        m.pass_seconds.push(pass);
    }
    m
}

/// What the traced loop measured.
struct Traced {
    tracer: Tracer,
    /// Work of the first pass over the inputs (exact per seed).
    pass: Counts,
    /// Work of every shadow replication.
    all: Counts,
    core_generations: u64,
}

fn traced(specs: &[SimSpec], reference: &[u64], seconds: f64, out: &mut Outcome) -> Traced {
    let core_names = [
        name_id("core.schedule"),
        name_id("core.play"),
        name_id("core.evolve"),
    ];
    let root = name_id("core.replication");
    let mut t = Traced {
        tracer: Tracer::new(),
        pass: Counts::default(),
        all: Counts::default(),
        core_generations: 0,
    };
    let started = Instant::now();
    let mut id = 0u32;
    let mut first_pass = true;
    while first_pass || started.elapsed().as_secs_f64() < seconds {
        for (spec, &want) in specs.iter().zip(reference) {
            t.tracer.begin(root, id);
            let mut rec = SpanRecorder {
                tr: &mut t.tracer,
                id,
                names: core_names,
            };
            let result = run_replication_with(&spec.config, &spec.case, spec.seed, &mut rec);
            t.tracer.end();
            t.core_generations += spec.config.generations as u64;
            out.check(digest(&result) == want, || {
                format!("{}: recorded run differs from the reference", spec.label)
            });

            let mut counts = Counts::default();
            let result = shadow::replicate(spec, id, &mut t.tracer, &mut counts);
            out.check(digest(&result) == want, || {
                format!(
                    "{}: traced composition differs from the reference",
                    spec.label
                )
            });
            out.check(counts.games() == nominal_games(spec), || {
                format!(
                    "{}: traced run played {} games, expected {}",
                    spec.label,
                    counts.games(),
                    nominal_games(spec)
                )
            });
            if first_pass {
                t.pass.add(&counts);
            }
            t.all.add(&counts);
            id += 1;
        }
        first_pass = false;
    }
    t
}

/// Runs one simulation workload and reports its metrics.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    golden: Option<&[u64]>,
) -> Outcome {
    let mut out = Outcome::default();

    // Set-up: input generation plus a one-generation warm-up
    // replication. Later set-ups run between untraced passes.
    let set_up = || {
        let t = Instant::now();
        let specs = sim_specs(workload, seed);
        let mut warm = specs[0].clone();
        warm.config.generations = 1;
        std::hint::black_box(run_replication(&warm.config, &warm.case, warm.seed));
        (specs, t.elapsed().as_secs_f64())
    };
    let (specs, first_setup) = set_up();

    let reference: Vec<u64> = specs
        .iter()
        .map(|s| digest(&run_replication(&s.config, &s.case, s.seed)))
        .collect();
    out.note(format!("reference digests: {}", hex_list(&reference)));

    let canary = canary_digests(workload);
    match golden {
        Some(want) => out.check(canary == want, || {
            format!(
                "default-seed canary digests {} differ from golden.json {}",
                hex_list(&canary),
                hex_list(want)
            )
        }),
        None => out.note("no golden digests recorded for this workload".into()),
    }

    if trace {
        let t = traced(&specs, &reference, seconds, &mut out);
        layer_metrics(&t, &mut out);
        out.write_spans(workload, t.tracer.spans());
        return out;
    }

    let mut setups = vec![first_setup];
    let plain = untraced(&specs, &reference, seconds, &mut out, || {
        setups.push(set_up().1);
    });
    out.metric("setup_s", median(&setups));
    out.note(format!("setup_s: median of {} set-ups", setups.len()));
    let mut passes = plain.pass_seconds.clone();
    passes.sort_by(f64::total_cmp);
    out.note(format!(
        "untraced passes: {}, ms min {:.1} median {:.1} max {:.1}",
        passes.len(),
        passes[0] * 1e3,
        median(&passes) * 1e3,
        passes[passes.len() - 1] * 1e3
    ));
    out.metric("games_per_s", plain.games_per_s(&specs));
    out.metric("lat_ms", plain.gen_sustained_ms());
    out.tail("lat_tail_ms", &plain.gen_ms.concat(), workload);
    out.metric("goodput_rps", plain.replications_per_s(&specs));
    out.metric("peak_rss_mb", crate::host::peak_rss_mb());
    out
}

/// Per-layer metrics of a traced run.
fn layer_metrics(t: &Traced, out: &mut Outcome) {
    let spans = t.tracer.spans();
    let totals = totals_by_name(spans);
    let by = |name: &str| totals[name_id(name) as usize];
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let gens = t.core_generations as f64;
    let (_, rep_ns, _) = by("core.replication");
    let (_, schedule_ns, _) = by("core.schedule");
    let (_, play_ns, _) = by("core.play");
    let (_, evolve_ns, _) = by("core.evolve");
    out.metric("core.schedule_ns_per_gen", schedule_ns as f64 / gens);
    out.metric("core.play_ns_per_gen", play_ns as f64 / gens);
    out.metric("core.evolve_ns_per_gen", evolve_ns as f64 / gens);
    out.metric("core.play_share", ratio(play_ns as f64, rep_ns as f64));

    let all = &t.all;
    let (_, shadow_ns, _) = by("shadow.replication");
    let (_, round_ns, round_self) = by("game.play_round");
    let (_, game_ns, game_self) = by("game.play_game");
    out.metric(
        "game.ns_per_game_batched",
        ratio(round_ns as f64, all.games_batched as f64),
    );
    out.metric(
        "game.batched_round_share",
        ratio(all.rounds_batched as f64, all.rounds() as f64),
    );
    out.metric(
        "game.ns_per_game_scalar",
        ratio(game_ns as f64, all.games_scalar as f64),
    );
    let mut tournaments: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name_id("game.tournament"))
        .map(|s| (s.end - s.start) as f64 / 1e6)
        .collect();
    tournaments.sort_by(f64::total_cmp);
    out.metric("game.tournament_ms_p50", percentile(&tournaments, 50.0));
    out.metric("game.tournament_ms_p90", percentile(&tournaments, 90.0));
    out.metric(
        "game.self_share",
        ratio((round_self + game_self) as f64, shadow_ns as f64),
    );

    let pass = &t.pass;
    out.metric("count.games", pass.games() as f64);
    out.metric("count.rounds", pass.rounds() as f64);
    out.metric("count.rounds_batched", pass.rounds_batched as f64);
    out.metric("count.rounds_scalar", pass.rounds_scalar as f64);

    let (_, gossip_ns, gossip_self) = by("net.gossip");
    out.metric(
        "net.gossip_us_per_round",
        ratio(gossip_ns as f64 / 1e3, all.rounds() as f64),
    );
    out.metric(
        "net.gossip_self_share",
        ratio(gossip_self as f64, shadow_ns as f64),
    );
    out.metric(
        "net.gossip_useful_ratio",
        ratio(pass.gossip_shared as f64, pass.gossip_scanned as f64),
    );
    out.metric("net.gossip_exchanges", pass.gossip_exchanges as f64);
    out.metric("net.gossip_scanned", pass.gossip_scanned as f64);
    out.metric("net.gossip_shared", pass.gossip_shared as f64);
    out.metric("net.resident_bytes", pass.resident_bytes as f64);
    out.metric("net.observed_pairs", pass.observed_pairs as f64);
    let (forgets, forget_ns, _) = by("net.forget_subject");
    out.metric(
        "net.forget_subject_us",
        ratio(forget_ns as f64 / 1e3, forgets as f64),
    );
    let (evolves, ga_ns, _) = by("ga.next_generation");
    out.metric(
        "ga.next_generation_us",
        ratio(ga_ns as f64 / 1e3, evolves as f64),
    );

    let overhead = trace_overhead(spans);
    out.metric("obs.trace_overhead", overhead);
    out.check(overhead.abs() <= DRIFT_BOUND, || {
        format!(
            "the traced composition's play phase ran {:+.1}% against the program's \
             (bound ±{:.0}%): src/shadow.rs no longer takes the program's path",
            -100.0 * overhead / (1.0 + overhead),
            100.0 * DRIFT_BOUND
        )
    });
    self_time_notes(spans, out);
}

/// The traced composition's games per second over the program's, minus
/// one: per replication, the program's `core.play` time over the traced
/// composition's `game.schedule` time (the same games), and the median
/// of those ratios. Negative when tracing slows the composition down.
fn trace_overhead(spans: &[Span]) -> f64 {
    let (program, traced) = (name_id("core.play"), name_id("game.schedule"));
    let mut per_id: Vec<(u64, u64)> = Vec::new();
    for s in spans
        .iter()
        .filter(|s| s.name == program || s.name == traced)
    {
        let id = s.id as usize;
        if per_id.len() <= id {
            per_id.resize(id + 1, (0, 0));
        }
        let slot = if s.name == program {
            &mut per_id[id].0
        } else {
            &mut per_id[id].1
        };
        *slot += s.end - s.start;
    }
    let ratios: Vec<f64> = per_id
        .iter()
        .filter(|(p, t)| *p > 0 && *t > 0)
        .map(|&(p, t)| p as f64 / t as f64 - 1.0)
        .collect();
    if ratios.is_empty() {
        0.0
    } else {
        median(&ratios)
    }
}

/// One line per span name: count, total and self milliseconds, and the
/// self share of the traced replications.
fn self_time_notes(spans: &[Span], out: &mut Outcome) {
    let totals = totals_by_name(spans);
    let shadow = totals[name_id("shadow.replication") as usize].1 as f64;
    for (name, (count, total, own)) in crate::trace::NAMES.iter().zip(totals) {
        if count > 0 {
            out.note(format!(
                "span {name}: {count} spans, {:.3} ms total, {:.3} ms self ({:.2}% of traced replications)",
                total as f64 / 1e6,
                own as f64 / 1e6,
                if name.starts_with("core.") { 0.0 } else { 100.0 * own as f64 / shadow },
            ));
        }
    }
}

/// Digests of the default seed's inputs cut to one generation — cheap
/// enough to run on every seed, and recorded in `golden.json`.
pub fn canary_digests(workload: Workload) -> Vec<u64> {
    sim_specs(workload, DEFAULT_SEED)
        .into_iter()
        .map(|mut s| {
            s.config.generations = 1;
            digest(&run_replication(&s.config, &s.case, s.seed))
        })
        .collect()
}

/// `[0123abcd…, …]` rendering of digests.
pub fn hex_list(digests: &[u64]) -> String {
    let items: Vec<String> = digests.iter().map(|d| format!("{d:016x}")).collect();
    format!("[{}]", items.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahn_core::{CaseSpec, ExperimentConfig, PathMode};

    fn small(scenario: Option<&str>, defense: &str) -> SimSpec {
        let mut config = ExperimentConfig::smoke();
        config.generations = 2;
        config.replications = 1;
        config.rounds = 80;
        config.gossip = ahn_core::atlas::resolve_defense(defense).expect("defense");
        let case = CaseSpec::mini("t", &[2], 12, PathMode::Shorter);
        let (config, case) = match scenario {
            Some(name) => ahn_core::find_scenario(name)
                .expect("scenario")
                .apply(&config, &case)
                .expect("fits"),
            None => (config, case),
        };
        SimSpec {
            label: "test".into(),
            config,
            case,
            seed: 11,
        }
    }

    #[test]
    fn traced_composition_matches_the_program() {
        // Every tournament-loop branch: batched, scalar zoo kinds with
        // and without gossip, whitewashers, flooders and sleepers.
        let cases = [
            small(None, "watchdog"),
            small(None, "core"),
            small(Some("slanderers"), "confidant"),
            small(Some("colluding-clique"), "core"),
            small(Some("whitewashers"), "watchdog"),
            small(Some("energy-flooders"), "watchdog"),
            small(Some("low-power-mesh"), "confidant"),
        ];
        for spec in &cases {
            let want = run_replication(&spec.config, &spec.case, spec.seed);
            let mut tr = Tracer::new();
            let mut counts = Counts::default();
            let got = shadow::replicate(spec, 0, &mut tr, &mut counts);
            assert_eq!(digest(&got), digest(&want), "{:?}", spec.case.name);
            assert_eq!(
                counts.games(),
                nominal_games(spec),
                "{:?}",
                spec.config.attackers
            );
        }
    }

    #[test]
    fn trace_overhead_is_the_median_ratio_per_replication() {
        let span = |name: &str, id: u32, len: u64| Span {
            name: name_id(name),
            id,
            parent: crate::trace::ROOT,
            start: 1_000,
            end: 1_000 + len,
        };
        // Program over traced time: 90/100, 100/(50 + 50), 130/100.
        let spans = [
            span("core.play", 0, 90),
            span("game.schedule", 0, 100),
            span("core.play", 1, 100),
            span("game.schedule", 1, 50),
            span("game.schedule", 1, 50),
            span("game.play_round", 1, 40),
            span("core.play", 2, 130),
            span("game.schedule", 2, 100),
        ];
        assert_eq!(trace_overhead(&spans), 0.0);
        assert!((trace_overhead(&spans[..2]) + 0.1).abs() < 1e-12);
        assert_eq!(trace_overhead(&[]), 0.0);
    }

    #[test]
    fn batched_and_scalar_paths_are_told_apart() {
        let mut tr = Tracer::new();
        let mut base = Counts::default();
        shadow::replicate(&small(None, "watchdog"), 0, &mut tr, &mut base);
        assert!(base.rounds_batched > 0 && base.rounds_scalar == 0);
        let mut zoo = Counts::default();
        shadow::replicate(
            &small(Some("whitewashers"), "watchdog"),
            1,
            &mut tr,
            &mut zoo,
        );
        assert!(zoo.rounds_batched == 0 && zoo.rounds_scalar > 0);
        assert!(zoo.forgets > 0, "rounds >= 75 must trigger a whitewash");
        assert_eq!(zoo.gossip_exchanges, 0);
    }
}
