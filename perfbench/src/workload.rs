//! The four workloads and their seeded input generators.
//!
//! Every input the program receives is generated here from the
//! `--seed` argument: experiment configs and cases (scenarios applied
//! through `find_scenario(..).apply`, defenses through
//! `atlas::resolve_defense`) and the serve workload's job specs and
//! arrival schedule. The same seed always yields the same inputs.

use ahn_core::{atlas, find_scenario, CaseSpec, ExperimentConfig, PathMode};
use ahn_serve::loadtest::smoke_spec;
use ahn_serve::JobSpec;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The seed whose reference digests are committed in `golden.json`.
pub const DEFAULT_SEED: u64 = 1;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// GA replications of the paper's Table-5 four-environment case.
    PaperEvolve,
    /// Every adversary-zoo scenario at N = 1000 under the watchdog.
    Zoo1000,
    /// Gossip defenses (CORE, CONFIDANT) at N = 300.
    Gossip300,
    /// An open-loop request stream against an in-process job server.
    ServeOpen,
}

/// Every workload, in `BENCHMARK.json` order, with the reason it was
/// chosen.
pub const ALL: [(Workload, &str, &str); 4] = [
    (
        Workload::PaperEvolve,
        "paper-evolve",
        "the paper's own computation: Table-5 case 3, population 100, 50-node tournaments, \
         R = 300, no gossip; batched kernel on the dense reputation backing",
    ),
    (
        Workload::Zoo1000,
        "zoo-1000",
        "six adversary-zoo scenarios at N = 1000 under the watchdog, R = 100: scalar play_game \
         path on the sparse backing, forget_subject and sleeper sampling; batched kernel bypassed",
    ),
    (
        Workload::Gossip300,
        "gossip-300",
        "base under CORE and slanderers under CONFIDANT at N = 300 (sparse backing): gossip is ~90% \
         of the run, honest sharing on the batched path and poisoning on the scalar one",
    ),
    (
        Workload::ServeOpen,
        "serve-open",
        "open-loop Poisson arrivals of the CI loadtest mix (4 smoke specs per 120 requests) at a \
         fifth of capacity into a 2-worker server: HTTP, hashing, cache, coalescing, queue wait",
    ),
];

impl Workload {
    /// Looks a workload up by its `BENCHMARK.json` name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.iter().find(|(_, n, _)| *n == name).map(|(w, _, _)| *w)
    }

    /// The workload's `BENCHMARK.json` name.
    pub fn name(self) -> &'static str {
        ALL.iter()
            .find(|(w, _, _)| *w == self)
            .map(|(_, n, _)| *n)
            .expect("every workload is listed")
    }

    /// Per-workload stream salt, so two workloads never share a seed
    /// stream.
    fn salt(self) -> u64 {
        match self {
            Workload::PaperEvolve => 0x5041_5045_5256_4f4c,
            Workload::Zoo1000 => 0x5a4f_4f31_3030_3030,
            Workload::Gossip300 => 0x474f_5353_4950_3130,
            Workload::ServeOpen => 0x5345_5256_454f_504e,
        }
    }

    /// Highest tail percentile reported for this workload's latency.
    /// Even a 15 s run has about 280 generations on paper-evolve, 90 on
    /// zoo-1000 and 200 on gossip-300. The cap sits at or below the
    /// highest percentile those counts support, so the reported
    /// percentile is the same from run to run. serve-open reports it per
    /// one-second window of about 1 700 requests. There p97 lies inside
    /// the 4% of requests that queue a job, so it measures queue wait
    /// and compute; p99 lies in the tail of that small group and moved
    /// three times as much between runs.
    pub fn tail_cap(self) -> f64 {
        match self {
            Workload::PaperEvolve => 90.0,
            Workload::Zoo1000 => 75.0,
            Workload::Gossip300 => 90.0,
            Workload::ServeOpen => 97.0,
        }
    }

    /// The workload's input RNG for `seed`.
    pub fn rng(self, seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed ^ self.salt())
    }
}

/// The pure inputs of one replication.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSpec {
    /// Scenario/defense label for reports.
    pub label: String,
    /// Experiment configuration (one replication).
    pub config: ExperimentConfig,
    /// Evaluation case.
    pub case: CaseSpec,
    /// Replication seed.
    pub seed: u64,
}

/// Replications per paper-evolve cycle.
const PAPER_SPECS: usize = 4;
/// Generations per paper-evolve replication.
const PAPER_GENERATIONS: usize = 3;
/// Network size of the zoo workload.
pub const ZOO_N: usize = 1000;
/// Tournament rounds of the zoo workload. Whitewashers shed their
/// history at round 75 (their period), which a tournament of 75 rounds
/// (indices 0..75) never reaches; 100 rounds also hold three on-off
/// cycles of 30.
const ZOO_ROUNDS: usize = 100;
/// Generations per zoo replication.
const ZOO_GENERATIONS: usize = 2;
/// The zoo scenarios, one replication each per cycle.
pub const ZOO_SCENARIOS: [&str; 6] = [
    "slanderers",
    "colluding-clique",
    "on-off-grudgers",
    "whitewashers",
    "energy-flooders",
    "low-power-mesh",
];
/// Network size of the gossip workload. At N = 1000 the reputation rows
/// (41 MB) live in the last-level cache a shared host splits with its
/// neighbours, and run-to-run throughput moved by up to 31% (IQR over
/// median of ten runs); at 300 (6 MB, still the sparse backing) gossip
/// keeps ~90% of the run and the runs agree within a few percent.
const GOSSIP_N: usize = 300;
/// Tournament rounds of the gossip workload (the smoke preset's).
const GOSSIP_ROUNDS: usize = 30;
/// Generations per gossip replication.
const GOSSIP_GENERATIONS: usize = 1;
/// The gossip workload's (scenario, defense) pairs.
pub const GOSSIP_CELLS: [(&str, &str); 2] = [("base", "core"), ("slanderers", "confidant")];

/// One scenario × defense replication at N = `n`, built the way
/// `ahn-exp scenario run` builds it.
fn scenario_spec(
    scenario: &str,
    defense: &str,
    n: usize,
    rounds: usize,
    generations: usize,
    seed: u64,
) -> SimSpec {
    let mut config = ExperimentConfig::smoke();
    config.rounds = rounds;
    config.generations = generations;
    config.replications = 1;
    config.gossip = atlas::resolve_defense(defense).expect("built-in defense");
    let case = CaseSpec::mini(scenario, &[0], n, PathMode::Shorter);
    let (mut config, case) = find_scenario(scenario)
        .expect("built-in scenario")
        .apply(&config, &case)
        .expect("scenario fits the network");
    config.base_seed = seed;
    SimSpec {
        label: format!("{scenario}/{defense}"),
        config,
        case,
        seed,
    }
}

/// The replications one cycle of a simulation workload runs, in order.
///
/// # Panics
/// Panics for [`Workload::ServeOpen`], which has no replications.
pub fn sim_specs(workload: Workload, seed: u64) -> Vec<SimSpec> {
    let mut rng = workload.rng(seed);
    match workload {
        Workload::PaperEvolve => (0..PAPER_SPECS)
            .map(|k| {
                let seed = rng.gen::<u64>();
                let mut config = ExperimentConfig::paper();
                config.generations = PAPER_GENERATIONS;
                config.replications = 1;
                config.base_seed = seed;
                SimSpec {
                    label: format!("case 3 #{k}"),
                    config,
                    case: CaseSpec::paper(3),
                    seed,
                }
            })
            .collect(),
        Workload::Zoo1000 => ZOO_SCENARIOS
            .iter()
            .map(|s| scenario_spec(s, "watchdog", ZOO_N, ZOO_ROUNDS, ZOO_GENERATIONS, rng.gen()))
            .collect(),
        Workload::Gossip300 => GOSSIP_CELLS
            .iter()
            .map(|(s, d)| {
                scenario_spec(s, d, GOSSIP_N, GOSSIP_ROUNDS, GOSSIP_GENERATIONS, rng.gen())
            })
            .collect(),
        Workload::ServeOpen => panic!("serve-open has no replications"),
    }
}

/// Mean request arrivals per second of the serve workload: about a
/// fifth of the closed-loop capacity of a 2-core host on this mix, so
/// that the node stays below saturation when a shared host slows it
/// down by half (see `README.md`, "serve-open traffic").
pub const SERVE_RATE: f64 = 1700.0;
/// Requests per block of the traffic mix: the repository's CI mixed
/// loadtest (`ahn-exp loadtest --requests 120 --distinct 4`), which
/// sends each block's distinct specs round-robin.
const MIX_REQUESTS: usize = 120;
/// Distinct specs per block of the traffic mix (the CI loadtest's).
const MIX_DISTINCT: usize = 4;

/// One scheduled request of the serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// When the request is due, nanoseconds after the schedule starts.
    pub due_ns: u64,
    /// Index of the submitted spec in [`ServeSchedule::specs`].
    pub spec: usize,
}

/// The serve workload's inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSchedule {
    /// Distinct job specs, in first-use order.
    pub specs: Vec<JobSpec>,
    /// Requests in due order.
    pub arrivals: Vec<Arrival>,
}

/// Poisson arrivals at [`SERVE_RATE`] over `seconds`, in blocks of the
/// CI loadtest's mix.
pub fn serve_schedule(seed: u64, seconds: f64) -> ServeSchedule {
    let mut rng = Workload::ServeOpen.rng(seed);
    let mut specs = Vec::new();
    let mut arrivals = Vec::new();
    let mut t = 0.0f64;
    loop {
        // Exponential gap by inversion; 1 - u keeps ln's argument > 0.
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / SERVE_RATE;
        if t >= seconds {
            break;
        }
        // Block k holds arrivals [k * MIX_REQUESTS, (k + 1) * MIX_REQUESTS)
        // and cycles round-robin over its MIX_DISTINCT fresh specs: the
        // first pass misses, later passes coalesce or hit.
        let k = arrivals.len() % MIX_REQUESTS;
        // A seeded index per spec gives every block fresh cache keys.
        if k == 0 {
            for _ in 0..MIX_DISTINCT {
                specs.push(smoke_spec(rng.gen()));
            }
        }
        let spec = specs.len() - MIX_DISTINCT + k % MIX_DISTINCT;
        arrivals.push(Arrival {
            due_ns: (t * 1e9) as u64,
            spec,
        });
    }
    ServeSchedule { specs, arrivals }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahn_core::canonical_hash;

    fn digest(specs: &[SimSpec]) -> Vec<u64> {
        specs
            .iter()
            .map(|s| canonical_hash(&(&s.config, &s.case, s.seed)).expect("hashable"))
            .collect()
    }

    #[test]
    fn sim_generators_are_deterministic() {
        for w in [
            Workload::PaperEvolve,
            Workload::Zoo1000,
            Workload::Gossip300,
        ] {
            let a = sim_specs(w, 7);
            assert_eq!(digest(&a), digest(&sim_specs(w, 7)), "{w:?}");
            assert_ne!(digest(&a), digest(&sim_specs(w, 8)), "{w:?}");
        }
    }

    #[test]
    fn serve_generator_is_deterministic() {
        let a = serve_schedule(7, 2.0);
        assert_eq!(a, serve_schedule(7, 2.0));
        assert_ne!(a, serve_schedule(8, 2.0));
        assert!(a.arrivals.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        assert!(a.arrivals.iter().all(|r| r.spec < a.specs.len()));
    }

    #[test]
    fn serve_schedule_matches_its_rate() {
        let s = serve_schedule(3, 20.0);
        let rate = s.arrivals.len() as f64 / 20.0;
        assert!((rate / SERVE_RATE - 1.0).abs() < 0.1, "rate {rate}");
        let blocks = s.arrivals.len().div_ceil(MIX_REQUESTS);
        assert_eq!(s.specs.len(), blocks * MIX_DISTINCT);
        // Every block sends each of its specs MIX_REQUESTS / MIX_DISTINCT
        // times, like the CI loadtest.
        let mut uses = vec![0; s.specs.len()];
        for a in &s.arrivals[..(blocks - 1) * MIX_REQUESTS] {
            uses[a.spec] += 1;
        }
        let full = &uses[..(blocks - 1) * MIX_DISTINCT];
        assert!(full.iter().all(|&u| u == MIX_REQUESTS / MIX_DISTINCT));
    }

    #[test]
    fn workloads_have_the_promised_shape() {
        for s in sim_specs(Workload::Zoo1000, 1) {
            assert!(s.config.rounds > 75, "whitewashers reset at round 75");
            assert!(s.config.gossip.is_none(), "watchdog only");
            assert_eq!(s.case.envs[0].size, ZOO_N);
        }
        for s in sim_specs(Workload::Gossip300, 1) {
            assert!(s.config.gossip.is_some());
            let n = s.case.envs[0].size;
            assert!(ahn_net::ReputationMatrix::new(n).is_sparse(), "N = {n}");
        }
        for s in sim_specs(Workload::PaperEvolve, 1) {
            assert_eq!(s.config.population, 100);
            assert_eq!(s.config.rounds, 300);
            assert!(s.config.gossip.is_none() && s.config.attackers.is_none());
            assert_eq!(s.case.envs.len(), 4);
        }
        for (w, name, why) in ALL {
            assert_eq!(Workload::parse(name), Some(w));
            assert!(
                !why.contains('\n') && why.len() <= 200,
                "{name}: why too long"
            );
        }
    }
}
