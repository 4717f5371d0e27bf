//! The traced replication: `run_replication_with` recomposed from the
//! program's public layer functions, with a span around every call.
//!
//! The experiment runner hides its game loop, so the traced run drives
//! the same public pieces itself — `Arena`, the evaluation schedule's
//! participant draw, `play_round` / `play_game`, the `gossip` exchange
//! functions, `ReputationMatrix::forget_subject` and
//! `next_generation_into` — in the same order and with the same RNG
//! stream. Two checks on every traced replication hold this copy to the
//! program: its result must hash equal to the untraced reference run of
//! the same spec, and its play phase must take as long as the program's
//! own (`crate::sim`, `DRIFT_BOUND`). The second catches a program that
//! reaches the same output on another path, such as the other game
//! kernel; a change that keeps both output and time is not caught. When
//! the program's tournament or schedule loop changes, change this copy.

use crate::trace::{name_id, Tracer};
use crate::workload::SimSpec;
use ahn_bitstr::BitStr;
use ahn_core::ReplicationResult;
use ahn_ga::{next_generation_into, GenStats};
use ahn_game::game::Scratch;
use ahn_game::{batch, play_game, Arena, BatchScratch, EvaluationSchedule, NodeKind};
use ahn_net::energy::{EnergyLedger, PowerProfile};
use ahn_net::{gossip, NodeId};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Exact work counts of traced replications.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Generations played.
    pub generations: u64,
    /// Tournaments played.
    pub tournaments: u64,
    /// Rounds on the batched kernel (`round_supported`).
    pub rounds_batched: u64,
    /// Rounds on the scalar `play_game` path.
    pub rounds_scalar: u64,
    /// Games played by the batched kernel.
    pub games_batched: u64,
    /// Games played by `play_game` (including flooders' extra packets).
    pub games_scalar: u64,
    /// Gossip exchanges (one teller, one listener).
    pub gossip_exchanges: u64,
    /// Subjects examined by gossip exchanges.
    pub gossip_scanned: u64,
    /// Subjects actually shared, poisoned or vouched for.
    pub gossip_shared: u64,
    /// `forget_subject` calls (whitewasher identity resets).
    pub forgets: u64,
    /// Largest `ReputationMatrix::resident_bytes` after a generation.
    pub resident_bytes: u64,
    /// Largest `ReputationMatrix::observed_pairs` after a generation.
    pub observed_pairs: u64,
}

impl Counts {
    /// Adds another set of counts (maxima for the reputation sizes).
    pub fn add(&mut self, o: &Counts) {
        self.generations += o.generations;
        self.tournaments += o.tournaments;
        self.rounds_batched += o.rounds_batched;
        self.rounds_scalar += o.rounds_scalar;
        self.games_batched += o.games_batched;
        self.games_scalar += o.games_scalar;
        self.gossip_exchanges += o.gossip_exchanges;
        self.gossip_scanned += o.gossip_scanned;
        self.gossip_shared += o.gossip_shared;
        self.forgets += o.forgets;
        self.resident_bytes = self.resident_bytes.max(o.resident_bytes);
        self.observed_pairs = self.observed_pairs.max(o.observed_pairs);
    }

    /// Games of every kind.
    pub fn games(&self) -> u64 {
        self.games_batched + self.games_scalar
    }

    /// Rounds of every kind.
    pub fn rounds(&self) -> u64 {
        self.rounds_batched + self.rounds_scalar
    }
}

/// Span ids, resolved once.
struct Names {
    root: u8,
    decode: u8,
    schedule: u8,
    tournament: u8,
    play_round: u8,
    play_game: u8,
    gossip: u8,
    forget: u8,
    evolve: u8,
}

impl Names {
    fn new() -> Self {
        Names {
            root: name_id("shadow.replication"),
            decode: name_id("strategy.decode"),
            schedule: name_id("game.schedule"),
            tournament: name_id("game.tournament"),
            play_round: name_id("game.play_round"),
            play_game: name_id("game.play_game"),
            gossip: name_id("net.gossip"),
            forget: name_id("net.forget_subject"),
            evolve: name_id("ga.next_generation"),
        }
    }
}

/// Reusable buffers of the schedule and tournament loops.
#[derive(Default)]
struct Buffers {
    csn_pool: Vec<NodeId>,
    plays: Vec<u32>,
    eligible: Vec<NodeId>,
    participants: Vec<NodeId>,
    rest: Vec<NodeId>,
    game: Scratch,
    batch: BatchScratch,
    awake: Vec<NodeId>,
    victims: Vec<NodeId>,
    allies: Vec<NodeId>,
}

/// Runs one replication of `spec` under spans rooted at `id`, adding
/// its work to `counts`.
pub fn replicate(
    spec: &SimSpec,
    id: u32,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> ReplicationResult {
    let n = Names::new();
    let (config, case) = (&spec.config, &spec.case);
    config.validate().expect("invalid experiment configuration");
    tr.begin(n.root, id);

    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
    let schedule = EvaluationSchedule::new(case.envs.clone(), config.rounds, config.plays_per_env);
    let bits = config.codec.genome_bits();
    let mut genomes: Vec<BitStr> = (0..config.population)
        .map(|_| {
            let mut g = BitStr::random(&mut rng, bits);
            config.mask_genome(&mut g);
            g
        })
        .collect();
    let decode = |gs: &[BitStr]| {
        gs.iter()
            .map(|g| config.codec.decode(g))
            .collect::<Vec<_>>()
    };
    let game_config = ahn_core::game_config_of(config, case);
    let mut arena = match &config.attackers {
        None => Arena::new(
            decode(&genomes),
            schedule.required_csn(),
            game_config,
            case.envs.len(),
        ),
        Some(groups) => {
            let mut kinds = vec![NodeKind::Normal; config.population];
            for g in groups {
                kinds.extend(std::iter::repeat_n(g.behavior.node_kind(), g.count));
            }
            Arena::with_kinds(decode(&genomes), kinds, game_config, case.envs.len())
        }
    };
    for sleeper in &config.sleepers {
        arena.set_duty_cycle(NodeId::from(sleeper.index), sleeper.duty);
    }

    let mut coop_by_gen = Vec::with_capacity(config.generations);
    let mut fitness_by_gen = Vec::with_capacity(config.generations);
    let mut offspring = Vec::with_capacity(config.population);
    let mut fitnesses = Vec::with_capacity(config.population);
    let mut buf = Buffers::default();

    for generation in 0..config.generations {
        tr.begin(n.decode, id);
        arena.set_strategies_with(|i| config.codec.decode(&genomes[i]));
        tr.end();

        tr.begin(n.schedule, id);
        run_schedule(
            &schedule, &mut arena, &mut rng, &mut buf, &n, id, tr, counts,
        );
        tr.end();
        counts.generations += 1;
        counts.resident_bytes = counts
            .resident_bytes
            .max(arena.reputation.resident_bytes() as u64);
        counts.observed_pairs = counts
            .observed_pairs
            .max(arena.reputation.observed_pairs() as u64);

        coop_by_gen.push(arena.metrics.total().cooperation_level());
        arena.fitnesses_into(&mut fitnesses);
        fitness_by_gen.push(GenStats::from_fitnesses(&fitnesses));

        if generation + 1 < config.generations {
            tr.begin(n.evolve, id);
            next_generation_into(&mut rng, &config.ga, &genomes, &fitnesses, &mut offspring);
            std::mem::swap(&mut genomes, &mut offspring);
            for g in &mut genomes {
                config.mask_genome(g);
            }
            tr.end();
        }
    }

    let profile = PowerProfile::wavelan();
    let mean_energy = |ledgers: &[EnergyLedger]| -> f64 {
        if ledgers.is_empty() {
            0.0
        } else {
            ledgers.iter().map(|l| l.total_mj(&profile)).sum::<f64>() / ledgers.len() as f64
        }
    };
    let normal = arena.n_normal();
    let result = ReplicationResult {
        coop_by_gen,
        final_by_env: (0..case.envs.len())
            .map(|e| *arena.metrics.env(e))
            .collect(),
        final_total: arena.metrics.total(),
        final_population: decode(&genomes),
        fitness_by_gen,
        energy_normal_mj: mean_energy(&arena.energy[..normal]),
        energy_selfish_mj: mean_energy(&arena.energy[normal..]),
    };
    tr.end();
    result
}

/// The evaluation schedule's participant draw (§4.4), one traced
/// tournament per draw.
#[allow(clippy::too_many_arguments)]
fn run_schedule(
    schedule: &EvaluationSchedule,
    arena: &mut Arena,
    rng: &mut ChaCha8Rng,
    buf: &mut Buffers,
    n: &Names,
    id: u32,
    tr: &mut Tracer,
    counts: &mut Counts,
) {
    let normal = arena.n_normal();
    buf.csn_pool.clear();
    buf.csn_pool.extend(arena.selfish_ids());
    arena.begin_generation();
    buf.plays.clear();
    buf.plays.resize(normal, 0);
    let target = schedule.plays_per_env as u32;
    for (env_idx, env) in schedule.envs.iter().enumerate() {
        buf.plays.fill(0);
        loop {
            let plays = &buf.plays;
            buf.eligible.clear();
            buf.eligible.extend(
                (0..normal)
                    .map(NodeId::from)
                    .filter(|id| plays[id.index()] < target),
            );
            if buf.eligible.is_empty() {
                break;
            }
            buf.participants.clear();
            if buf.eligible.len() >= env.normal() {
                let (chosen, _) = buf.eligible.partial_shuffle(rng, env.normal());
                buf.participants.extend_from_slice(chosen);
            } else {
                buf.participants.extend_from_slice(&buf.eligible);
                buf.rest.clear();
                buf.rest.extend(
                    (0..normal)
                        .map(NodeId::from)
                        .filter(|id| plays[id.index()] >= target),
                );
                buf.rest.shuffle(rng);
                buf.rest.sort_by_key(|id| plays[id.index()]);
                let fill = env.normal() - buf.eligible.len();
                buf.participants.extend(buf.rest.iter().take(fill));
            }
            for p in &buf.participants {
                buf.plays[p.index()] += 1;
            }
            buf.participants.extend_from_slice(&buf.csn_pool[..env.csn]);
            tr.begin(n.tournament, id);
            let participants = std::mem::take(&mut buf.participants);
            tournament(
                schedule.rounds,
                arena,
                rng,
                &participants,
                env_idx,
                buf,
                n,
                id,
                tr,
                counts,
            );
            buf.participants = participants;
            tr.end();
        }
    }
}

/// One game played by `source`, with the sleeper rule of the
/// tournament loop: a sleeping source wakes to send its own packet.
#[allow(clippy::too_many_arguments)]
fn source_game(
    arena: &mut Arena,
    rng: &mut ChaCha8Rng,
    source: NodeId,
    participants: &[NodeId],
    awake: &mut Vec<NodeId>,
    sample_sleep: bool,
    env: usize,
    scratch: &mut Scratch,
    counts: &mut Counts,
) {
    if !sample_sleep {
        play_game(arena, rng, source, participants, env, scratch);
        counts.games_scalar += 1;
        return;
    }
    let was_awake = awake.contains(&source);
    if !was_awake {
        awake.push(source);
    }
    if awake.len() >= 3 {
        play_game(arena, rng, source, awake, env, scratch);
        counts.games_scalar += 1;
    }
    if !was_awake {
        awake.pop();
    }
}

/// One tournament of `rounds` rounds among `participants`.
#[allow(clippy::too_many_arguments)]
fn tournament(
    rounds: usize,
    arena: &mut Arena,
    rng: &mut ChaCha8Rng,
    participants: &[NodeId],
    env: usize,
    buf: &mut Buffers,
    n: &Names,
    id: u32,
    tr: &mut Tracer,
    counts: &mut Counts,
) {
    counts.tournaments += 1;
    buf.awake.clear();
    let sample_sleep = arena.has_sleepers();
    let use_batch = !sample_sleep && batch::round_supported(arena);
    let (mut has_whitewashers, mut has_flooders, mut has_liars) = (false, false, false);
    for &p in participants {
        match arena.kind(p) {
            NodeKind::Whitewasher { .. } => has_whitewashers = true,
            NodeKind::Flooder { .. } => has_flooders = true,
            NodeKind::Liar => has_liars = true,
            _ => {}
        }
    }
    buf.victims.clear();
    if has_liars {
        buf.victims.extend(
            participants
                .iter()
                .copied()
                .filter(|&p| arena.kind(p).is_normal()),
        );
    }
    for round in 0..rounds {
        arena.set_round_clock(round as u32);
        if has_whitewashers && round > 0 {
            for &p in participants {
                if let NodeKind::Whitewasher { period } = arena.kind(p) {
                    if period > 0 && round % usize::from(period) == 0 {
                        tr.begin(n.forget, id);
                        arena.reputation.forget_subject(p);
                        tr.end();
                        counts.forgets += 1;
                    }
                }
            }
        }
        if sample_sleep {
            buf.awake.clear();
            for &p in participants {
                let duty = arena.duty_cycle(p);
                if duty >= 1.0 || rng.gen_bool(duty) {
                    buf.awake.push(p);
                    arena.energy[p.index()].add_idle(ahn_game::tournament::ROUND_SECONDS);
                } else {
                    arena.energy[p.index()].add_sleep(ahn_game::tournament::ROUND_SECONDS);
                }
            }
            if buf.awake.len() < 2 {
                continue;
            }
        }
        if use_batch {
            tr.begin(n.play_round, id);
            batch::play_round(arena, rng, participants, env, &mut buf.batch);
            tr.end();
            counts.rounds_batched += 1;
            counts.games_batched += participants.len() as u64;
        } else {
            tr.begin(n.play_game, id);
            for &source in participants {
                source_game(
                    arena,
                    rng,
                    source,
                    participants,
                    &mut buf.awake,
                    sample_sleep,
                    env,
                    &mut buf.game,
                    counts,
                );
            }
            tr.end();
            counts.rounds_scalar += 1;
        }
        if has_flooders {
            tr.begin(n.play_game, id);
            for &source in participants {
                if let NodeKind::Flooder { extra } = arena.kind(source) {
                    for _ in 0..extra {
                        source_game(
                            arena,
                            rng,
                            source,
                            participants,
                            &mut buf.awake,
                            sample_sleep,
                            env,
                            &mut buf.game,
                            counts,
                        );
                    }
                }
            }
            tr.end();
        }
        if let Some(config) = arena.config.gossip {
            let pool: &[NodeId] = if sample_sleep {
                &buf.awake
            } else {
                participants
            };
            if pool.len() < 2 {
                continue;
            }
            tr.begin(n.gossip, id);
            let subjects = arena.reputation.len() as u64 - 2;
            for &listener in pool {
                let teller = loop {
                    let t = pool[rng.gen_range(0..pool.len())];
                    if t != listener {
                        break t;
                    }
                };
                counts.gossip_exchanges += 1;
                match arena.kind(teller) {
                    NodeKind::Liar => {
                        counts.gossip_scanned += buf.victims.len() as u64;
                        counts.gossip_shared += gossip::poison_observations(
                            &mut arena.reputation,
                            teller,
                            listener,
                            &buf.victims,
                            &config,
                        ) as u64;
                        buf.allies.clear();
                        buf.allies.extend(
                            pool.iter()
                                .copied()
                                .filter(|&p| arena.kind(p) == NodeKind::Liar),
                        );
                        counts.gossip_scanned += buf.allies.len() as u64;
                        counts.gossip_shared += gossip::vouch_observations(
                            &mut arena.reputation,
                            teller,
                            listener,
                            &buf.allies,
                            &config,
                        ) as u64;
                    }
                    NodeKind::Colluder(clique) => {
                        counts.gossip_scanned += subjects;
                        counts.gossip_shared += gossip::share_observations(
                            &mut arena.reputation,
                            teller,
                            listener,
                            &config,
                        ) as u64;
                        buf.allies.clear();
                        buf.allies.extend(
                            pool.iter()
                                .copied()
                                .filter(|&p| arena.kind(p) == NodeKind::Colluder(clique)),
                        );
                        counts.gossip_scanned += buf.allies.len() as u64;
                        counts.gossip_shared += gossip::vouch_observations(
                            &mut arena.reputation,
                            teller,
                            listener,
                            &buf.allies,
                            &config,
                        ) as u64;
                    }
                    _ => {
                        counts.gossip_scanned += subjects;
                        counts.gossip_shared += gossip::share_observations(
                            &mut arena.reputation,
                            teller,
                            listener,
                            &config,
                        ) as u64;
                    }
                }
            }
            tr.end();
        }
    }
}
