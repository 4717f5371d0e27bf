//! `ahn-exp` — regenerate every table and figure of the paper, and drive
//! the sweep, calibration, atlas and serving tools built around them.
//!
//! Every command lists its flags once, in a table ([`Flags::TABLE`]);
//! one function ([`parse`]) parses any command against its table, and
//! `ahn-exp --help` prints every command and flag from the same tables.
//!
//! `serve`, `worker`, `sweep`, `calibrate` and the experiment commands
//! all accept `--trace FILE`: each node appends checksummed JSON span
//! events ([`ahn_obs::TraceLog`]) keyed by a trace id derived from the
//! cell's canonical hash, so `ahn-exp trace FILE..` reconstructs one
//! cell's submit → enqueue → lease → compute → complete → merge
//! lifecycle across server, worker and coordinator logs.

use ahn_core::{
    ablations, baselines, cases::CaseSpec, config::ExperimentConfig, experiment, extensions, report,
};
use std::fmt::Display;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::str::FromStr;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, rest) = match args.first().map(String::as_str) {
        None | Some("--help" | "-h") => return print!("{}", help()),
        Some("scenario") => match args.get(1).map(String::as_str) {
            Some(sub @ ("list" | "run")) => (format!("scenario {sub}"), &args[2..]),
            Some(other) => fail(
                2,
                format!("unknown scenario subcommand {other:?} (list|run)"),
            ),
            None => fail(2, "scenario needs a subcommand (list|run)"),
        },
        Some(name) => (name.to_owned(), &args[1..]),
    };
    // `trace` is two commands sharing a name: with trace-file arguments
    // it joins span logs; with experiment flags only, it keeps its
    // original meaning (dump a game decision trace).
    let tool = COMMANDS
        .iter()
        .find(|c| c.name == name && (name != "trace" || trace_join_requested(rest)));
    if let Some(command) = tool {
        (command.run)(rest);
    } else if let Some((_, _, run)) = PAPER.iter().find(|p| p.0 == name) {
        let mut opts: Options = parse_or_exit(rest);
        opts.log = open_trace(opts.trace.as_deref(), "ahn-exp");
        run(&opts);
    } else {
        fail(
            2,
            format!("unknown command {name:?} (see `ahn-exp --help`)"),
        );
    }
}

/// An experiment command: name, summary, runner. These commands take
/// the experiment flags ([`Options`]) and nothing else.
type Experiment = (&'static str, &'static str, fn(&Options));

const PAPER: &[Experiment] = &[
    ("fig4", "cooperation evolution, cases 1-4 (Figure 4)", fig4),
    ("table5", "per-environment cooperation (Table 5)", table5),
    ("table6", "forwarding-request responses (Table 6)", table6),
    ("table7", "most popular strategies (Table 7)", table7),
    ("table8", "sub-strategies, case 3", |o| table8_9(o, 3)),
    ("table9", "sub-strategies, case 4", |o| table8_9(o, 4)),
    ("all", "all of the above from one set of runs", all),
    ("ipdrp", "IPDRP baseline evolution (X3)", ipdrp),
    ("baseline-pathrater", "avoidance-only baseline", pathrater),
    ("ablate-payoff", "A1: payoff-table readings", |o| {
        ablate(o, "A1 payoff-table reading", ablations::ablate_payoff)
    }),
    ("ablate-activity", "A2: 13-bit vs 5-bit genes", |o| {
        ablate(o, "A2 activity dimension", ablations::ablate_activity)
    }),
    ("ablate-selection", "A3: tournament vs roulette", |o| {
        ablate(o, "A3 selection operator", ablations::ablate_selection)
    }),
    ("ablate-trust-table", "A5: trust thresholds", |o| {
        ablate(
            o,
            "A5 trust-table thresholds",
            ablations::ablate_trust_table,
        )
    }),
    ("ablate-unknown", "A6: unknown-node bit pinning", |o| {
        ablate(o, "A6 unknown-node bit", ablations::ablate_unknown)
    }),
    ("ablate-gossip", "A7: second-hand reputation", |o| {
        ablate(o, "A7 second-hand reputation", ablations::ablate_gossip)
    }),
    ("transfer", "strategy transfer across cases", transfer),
    ("newcomer", "newcomer-join experiment", newcomer),
    ("sleepers", "activity sleeper study (X6)", sleepers),
    ("sweep-rounds", "cooperation vs horizon R", sweep_rounds),
    ("sweep-csn", "cooperation vs selfish density", sweep_csn),
    ("sweep-mutation", "cooperation vs mutation", sweep_mutation),
    ("trace", "JSON decision trace of one game", trace),
    ("check", "verify the presets (Tables 1-4)", |_| check()),
];

/// Every other command: its help section and its runner.
const COMMANDS: &[Command] = &[
    command::<SweepFlags>(|a| sweep(parse_or_exit(a))),
    command::<CalibrateFlags>(|a| calibrate(parse_or_exit(a))),
    command::<FidelityFlags>(|a| fidelity(parse_or_exit(a))),
    command::<ScenarioList>(|a| scenario_list(parse_or_exit(a))),
    command::<ScenarioRun>(|a| scenario_run(parse_or_exit(a))),
    command::<AtlasFlags>(|a| atlas(parse_or_exit(a))),
    command::<TraceJoinFlags>(|a| trace_join(parse_or_exit(a))),
    command::<BenchFlags>(|a| bench(parse_or_exit(a))),
    command::<ahn_serve::ServerConfig>(|a| serve(parse_or_exit(a))),
    command::<WorkerFlags>(|a| worker(parse_or_exit(a))),
    command::<LoadtestFlags>(|a| loadtest(parse_or_exit(a))),
];

struct Command {
    name: &'static str,
    help: fn() -> String,
    run: fn(&[String]),
}

const fn command<C: Flags>(run: fn(&[String])) -> Command {
    let (name, help) = (C::NAME, section::<C>);
    Command { name, help, run }
}

/// The `--help` text, generated from the command and flag tables.
fn help() -> String {
    let mut out = String::from(
        "ahn-exp — regenerate the tables and figures of Seredynski et al. (IPDPS'07)\n\n\
         usage: ahn-exp <command> [flags]\n\nexperiment commands:\n",
    );
    for (name, about, _) in PAPER {
        out += &format!("  {name:<28} {about}\n");
    }
    out += "\nexperiment flags (the last --preset/--config is the base configuration;\n\
            the other flags override its fields, in any order):\n";
    out += &rows(Options::TABLE);
    for command in COMMANDS {
        out += &(command.help)();
    }
    out
}

/// One command's help section: synopsis, summary, flag rows.
fn section<C: Flags>() -> String {
    let usage = format!("ahn-exp {} [flags] {}", C::NAME, C::ARGS);
    let mut out = format!("\n{}\n  {}\n{}", usage.trim_end(), C::ABOUT, rows(C::TABLE));
    if C::defaults().experiment().is_some() {
        out += "  + the experiment flags\n";
    }
    out
}

fn rows<C>(table: &[Flag<C>]) -> String {
    let row = |f: &Flag<C>| {
        let (usage, help) = f.spec.split_once(": ").unwrap_or((f.spec, ""));
        format!("  {usage:<28} {help}\n")
    };
    table.iter().map(row).collect()
}

/// Prints `error: {message}` and exits with `code`: 2 for bad input
/// (flags, names, paths), 1 for a failed gate or run.
fn fail(code: i32, message: impl Display) -> ! {
    eprintln!("error: {message}");
    std::process::exit(code)
}

/// The `Ok` value, or [`fail`] with the error.
fn or_exit<T, E: Display>(result: Result<T, E>, code: i32) -> T {
    result.unwrap_or_else(|e| fail(code, e))
}

fn serialized<E: Display>(result: Result<String, E>) -> String {
    let result = result.map_err(|e| format!("cannot serialize report: {e}"));
    or_exit(result, 1)
}

/// Opens the span trace log at `path` for node `role:<pid>`, exiting 2
/// when it cannot be opened.
fn open_trace(path: Option<&str>, role: &str) -> Option<ahn_obs::TraceLog> {
    let node = format!("{role}:{}", std::process::id());
    path.map(|p| {
        let log = ahn_obs::TraceLog::open(Path::new(p), &node);
        or_exit(
            log.map_err(|e| format!("cannot open trace log {p}: {e}")),
            2,
        )
    })
}

/// One row of a command's flag table. `spec` reads as the row's help
/// line, `"--name METAVAR: help"`; a switch has no metavar.
struct Flag<C> {
    spec: &'static str,
    set: Set<C>,
}

enum Set<C> {
    Switch(fn(&mut C)),
    /// Takes the next argument, parsing and validating it.
    Value(fn(&mut C, Value<'_>) -> Result<(), String>),
}

const fn flag<C>(spec: &'static str, set: fn(&mut C, Value<'_>) -> Result<(), String>) -> Flag<C> {
    let set = Set::Value(set);
    Flag { spec, set }
}

const fn switch<C>(spec: &'static str, set: fn(&mut C)) -> Flag<C> {
    let set = Set::Switch(set);
    Flag { spec, set }
}

impl<C> Flag<C> {
    fn name(&self) -> &'static str {
        self.spec.split([' ', ':']).next().unwrap_or_default()
    }

    fn apply(&self, cmd: &mut C, args: &mut std::slice::Iter<'_, String>) -> Result<(), String> {
        match self.set {
            Set::Switch(set) => {
                set(cmd);
                Ok(())
            }
            Set::Value(set) => {
                let (flag, text) = (self.name(), args.next().map(String::as_str));
                set(cmd, Value { flag, text })
            }
        }
    }
}

/// A flag's value (`None` when the arguments ran out), with the flag's
/// name for error messages.
#[derive(Clone, Copy)]
struct Value<'a> {
    flag: &'static str,
    text: Option<&'a str>,
}

impl Value<'_> {
    /// The error for a missing or invalid value.
    fn needs(self, what: &str) -> String {
        format!("{} needs {what}", self.flag)
    }

    /// The value as given; `what` names it in the missing-value error.
    fn text(self, what: &str) -> Result<String, String> {
        self.text.map(str::to_owned).ok_or_else(|| self.needs(what))
    }

    fn parse<T: FromStr<Err: Display>>(self) -> Result<T, String> {
        let text = self.text("a value")?;
        text.parse().map_err(|e| format!("{}: {e}", self.flag))
    }

    /// The value parsed as `T` and accepted by `ok`; otherwise an error
    /// saying the flag needs `what`.
    fn parse_if<T: FromStr>(self, what: &str, ok: impl Fn(&T) -> bool) -> Result<T, String> {
        match self.text.map(str::parse) {
            Some(Ok(value)) if ok(&value) => Ok(value),
            _ => Err(self.needs(what)),
        }
    }

    fn positive<T: FromStr + PartialOrd + Default>(self) -> Result<T, String> {
        self.parse_if("a positive integer", |n| *n > T::default())
    }

    fn percent(self) -> Result<u8, String> {
        self.parse_if("a percentage in [0, 100]", |&n| n <= 100)
    }

    fn fraction(self) -> Result<f64, String> {
        self.parse_if("a fraction in [0, 1]", |f| (0.0..=1.0).contains(f))
    }

    /// A participant count: the smallest world has 3 nodes.
    fn size(self) -> Result<usize, String> {
        self.parse_if("an integer >= 3", |&n| n >= 3)
    }

    /// A comma-separated list, every item parsed as `T`.
    fn list<T: FromStr>(self) -> Result<Vec<T>, String> {
        let items = self
            .text
            .and_then(|t| t.split(',').map(|s| s.parse().ok()).collect());
        items.ok_or_else(|| self.needs("a comma-separated list"))
    }

    fn scenario_names(self) -> Result<Vec<String>, String> {
        let names: Vec<String> = self.list()?;
        if names.iter().any(String::is_empty) {
            return Err(self.needs("non-empty scenario names"));
        }
        Ok(names)
    }
}

/// A command's parsed state, its defaults and its flag table.
trait Flags: Sized + 'static {
    /// The command as typed (`"scenario run"`); also names it in errors.
    const NAME: &'static str;
    /// Positional arguments and a one-line summary, for the help text.
    const ARGS: &'static str = "";
    const ABOUT: &'static str;
    /// Every flag the command takes besides the experiment flags.
    const TABLE: &'static [Flag<Self>];

    /// The state before any flag is applied.
    fn defaults() -> Self;

    /// The experiment flags, for the commands that take them.
    fn experiment(&mut self) -> Option<&mut Options> {
        None
    }

    /// Takes one positional argument; commands without any reject it.
    fn positional(&mut self, arg: &str) -> Result<(), String> {
        Err(unknown_flag(Self::NAME, arg))
    }

    /// Checks that span several flags, run once every flag is in.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }
}

fn unknown_flag(command: &str, arg: &str) -> String {
    match command {
        "" => format!("unknown flag {arg:?}"),
        _ => format!("unknown {command} flag {arg:?}"),
    }
}

/// Parses one command's arguments against its flag table and, where
/// the command takes them, the experiment flags. Parsing has no side
/// effects: paths are returned, not opened (only `--config` is read).
fn parse<C: Flags>(args: &[String]) -> Result<C, String> {
    let mut cmd = C::defaults();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if let Some(flag) = C::TABLE.iter().find(|f| f.name() == arg) {
            flag.apply(&mut cmd, &mut args)?;
        } else if let Some((flag, exp)) = Options::TABLE
            .iter()
            .find(|f| f.name() == arg)
            .zip(cmd.experiment())
        {
            flag.apply(exp, &mut args)?;
        } else if arg.starts_with("--") {
            return Err(unknown_flag(C::NAME, arg));
        } else {
            cmd.positional(arg)?;
        }
    }
    if let Some(exp) = cmd.experiment() {
        exp.finish()?;
    }
    cmd.finish()?;
    Ok(cmd)
}

fn parse_or_exit<C: Flags>(args: &[String]) -> C {
    let parsed = parse(args).map_err(|e| format!("{e} (see `ahn-exp --help`)"));
    or_exit(parsed, 2)
}

/// `ahn-exp bench` flags.
#[derive(Debug, Clone, PartialEq)]
struct BenchFlags {
    json: bool,
    baseline_path: Option<String>,
    max_regression: f64,
    threads: Vec<usize>,
}

impl Flags for BenchFlags {
    const NAME: &'static str = "bench";
    const ABOUT: &'static str = "time the artifact pipelines (PERFORMANCE.md)";
    const TABLE: &'static [Flag<Self>] = &[
        switch("--json: print the report as JSON", |f| f.json = true),
        flag("--baseline FILE: report to gate against", |f, v| {
            v.text("a file").map(|p| f.baseline_path = Some(p))
        }),
        flag("--max-regression F: allowed slowdown factor", |f, v| {
            v.parse_if("a factor >= 1", |x: &f64| *x >= 1.0)
                .map(|x| f.max_regression = x)
        }),
        // The report schema has rows for exactly t = 1, 4, 8; other
        // counts would be measured into the void.
        flag("--threads LIST: thread counts (of 1,4,8)", |f, v| {
            let counts: Option<Vec<usize>> = v
                .text
                .and_then(|t| t.split(',').map(|s| s.trim().parse().ok()).collect());
            let counts = counts.filter(|ts| ts.iter().all(|t| [1, 4, 8].contains(t)));
            let counts = counts.ok_or_else(|| v.needs("a comma-separated subset of 1,4,8"));
            counts.map(|ts| f.threads = ts)
        }),
    ];

    fn defaults() -> Self {
        BenchFlags {
            json: false,
            baseline_path: None,
            max_regression: 2.0,
            threads: vec![1, 4, 8],
        }
    }
}

/// `ahn-exp bench`: time the artifact pipelines and game throughput
/// (PERFORMANCE.md documents the protocol and the `BENCH_N.json`
/// convention).
fn bench(flags: BenchFlags) {
    if let Some(reason) = ahn_bench::harness::portable_build_warning() {
        eprintln!("warning: {reason}");
    }
    ahn_core::threads::log_once("bench");
    eprintln!("measuring (min of {} runs per pipeline)...", {
        ahn_bench::harness::MEASURE_RUNS
    });
    let report = ahn_bench::harness::run_bench(&flags.threads);
    if flags.json {
        println!("{}", serialized(serde_json::to_string_pretty(&report)));
    } else {
        print!("{}", ahn_bench::harness::render(&report));
    }

    if let Some(path) = flags.baseline_path {
        let text = std::fs::read_to_string(&path);
        let text = or_exit(
            text.map_err(|e| format!("cannot read baseline {path}: {e}")),
            1,
        );
        let baseline: Result<ahn_bench::harness::BenchBaseline, _> = serde_json::from_str(&text);
        let baseline = baseline.map_err(|e| format!("malformed baseline {path}: {e}"));
        let baseline = or_exit(baseline, 1);
        let max_regression = flags.max_regression;
        let verdict = ahn_bench::harness::check_regression(&report, &baseline, max_regression);
        let verdict = verdict.map_err(|msg| format!("performance regression vs {path}: {msg}"));
        or_exit(verdict, 1);
        eprintln!(
            "within {max_regression}x of the committed baseline ({})",
            baseline.note
        );
    }
}

impl Flags for ahn_serve::ServerConfig {
    const NAME: &'static str = "serve";
    const ABOUT: &'static str = "run the HTTP job server until POST /v1/shutdown";
    const TABLE: &'static [Flag<Self>] = &[
        flag("--addr A: listen address", |c, v| {
            v.parse().map(|a| c.addr = a)
        }),
        // 0 is legal: a pull-only node that computes nothing itself and
        // serves cells to `ahn-exp worker` processes.
        flag("--workers N: job threads (0: pull-only)", |c, v| {
            v.parse().map(|n| c.workers = n)
        }),
        flag("--cache-cap N: cached results (0: off)", |c, v| {
            v.parse().map(|n| c.cache_cap = n)
        }),
        flag("--queue-cap N: queued-job limit", |c, v| {
            v.positive().map(|n| c.queue_cap = n)
        }),
        flag("--journal FILE: completion journal", |c, v| {
            v.parse().map(|p| c.journal = Some(p))
        }),
        flag("--trace FILE: append span events to this log", |c, v| {
            v.parse().map(|p| c.trace = Some(p))
        }),
        // Deadline knobs, all in milliseconds, 0 = disabled.
        flag("--read-timeout-ms N: read deadline (0: off)", |c, v| {
            v.parse().map(|n| c.read_timeout_ms = n)
        }),
        flag("--idle-timeout-ms N: keep-alive deadline", |c, v| {
            v.parse().map(|n| c.idle_timeout_ms = n)
        }),
        flag("--write-timeout-ms N: write deadline", |c, v| {
            v.parse().map(|n| c.write_timeout_ms = n)
        }),
        flag("--drain-ms N: shutdown drain budget", |c, v| {
            v.parse().map(|n| c.drain_ms = n)
        }),
    ];

    fn defaults() -> Self {
        Self::default()
    }
}

/// `ahn-exp serve`: run the HTTP job server until `POST /v1/shutdown`.
fn serve(config: ahn_serve::ServerConfig) {
    // Keep worker fan-out and per-job rayon fan-out from multiplying
    // into oversubscription: unless the operator already pinned
    // AHN_THREADS (the vendored rayon's cap, vendor/README.md), give
    // each worker an equal share of the cores.
    if std::env::var_os("AHN_THREADS").is_none() {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let share = (cores / config.workers.max(1)).max(1);
        std::env::set_var("AHN_THREADS", share.to_string());
    }
    let handle = ahn_serve::spawn(config.clone());
    let handle = handle.map_err(|e| format!("cannot bind {}: {e}", config.addr));
    let handle = or_exit(handle, 1);
    println!("ahn-serve listening on {}", handle.addr());
    eprintln!(
        "  {} workers, cache capacity {}, queue capacity {} (POST /v1/shutdown to stop)",
        config.workers, config.cache_cap, config.queue_cap
    );
    if let Some(path) = &config.journal {
        eprintln!("  completion journal: {path}");
    }
    if let Some(path) = &config.trace {
        eprintln!("  span trace log: {path}");
    }
    handle.join();
    eprintln!("ahn-serve: shut down cleanly");
}

/// `ahn-exp loadtest` flags: the client config plus reporting options.
#[derive(Debug, Clone, PartialEq, Default)]
struct LoadtestFlags {
    config: ahn_serve::LoadtestConfig,
    json: bool,
    min_hit_rate: Option<f64>,
    shutdown: bool,
}

impl Flags for LoadtestFlags {
    const NAME: &'static str = "loadtest";
    const ABOUT: &'static str = "drive a running server, report p50/p99 and req/s";
    const TABLE: &'static [Flag<Self>] = &[
        flag("--addr A: server address", |f, v| {
            v.parse().map(|a| f.config.addr = a)
        }),
        flag("--connections N: parallel connections", |f, v| {
            v.positive().map(|n| f.config.connections = n)
        }),
        flag("--requests N: total requests", |f, v| {
            v.positive().map(|n| f.config.requests = n)
        }),
        flag("--distinct N: distinct job specs", |f, v| {
            v.positive().map(|n| f.config.distinct = n)
        }),
        switch("--json: print the report as JSON", |f| f.json = true),
        flag("--min-hit-rate F: required cache hit rate", |f, v| {
            v.fraction().map(|x| f.min_hit_rate = Some(x))
        }),
        switch("--shutdown: shut the server down after", |f| {
            f.shutdown = true
        }),
    ];

    fn defaults() -> Self {
        Self::default()
    }
}

/// `ahn-exp loadtest`: drive a running server with a mixed
/// cache-hit/cache-miss workload and report latency + throughput.
fn loadtest(flags: LoadtestFlags) {
    eprintln!(
        "loadtest: {} requests over {} connections against {} ({} distinct specs)...",
        flags.config.requests, flags.config.connections, flags.config.addr, flags.config.distinct
    );
    let report = or_exit(ahn_serve::run_loadtest(&flags.config), 1);
    if flags.json {
        println!("{}", serialized(serde_json::to_string_pretty(&report)));
    } else {
        print!("{}", ahn_serve::loadtest::render(&report));
    }

    if flags.shutdown {
        match ahn_serve::loadtest::one_shot(&flags.config.addr, "POST", "/v1/shutdown", "") {
            Ok((200, _)) => eprintln!("sent shutdown to {}", flags.config.addr),
            Ok((status, body)) => fail(1, format!("shutdown returned {status}: {body}")),
            Err(e) => fail(1, format!("shutdown failed: {e}")),
        }
    }

    if report.errors > 0 {
        fail(1, format!("{} requests failed", report.errors));
    }
    if let Some(min) = flags.min_hit_rate {
        let rate = report
            .server_metrics
            .as_ref()
            .map(|m| m.cache_hit_rate)
            .unwrap_or(0.0);
        if rate < min {
            fail(
                1,
                format!("cache hit rate {rate:.3} is below the required {min:.3}"),
            );
        }
        eprintln!("cache hit rate {rate:.3} >= {min:.3}");
    }
}

/// `ahn-exp worker` flags: where to pull work from, when to stop, how
/// to back off and break, and which chaos faults to self-inject.
#[derive(Debug, Clone, PartialEq)]
struct WorkerFlags {
    addr: String,
    config: ahn_serve::WorkerConfig,
    /// Breaker trip threshold (consecutive failures); 0 disables.
    breaker_threshold: u32,
    /// Breaker cooldown before the half-open probe, milliseconds.
    breaker_cooldown_ms: u64,
    /// Seeded self-injected transport chaos (`--chaos-*`): the CLI face
    /// of the `FlakyTransport` harness, for drills and the CI chaos job.
    chaos: ahn_serve::FaultPlan,
    /// Span trace log path (`--trace`).
    trace: Option<String>,
}

impl Flags for WorkerFlags {
    const NAME: &'static str = "worker";
    const ABOUT: &'static str = "pull cells from a serve node and compute them";
    const TABLE: &'static [Flag<Self>] = &[
        flag("--addr A: serve node address", |f, v| {
            v.parse().map(|a| f.addr = a)
        }),
        flag("--lease-ms N: lease per claim", |f, v| {
            v.positive().map(|n| f.config.lease_ms = n)
        }),
        flag("--poll-ms N: idle poll interval", |f, v| {
            v.positive().map(|n| f.config.poll_ms = n)
        }),
        flag("--max-cells N: stop after N (0: never)", |f, v| {
            v.parse().map(|n| f.config.max_cells = n)
        }),
        switch("--exit-when-idle: exit once the queue stays empty", |f| {
            f.config.idle_exit_polls = 3
        }),
        flag("--retry-base-ms N: first backoff", |f, v| {
            v.positive().map(|n| f.config.backoff.base_ms = n)
        }),
        flag("--retry-cap-ms N: longest backoff", |f, v| {
            v.positive().map(|n| f.config.backoff.cap_ms = n)
        }),
        flag("--backoff-seed S: jitter seed", |f, v| {
            v.parse().map(|n| f.config.backoff.seed = n)
        }),
        flag("--max-errors N: quit after N straight errors", |f, v| {
            v.parse().map(|n| f.config.max_consecutive_errors = n)
        }),
        flag("--breaker-threshold N: trip after N (0: off)", |f, v| {
            v.parse().map(|n| f.breaker_threshold = n)
        }),
        flag("--breaker-cooldown-ms N: wait before a probe", |f, v| {
            v.parse().map(|n| f.breaker_cooldown_ms = n)
        }),
        flag("--chaos-seed S: fault seed", |f, v| {
            v.parse().map(|n| f.chaos.seed = n)
        }),
        flag("--chaos-drop-request PCT: drop requests", |f, v| {
            v.percent().map(|n| f.chaos.drop_request_percent = n)
        }),
        flag("--chaos-drop-response PCT: drop responses", |f, v| {
            v.percent().map(|n| f.chaos.drop_response_percent = n)
        }),
        flag("--chaos-latency-percent PCT: delay calls", |f, v| {
            v.percent().map(|n| f.chaos.latency_percent = n)
        }),
        flag("--chaos-latency-ms N: added delay", |f, v| {
            v.parse().map(|n| f.chaos.latency_ms = n)
        }),
        flag("--chaos-stall-percent PCT: stall calls", |f, v| {
            v.percent().map(|n| f.chaos.stall_percent = n)
        }),
        flag("--chaos-stall-ms N: stall length", |f, v| {
            v.parse().map(|n| f.chaos.stall_ms = n)
        }),
        flag("--chaos-partial-percent PCT: short writes", |f, v| {
            v.percent().map(|n| f.chaos.partial_write_percent = n)
        }),
        flag("--trace FILE: append span events to this log", |f, v| {
            v.parse().map(|p| f.trace = Some(p))
        }),
    ];

    fn defaults() -> Self {
        WorkerFlags {
            addr: "127.0.0.1:7878".into(),
            config: ahn_serve::WorkerConfig::default(),
            breaker_threshold: 8,
            breaker_cooldown_ms: 1_000,
            chaos: ahn_serve::FaultPlan::none(),
            trace: None,
        }
    }
}

/// `ahn-exp worker`: pull cells from a serve node over
/// `POST /v1/work/claim` / `complete` until told to stop (or, with
/// `--exit-when-idle`, until the queue stays empty).
fn worker(flags: WorkerFlags) {
    eprintln!("worker: pulling cells from {}...", flags.addr);
    if flags.chaos.is_active() {
        eprintln!("worker: chaos enabled: {:?}", flags.chaos);
    }
    let trace = open_trace(flags.trace.as_deref(), "worker");
    let mut transport = ahn_serve::CircuitBreaker::new(
        ahn_serve::FlakyTransport::new(ahn_serve::HttpTransport::new(&flags.addr), flags.chaos),
        flags.breaker_threshold,
        std::time::Duration::from_millis(flags.breaker_cooldown_ms),
    );
    let run = ahn_serve::run_worker_observed(&mut transport, &flags.config, trace.as_ref());
    let (report, telemetry) = or_exit(run, 1);
    eprintln!(
        "worker: {} completed, {} failed, {} duplicates, {} dropped, {} empty polls, {} breaker trips",
        report.completed,
        report.failed,
        report.duplicates,
        report.dropped,
        report.empty_polls,
        report.breaker_opens
    );
    // The machine-readable exit summary: one JSON line on stdout (the
    // human-readable progress stays on stderr).
    let summary = ahn_serve::WorkerSummary::new(&report, &telemetry);
    match serde_json::to_string(&summary) {
        Ok(line) => println!("{line}"),
        Err(e) => eprintln!("warning: cannot serialize worker summary: {e}"),
    }
}

/// `ahn-exp sweep` flags: the grid axes plus the experiment flags for
/// the base configuration.
#[derive(Debug)]
struct SweepFlags {
    scenarios: Option<Vec<String>>,
    cases: Vec<usize>,
    payoffs: Vec<String>,
    sizes: Vec<usize>,
    seed_blocks: u64,
    json: bool,
    /// Run the grid through a serve node at this address instead of
    /// computing locally (`ahn_serve::run_sweep_via`).
    via: Option<String>,
    /// Checkpoint completed cells to this journal; resume skips them.
    journal: Option<String>,
    /// The base configuration. Its `--trace` log records, for local
    /// runs, per-cell lifecycles and per-generation hot-loop samples;
    /// for `--via` runs, the coordinator's side of every cell.
    exp: Options,
}

impl Flags for SweepFlags {
    const NAME: &'static str = "sweep";
    const ABOUT: &'static str = "scenario-sweep grid: case x payoff x size x seed-block";
    const TABLE: &'static [Flag<Self>] = &[
        flag("--scenarios LIST: adversary-zoo scenarios", |f, v| {
            v.scenario_names().map(|s| f.scenarios = Some(s))
        }),
        flag("--cases LIST: paper cases (1-4)", |f, v| {
            v.list().map(|c| f.cases = c)
        }),
        flag("--payoffs LIST: payoff tables", |f, v| {
            v.list().map(|p| f.payoffs = p)
        }),
        flag("--sizes LIST: participant counts", |f, v| {
            v.list().map(|s| f.sizes = s)
        }),
        flag("--seed-blocks N: seed-block count", |f, v| {
            v.positive().map(|n| f.seed_blocks = n)
        }),
        switch("--json: print the report as JSON", |f| f.json = true),
        flag("--via ADDR: run the cells on a serve node", |f, v| {
            v.parse().map(|a| f.via = Some(a))
        }),
        flag("--journal FILE: checkpoint (needs --via)", |f, v| {
            v.parse().map(|p| f.journal = Some(p))
        }),
    ];

    fn defaults() -> Self {
        SweepFlags {
            scenarios: None,
            cases: vec![1],
            payoffs: vec!["paper".into()],
            sizes: vec![50],
            seed_blocks: 1,
            json: false,
            via: None,
            journal: None,
            exp: Options::defaults(),
        }
    }

    fn experiment(&mut self) -> Option<&mut Options> {
        Some(&mut self.exp)
    }

    fn finish(&mut self) -> Result<(), String> {
        journal_needs_via(&self.journal, &self.via)
    }
}

fn journal_needs_via(journal: &Option<String>, via: &Option<String>) -> Result<(), String> {
    match (journal, via) {
        (Some(_), None) => {
            Err("--journal requires --via (it checkpoints a distributed run)".into())
        }
        _ => Ok(()),
    }
}

/// `ahn-exp sweep`: run a (case x payoff x size x seed-block) grid with
/// one pure experiment per cell, cells in parallel
/// (`ahn_core::sweeps::run_sweep`), or — with `--via ADDR` — through a
/// serve node, merging the distributed cells to the bit-identical
/// report.
fn sweep(flags: SweepFlags) {
    let opts = &flags.exp;
    let grid = ahn_core::SweepGrid {
        base: opts.config.clone(),
        scenarios: flags.scenarios,
        cases: flags.cases,
        payoffs: flags.payoffs,
        sizes: flags.sizes,
        seed_blocks: (0..flags.seed_blocks).collect(),
    };
    eprintln!(
        "sweeping {} cells ({} scenarios x {} cases x {} payoffs x {} sizes x {} seed blocks, {} replications each)...",
        grid.cell_count(),
        grid.scenarios.as_ref().map(Vec::len).unwrap_or(1),
        grid.cases.len(),
        grid.payoffs.len(),
        grid.sizes.len(),
        grid.seed_blocks.len(),
        grid.base.replications
    );
    let report = if let Some(addr) = &flags.via {
        eprintln!("  distributing via {addr}...");
        let trace = open_trace(opts.trace.as_deref(), "coordinator");
        let mut transport = ahn_serve::HttpTransport::new(addr);
        let journal = flags.journal.as_deref().map(Path::new);
        let report =
            ahn_serve::run_sweep_via_traced(&mut transport, &grid, journal, 10, trace.as_ref());
        or_exit(report, 2)
    } else if let Some(log) = open_trace(opts.trace.as_deref(), "ahn-exp") {
        // The observed path: bit-identical report, but every cell
        // lifecycle and per-generation hot-loop sample lands in the
        // trace log (ahn_core::run_sweep_observed keeps the unobserved
        // path's NoopRecorder at zero cost).
        let observe = |obs: ahn_core::SweepObservation<'_>| match obs {
            ahn_core::SweepObservation::CellStart {
                spec, config_hash, ..
            } => {
                log.emit(
                    ahn_obs::TraceEvent::new(ahn_obs::trace_id_of_key(config_hash), "cell_start")
                        .key(config_hash)
                        .detail(format!(
                            "{}case {} payoff {} size {} seed_block {}",
                            spec.scenario
                                .as_deref()
                                .map(|s| format!("scenario {s} "))
                                .unwrap_or_default(),
                            spec.case_no,
                            spec.payoff,
                            spec.size,
                            spec.seed_block
                        )),
                );
            }
            ahn_core::SweepObservation::Replication {
                config_hash,
                samples,
                ..
            } => {
                let trace_id = ahn_obs::trace_id_of_key(config_hash);
                for sample in samples {
                    log.emit(ahn_obs::TraceEvent::new(trace_id, "generation").sample(sample));
                }
            }
            ahn_core::SweepObservation::CellDone {
                config_hash,
                dur_us,
                ..
            } => {
                log.emit(
                    ahn_obs::TraceEvent::new(ahn_obs::trace_id_of_key(config_hash), "cell_done")
                        .key(config_hash)
                        .dur_us(dur_us)
                        .outcome(true),
                );
            }
        };
        or_exit(ahn_core::run_sweep_observed(&grid, &observe), 2)
    } else {
        or_exit(ahn_core::run_sweep(&grid), 2)
    };
    let json = serialized(serde_json::to_string_pretty(&report));
    if flags.json {
        println!("{json}");
    } else {
        print!("{}", ahn_core::sweeps::render_sweep_report(&report));
    }
    opts.maybe_write("sweep.json", &json);
}

/// `ahn-exp calibrate` flags: the search axes plus the experiment
/// flags for the base configuration.
#[derive(Debug)]
struct CalibrateFlags {
    cases: Vec<usize>,
    scales: Vec<f64>,
    selections: Vec<String>,
    size: usize,
    seed_blocks: u64,
    max_candidates: usize,
    json: bool,
    /// Run the search through a serve node at this address instead of
    /// computing locally (`ahn_serve::run_calibration_via`).
    via: Option<String>,
    /// Checkpoint completed cells to this journal; resume skips them.
    journal: Option<String>,
    /// The base configuration: the `smoke` preset unless overridden, so
    /// a bare `ahn-exp calibrate` finishes in seconds. Its `--trace` log
    /// records the coordinator's side of every cell (requires `--via`).
    exp: Options,
}

impl Flags for CalibrateFlags {
    const NAME: &'static str = "calibrate";
    const ABOUT: &'static str =
        "reconstruction search over payoff tables, scored against the paper (base: smoke)";
    const TABLE: &'static [Flag<Self>] = &[
        flag("--cases LIST: paper cases (1-4)", |f, v| {
            v.list().map(|c| f.cases = c)
        }),
        flag("--scales LIST: payoff scales", |f, v| {
            v.list().map(|s| f.scales = s)
        }),
        flag("--selections LIST: selection variants", |f, v| {
            let text = v.text("a value")?;
            let items = text.split(',').filter(|s| !s.is_empty());
            f.selections = items.map(str::to_owned).collect();
            if f.selections.is_empty() {
                return Err(v.needs("a comma-separated list"));
            }
            Ok(())
        }),
        flag("--size N: participants per cell", |f, v| {
            v.size().map(|n| f.size = n)
        }),
        flag("--seed-blocks N: seed-block count", |f, v| {
            v.positive().map(|n| f.seed_blocks = n)
        }),
        flag("--max-candidates N: candidate cap (0: all)", |f, v| {
            v.parse().map(|n| f.max_candidates = n)
        }),
        switch("--json: print the report as JSON", |f| f.json = true),
        flag("--via ADDR: run the cells on a serve node", |f, v| {
            v.parse().map(|a| f.via = Some(a))
        }),
        flag("--journal FILE: checkpoint (needs --via)", |f, v| {
            v.parse().map(|p| f.journal = Some(p))
        }),
    ];

    fn defaults() -> Self {
        CalibrateFlags {
            cases: vec![1, 2, 3, 4],
            scales: vec![1.0],
            selections: vec!["paper".into()],
            size: 10,
            seed_blocks: 1,
            max_candidates: 0,
            json: false,
            via: None,
            journal: None,
            exp: Options::over(ExperimentConfig::smoke()),
        }
    }

    fn experiment(&mut self) -> Option<&mut Options> {
        Some(&mut self.exp)
    }

    fn finish(&mut self) -> Result<(), String> {
        journal_needs_via(&self.journal, &self.via)?;
        match (&self.exp.trace, &self.via) {
            (Some(_), None) => {
                Err("calibrate --trace requires --via (it records the coordinator's spans)".into())
            }
            _ => Ok(()),
        }
    }
}

/// `ahn-exp scenario list` flags.
#[derive(Debug, Default)]
struct ScenarioList {
    json: bool,
}

impl Flags for ScenarioList {
    const NAME: &'static str = "scenario list";
    const ABOUT: &'static str = "the adversary-zoo registry: name, hash, summary";
    const TABLE: &'static [Flag<Self>] = &[switch("--json: print it as JSON", |f| f.json = true)];

    fn defaults() -> Self {
        Self::default()
    }
}

/// `ahn-exp scenario list`: every built-in scenario (the rows of
/// `ahn-exp atlas`).
fn scenario_list(flags: ScenarioList) {
    let all = ahn_core::builtin_scenarios();
    if flags.json {
        println!("{}", serialized(serde_json::to_string_pretty(&all)));
        return;
    }
    println!("{} scenarios (rows of `ahn-exp atlas`):", all.len());
    for s in &all {
        println!(
            "  {:<18} {:016x}  {}",
            s.name,
            s.canonical_hash(),
            s.summary
        );
    }
}

/// `ahn-exp scenario run NAME` flags.
#[derive(Debug)]
struct ScenarioRun {
    name: Option<String>,
    defense: String,
    size: usize,
    /// The base configuration: the smoke preset unless overridden, so a
    /// bare `ahn-exp scenario run slanderers` finishes in seconds.
    exp: Options,
}

impl Flags for ScenarioRun {
    const NAME: &'static str = "scenario run";
    const ARGS: &'static str = "NAME";
    const ABOUT: &'static str = "one scenario vs one defense on a case-1 world (base: smoke)";
    const TABLE: &'static [Flag<Self>] = &[
        flag("--defense D: watchdog, core or confidant", |f, v| {
            v.parse().map(|d| f.defense = d)
        }),
        flag("--size N: participants", |f, v| {
            v.size().map(|n| f.size = n)
        }),
    ];

    fn defaults() -> Self {
        ScenarioRun {
            name: None,
            defense: "watchdog".into(),
            size: 10,
            exp: Options::over(ExperimentConfig::smoke()),
        }
    }

    fn experiment(&mut self) -> Option<&mut Options> {
        Some(&mut self.exp)
    }

    fn positional(&mut self, arg: &str) -> Result<(), String> {
        match self.name.replace(arg.to_owned()) {
            None => Ok(()),
            Some(_) => Err(format!("unexpected argument {arg:?}")),
        }
    }

    fn finish(&mut self) -> Result<(), String> {
        match self.name {
            Some(_) => Ok(()),
            None => Err("scenario run needs a scenario name (try `ahn-exp scenario list`)".into()),
        }
    }
}

/// `ahn-exp scenario run NAME`: resolve the scenario, apply it to a
/// scaled case-1 world, run the experiment, print the usual report.
fn scenario_run(flags: ScenarioRun) {
    let name = flags.name.unwrap_or_default();
    let (defense, size) = (flags.defense, flags.size);
    let run = || -> Result<(), String> {
        let scenario = ahn_core::resolve_scenario(&name)?;
        let mut config = flags.exp.config.clone();
        config.gossip = ahn_core::atlas::resolve_defense(&defense)?;
        let case = CaseSpec::mini(&name, &[0], size, ahn_core::PathMode::Shorter);
        let (config, case) = scenario.apply(&config, &case)?;
        eprintln!(
            "running scenario {name:?} (hash {:016x}) against {defense:?}, \
             {size} participants, {} replications...",
            scenario.canonical_hash(),
            config.replications
        );
        let result = experiment::run_experiment(&config, &case);
        println!(
            "scenario {name} vs {defense}: cooperation {} ± {}",
            ahn_stats::pct(result.final_coop.mean().unwrap_or(0.0), 1),
            ahn_stats::pct(result.final_coop.ci95_half_width().unwrap_or(0.0), 1),
        );
        for (i, env) in result.per_env_csn_free.iter().enumerate() {
            println!(
                "  env {i}: attacker-free paths {}",
                ahn_stats::pct(env.mean().unwrap_or(0.0), 1)
            );
        }
        Ok(())
    };
    or_exit(run(), 2);
}

/// `ahn-exp atlas` flags.
#[derive(Debug)]
struct AtlasFlags {
    grid: ahn_core::AtlasGrid,
    json_path: Option<String>,
    out_path: Option<String>,
}

impl Flags for AtlasFlags {
    const NAME: &'static str = "atlas";
    const ABOUT: &'static str = "scenario x defense grid: markdown to stdout or --out";
    const TABLE: &'static [Flag<Self>] = &[
        flag("--json FILE: write the JSON report", |f, v| {
            v.text("a file path").map(|p| f.json_path = Some(p))
        }),
        flag("--out FILE: write the markdown", |f, v| {
            v.text("a file path").map(|p| f.out_path = Some(p))
        }),
        flag("--scenarios LIST: rows (default all)", |f, v| {
            v.scenario_names().map(|s| f.grid.scenarios = s)
        }),
        flag("--size N: participants per cell", |f, v| {
            v.size().map(|n| f.grid.size = n)
        }),
    ];

    fn defaults() -> Self {
        let grid = ahn_core::AtlasGrid::smoke();
        let (json_path, out_path) = (None, None);
        AtlasFlags {
            grid,
            json_path,
            out_path,
        }
    }
}

/// `ahn-exp atlas`: run the scenario x defense grid and emit the
/// committed artifacts — markdown to stdout or `--out`, the
/// byte-stable JSON report to `--json`.
fn atlas(flags: AtlasFlags) {
    let grid = flags.grid;
    eprintln!(
        "atlas: {} scenarios x {} defenses at {} participants...",
        grid.scenarios.len(),
        ahn_core::atlas::DEFENSES.len(),
        grid.size
    );
    let report = or_exit(ahn_core::run_atlas(&grid), 2);
    let write = |path: &str, text: &str| {
        let written = std::fs::write(path, text);
        or_exit(written.map_err(|e| format!("cannot write {path}: {e}")), 2);
        eprintln!("  wrote {path}");
    };
    if let Some(path) = &flags.json_path {
        // serde_json's compact form is deterministic; a trailing
        // newline keeps the committed file POSIX-friendly.
        write(path, &(serialized(serde_json::to_string(&report)) + "\n"));
    }
    let md = ahn_core::render_atlas(&report);
    match &flags.out_path {
        Some(path) => write(path, &md),
        None => print!("{md}"),
    }
}

/// `ahn-exp calibrate`: search the reconstruction space of the garbled
/// Fig. 2 payoff table (x scale x selection variant), scoring every
/// candidate against the paper's per-case cooperation targets
/// (`ahn_core::calibrate`).
fn calibrate(flags: CalibrateFlags) {
    let opts = &flags.exp;
    let grid = ahn_core::CalibrationGrid {
        base: opts.config.clone(),
        cases: flags.cases,
        scales: flags.scales,
        selections: flags.selections,
        size: flags.size,
        seed_blocks: (0..flags.seed_blocks).collect(),
        max_candidates: flags.max_candidates,
    };
    eprintln!(
        "searching {} candidates ({} cases x {} seed blocks = {} cells, {} replications each)...",
        grid.candidate_count(),
        grid.cases.len(),
        grid.seed_blocks.len(),
        grid.cell_count(),
        grid.base.replications
    );
    let report = if let Some(addr) = &flags.via {
        eprintln!("  distributing via {addr}...");
        let trace = open_trace(opts.trace.as_deref(), "coordinator");
        let mut transport = ahn_serve::HttpTransport::new(addr);
        let journal = flags.journal.as_deref().map(Path::new);
        let report = ahn_serve::run_calibration_via_traced(
            &mut transport,
            &grid,
            journal,
            10,
            trace.as_ref(),
        );
        or_exit(report, 2)
    } else {
        or_exit(ahn_core::run_calibration(&grid), 2)
    };
    let json = serialized(serde_json::to_string_pretty(&report));
    if flags.json {
        println!("{json}");
    } else {
        print!(
            "{}",
            ahn_core::calibrate::render_calibration_report(&report)
        );
    }
    opts.maybe_write("calibrate.json", &json);
}

/// `ahn-exp fidelity` flags.
#[derive(Debug)]
struct FidelityFlags {
    cases: Vec<usize>,
    tolerance: f64,
    exp: Options,
}

impl Flags for FidelityFlags {
    const NAME: &'static str = "fidelity";
    const ABOUT: &'static str = "exit 1 unless every case is within --tol of the paper";
    const TABLE: &'static [Flag<Self>] = &[
        flag("--cases LIST: paper cases, 1..=4", |f, v| {
            v.list().map(|c| f.cases = c)
        }),
        flag("--tol F: allowed absolute error", |f, v| {
            v.fraction().map(|x| f.tolerance = x)
        }),
    ];

    fn defaults() -> Self {
        let exp = Options::defaults();
        FidelityFlags {
            cases: vec![1, 3],
            tolerance: 0.15,
            exp,
        }
    }

    fn experiment(&mut self) -> Option<&mut Options> {
        Some(&mut self.exp)
    }

    fn finish(&mut self) -> Result<(), String> {
        match self.cases.iter().find(|c| !(1..=4).contains(*c)) {
            Some(c) => Err(format!("the paper defines cases 1..=4, not {c}")),
            None => Ok(()),
        }
    }
}

/// `ahn-exp fidelity`: run the given paper cases and exit non-zero when
/// any final cooperation level lands outside `--tol` of the paper's
/// target — the CI guard that hot-path work cannot silently break the
/// model where it is known to reproduce.
fn fidelity(mut flags: FidelityFlags) {
    flags.exp.log = open_trace(flags.exp.trace.as_deref(), "ahn-exp");
    let opts = &flags.exp;
    println!(
        "reproduction fidelity: {} replications x {} generations, R={}, tolerance {:.0}%",
        opts.config.replications,
        opts.config.generations,
        opts.config.rounds,
        flags.tolerance * 100.0
    );
    let mut failed = false;
    for &case_no in &flags.cases {
        let result = run_case(opts, case_no);
        // Single-environment cases check the aggregate §6.2 number;
        // multi-environment cases check each environment against its
        // Table 5 column (the aggregate would blur four very different
        // equilibria — see ahn_core::calibrate::per_env_targets).
        match ahn_core::calibrate::per_env_targets(case_no) {
            Some(env_targets) if result.per_env_coop.len() == env_targets.len() => {
                for (e, (summary, &target)) in
                    result.per_env_coop.iter().zip(env_targets).enumerate()
                {
                    let coop = summary.mean().unwrap_or(0.0);
                    let error = (coop - target).abs();
                    let ok = error <= flags.tolerance;
                    println!(
                        "  case {case_no} TE{}: cooperation {:>6} vs paper {:>6}  (|error| {:>5})  {}",
                        e + 1,
                        ahn_stats::pct(coop, 1),
                        ahn_stats::pct(target, 1),
                        ahn_stats::pct(error, 1),
                        if ok { "ok" } else { "OUTSIDE TOLERANCE" }
                    );
                    failed |= !ok;
                }
            }
            _ => {
                let coop = result.final_coop.mean().unwrap_or(0.0);
                let target = ahn_core::calibrate::paper_target(case_no);
                let error = (coop - target).abs();
                let ok = error <= flags.tolerance;
                println!(
                    "  case {case_no}: cooperation {:>6} vs paper {:>6}  (|error| {:>5})  {}",
                    ahn_stats::pct(coop, 1),
                    ahn_stats::pct(target, 1),
                    ahn_stats::pct(error, 1),
                    if ok { "ok" } else { "OUTSIDE TOLERANCE" }
                );
                failed |= !ok;
            }
        }
    }
    if failed {
        let tolerance = flags.tolerance * 100.0;
        fail(
            1,
            format!("reproduction fidelity violated (tolerance {tolerance:.0}%)"),
        );
    }
}

/// The experiment flags: a base configuration (the last `--preset` or
/// `--config` given, else the command's default) with the field flags
/// applied on top of it, in whatever order they came. The derived
/// `Default` (paper base) only fills [`Options::over`]; commands start
/// from their own base.
#[derive(Debug, Default)]
struct Options {
    /// The base while parsing; the resolved configuration afterwards.
    config: ExperimentConfig,
    reps: Option<usize>,
    gens: Option<usize>,
    rounds: Option<usize>,
    seed: Option<u64>,
    out_dir: Option<PathBuf>,
    /// Span trace log path (`--trace FILE`): experiment commands record
    /// each case's lifecycle and per-generation hot-loop samples into
    /// it, through `log`.
    trace: Option<String>,
    /// The `--trace` log, opened once parsing is done.
    log: Option<ahn_obs::TraceLog>,
}

impl Flags for Options {
    const NAME: &'static str = "";
    const ABOUT: &'static str = "the experiment flags";
    const TABLE: &'static [Flag<Self>] = &[
        flag("--preset NAME: base: smoke, scaled or paper", |o, v| {
            o.config = match v.text("a value")?.as_str() {
                "smoke" => ExperimentConfig::smoke(),
                "scaled" => ExperimentConfig::scaled(),
                "paper" => ExperimentConfig::paper(),
                other => return Err(format!("unknown preset {other:?}")),
            };
            Ok(())
        }),
        flag("--config FILE: base: ExperimentConfig JSON", |o, v| {
            let path = v.text("a value")?;
            let text = std::fs::read_to_string(&path);
            let text = text.map_err(|e| format!("cannot read {path}: {e}"))?;
            let config = serde_json::from_str(&text);
            o.config = config.map_err(|e| format!("cannot parse {path}: {e}"))?;
            Ok(())
        }),
        flag("--reps N: replications", |o, v| {
            v.parse().map(|n| o.reps = Some(n))
        }),
        flag("--gens N: generations", |o, v| {
            v.parse().map(|n| o.gens = Some(n))
        }),
        flag("--rounds N: tournament rounds R", |o, v| {
            v.parse().map(|n| o.rounds = Some(n))
        }),
        flag("--seed S: base seed", |o, v| {
            v.parse().map(|n| o.seed = Some(n))
        }),
        flag("--out DIR: also write the artifact files here", |o, v| {
            v.parse().map(|d| o.out_dir = Some(d))
        }),
        flag("--trace FILE: append span events to this log", |o, v| {
            v.parse().map(|p| o.trace = Some(p))
        }),
    ];

    fn defaults() -> Self {
        Options::over(ExperimentConfig::scaled())
    }

    /// Applies the field flags to the base and validates the result.
    fn finish(&mut self) -> Result<(), String> {
        let config = &mut self.config;
        config.replications = self.reps.unwrap_or(config.replications);
        config.generations = self.gens.unwrap_or(config.generations);
        config.rounds = self.rounds.unwrap_or(config.rounds);
        config.base_seed = self.seed.unwrap_or(config.base_seed);
        config.validate()
    }
}

impl Options {
    /// No flags yet, over the base `config`.
    fn over(config: ExperimentConfig) -> Options {
        Options {
            config,
            ..Options::default()
        }
    }

    fn maybe_write(&self, name: &str, contents: &str) {
        if let Some(dir) = &self.out_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("warning: cannot create {}: {e}", dir.display());
                return;
            }
            let path = dir.join(name);
            match std::fs::File::create(&path).and_then(|mut f| f.write_all(contents.as_bytes())) {
                Ok(()) => println!("wrote {}", path.display()),
                Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
            }
        }
    }
}

fn run_case(opts: &Options, case_no: usize) -> experiment::ExperimentResult {
    let case = CaseSpec::paper(case_no);
    eprintln!(
        "running {} ({} replications x {} generations, R={})...",
        case.name, opts.config.replications, opts.config.generations, opts.config.rounds
    );
    let Some(log) = &opts.log else {
        return experiment::run_experiment(&opts.config, &case);
    };
    // The observed path (--trace): same result bit for bit, plus a
    // cell_start / per-generation / cell_done span tree keyed by the
    // case's canonical hash — the same identity a serve node would
    // cache it under.
    let key = ahn_core::canonical_hash(&(&opts.config, &case)).unwrap_or(0);
    let trace_id = ahn_obs::trace_id_of_key(key);
    log.emit(
        ahn_obs::TraceEvent::new(trace_id, "cell_start")
            .key(key)
            .detail(case.name.clone()),
    );
    let started = std::time::Instant::now();
    let result = experiment::run_experiment_observed(&opts.config, &case, &|_, _, samples| {
        for sample in samples {
            log.emit(ahn_obs::TraceEvent::new(trace_id, "generation").sample(sample));
        }
    });
    log.emit(
        ahn_obs::TraceEvent::new(trace_id, "cell_done")
            .key(key)
            .dur_us(started.elapsed().as_micros() as u64)
            .outcome(true),
    );
    result
}

fn check() {
    let results = ahn_core::checks::run_all();
    match ahn_core::checks::render(&results) {
        Ok(text) => print!("{text}"),
        Err(text) => {
            print!("{text}");
            std::process::exit(1);
        }
    }
}

fn fig4(opts: &Options) {
    let results: Vec<_> = (1..=4).map(|i| run_case(opts, i)).collect();
    let refs: Vec<&_> = results.iter().collect();
    let means: Vec<Vec<f64>> = results.iter().map(|r| r.coop_series.means()).collect();
    let markers = ['1', '2', '3', '4'];
    let series: Vec<ahn_stats::PlotSeries> = results
        .iter()
        .zip(&means)
        .zip(markers)
        .map(|((r, values), marker)| ahn_stats::PlotSeries {
            label: &r.case_name,
            values,
            marker,
        })
        .collect();
    println!("{}", ahn_stats::ascii_chart(&series, 72, 16));
    print!("{}", report::fig4_summary(&refs));
    let csv = report::fig4_csv(&refs);
    opts.maybe_write("fig4.csv", &csv);
    if opts.out_dir.is_none() {
        println!("\n(use --out DIR to save the full per-generation CSV)");
    }
}

fn table5(opts: &Options) {
    let c3 = run_case(opts, 3);
    let c4 = run_case(opts, 4);
    let t = report::table5(&c3, &c4);
    print!("{t}");
    opts.maybe_write("table5.txt", &t);
}

fn table6(opts: &Options) {
    let c3 = run_case(opts, 3);
    let c4 = run_case(opts, 4);
    let t = report::table6(&c3, &c4);
    print!("{t}");
    opts.maybe_write("table6.txt", &t);
}

fn table7(opts: &Options) {
    let c3 = run_case(opts, 3);
    let c4 = run_case(opts, 4);
    let t = report::table7(&[&c3, &c4]);
    print!("{t}");
    opts.maybe_write("table7.txt", &t);
}

fn table8_9(opts: &Options, case_no: usize) {
    let r = run_case(opts, case_no);
    let t = report::table8_9(&r, 0.03);
    print!("{t}");
    opts.maybe_write(
        &format!("table{}.txt", if case_no == 3 { 8 } else { 9 }),
        &t,
    );
}

fn all(opts: &Options) {
    let results: Vec<_> = (1..=4).map(|i| run_case(opts, i)).collect();
    let refs: Vec<&_> = results.iter().collect();
    let mut out = String::new();
    out.push_str(&report::fig4_summary(&refs));
    out.push('\n');
    out.push_str(&report::table5(&results[2], &results[3]));
    out.push('\n');
    out.push_str(&report::table6(&results[2], &results[3]));
    out.push('\n');
    out.push_str(&report::table7(&[&results[2], &results[3]]));
    out.push('\n');
    out.push_str(&report::table8_9(&results[2], 0.03));
    out.push('\n');
    out.push_str(&report::table8_9(&results[3], 0.03));
    print!("{out}");
    opts.maybe_write("all.txt", &out);
    opts.maybe_write("fig4.csv", &report::fig4_csv(&refs));
    if opts.out_dir.is_some() {
        match serde_json::to_string_pretty(&results) {
            Ok(json) => opts.maybe_write("results.json", &json),
            Err(e) => eprintln!("warning: cannot serialize results: {e}"),
        }
    }
}

fn ipdrp(opts: &Options) {
    use rand::SeedableRng;
    let config = ahn_ipdrp::IpdrpConfig {
        population: opts.config.population.max(2) / 2 * 2,
        rounds: opts.config.rounds,
        generations: opts.config.generations,
        ..ahn_ipdrp::IpdrpConfig::default()
    };
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(opts.config.base_seed);
    let history = ahn_ipdrp::run_ipdrp(&mut rng, &config);
    println!(
        "IPDRP baseline (population {}, {} rounds, {} generations)",
        config.population, config.rounds, config.generations
    );
    let first = history.first().expect("at least one generation");
    let last = history.last().expect("at least one generation");
    println!(
        "  cooperation: gen 0 = {:.1}%, final = {:.1}%  (random pairing suppresses reciprocity)",
        first.cooperation * 100.0,
        last.cooperation * 100.0
    );
    println!(
        "  mean fitness: gen 0 = {:.2}, final = {:.2}  (P = 1.0 is the all-defect floor)",
        first.stats.mean, last.stats.mean
    );
    let mut csv = String::from("generation,cooperation,mean_fitness\n");
    for g in &history {
        csv.push_str(&format!(
            "{},{:.4},{:.4}\n",
            g.generation, g.cooperation, g.stats.mean
        ));
    }
    opts.maybe_write("ipdrp.csv", &csv);
}

fn pathrater(opts: &Options) {
    // Marti et al.'s setting: 50 nodes with 20 selfish (40%).
    let report = baselines::pathrater_comparison(&opts.config, 50, 20, opts.config.base_seed);
    println!("Watchdog/pathrater-style baseline (X1): 50 nodes, 20 selfish, AllC normals");
    println!(
        "  throughput with rating-based avoidance:    {:.1}%",
        report.with_rating * 100.0
    );
    println!(
        "  throughput with random route selection:    {:.1}%",
        report.without_rating * 100.0
    );
    println!(
        "  improvement from avoidance alone:          {:+.1}%  (paper's ref [9]: +17%)",
        report.improvement() * 100.0
    );
}

fn ablate(
    opts: &Options,
    title: &str,
    run: fn(&ExperimentConfig, &CaseSpec) -> Vec<ablations::Variant>,
) {
    // Ablations run on case 3 (the paper's richest setting).
    let case = CaseSpec::paper(3);
    eprintln!("running ablation {title} on {} ...", case.name);
    let variants = run(&opts.config, &case);
    let rendered = ablations::render_variants(title, &variants);
    print!("{rendered}");
    opts.maybe_write("ablation.txt", &rendered);
}

fn transfer(opts: &Options) {
    // One replication per (train, eval) pair keeps this affordable; use
    // --reps/--gens to deepen.
    let cases = ahn_core::cases::CaseSpec::paper_all();
    eprintln!("running {}x{} transfer matrix...", cases.len(), cases.len());
    let cells = extensions::transfer_matrix(&opts.config, &cases, opts.config.base_seed);
    let rendered = extensions::render_transfer(&cells);
    print!("{rendered}");
    println!(
        "\nDiagonal cells are populations deployed in the conditions they\n\
         were evolved for; off-diagonal cells quantify the paper's closing\n\
         warning that strategies are condition-specific."
    );
    opts.maybe_write("transfer.txt", &rendered);
}

fn newcomer(opts: &Options) {
    let case = CaseSpec::paper(1);
    eprintln!("evolving a case-1 population, then admitting a newcomer...");
    let report = extensions::newcomer_join(&opts.config, &case, 120, opts.config.base_seed);
    println!("Newcomer-join experiment (case 1 veterans + 1 unknown cooperator)");
    println!(
        "  unknown-node bit forwards in {:.0}% of the evolved population",
        report.unknown_forward_share * 100.0
    );
    println!(
        "  newcomer delivery, first quarter of its games:  {:.1}%",
        report.early_delivery * 100.0
    );
    println!(
        "  newcomer delivery, last quarter of its games:   {:.1}%",
        report.late_delivery * 100.0
    );
    println!("  (the paper's claim: \"new nodes can easily join the network\")");
}

fn sleepers(opts: &Options) {
    let case = CaseSpec::paper(1);
    eprintln!("sleeper study: evolving with 20 low-duty nodes, both codecs...");
    let study =
        ahn_core::extensions::sleeper_study(&opts.config, &case, 20, 0.3, opts.config.base_seed);
    let (full_gap, trust_gap) = study.activity_penalty();
    println!("Sleeper study (X6): 20 of 100 nodes at 30% duty cycle, case-1 world");
    println!(
        "  energy: a sleeper consumes {:.0}% of an active node's budget",
        study.sleeper_energy_ratio * 100.0
    );
    println!("  13-bit (trust x activity) chromosome:");
    println!(
        "    active-node delivery {:.1}%, sleeper delivery {:.1}%  (penalty {:.0}%)",
        study.full_active_delivery * 100.0,
        study.full_sleeper_delivery * 100.0,
        full_gap * 100.0
    );
    println!("  5-bit (trust-only) chromosome:");
    println!(
        "    active-node delivery {:.1}%, sleeper delivery {:.1}%  (penalty {:.0}%)",
        study.trust_only_active_delivery * 100.0,
        study.trust_only_sleeper_delivery * 100.0,
        trust_gap * 100.0
    );
    println!(
        "\nThe paper's motivation for the activity dimension (S1): sleepers\n\
         keep a perfect forwarding *rate*, so trust alone cannot see them;\n\
         only the activity-aware chromosome can price the free ride."
    );
}

fn sweep_rounds(opts: &Options) {
    use ahn_core::sweeps;
    let case = CaseSpec::paper(1);
    let rounds = [30usize, 100, 200, 300, 500];
    eprintln!("sweeping tournament rounds over {rounds:?} on case 1...");
    let points = sweeps::sweep_rounds(&opts.config, &case, &rounds);
    let t = sweeps::render_sweep(
        "Cooperation vs reputation horizon R (case 1)",
        "rounds",
        &points,
    );
    print!("{t}");
    println!("(the paper's R = 300 sits above the defection-basin crossover)");
    opts.maybe_write("sweep_rounds.txt", &t);
}

fn sweep_csn(opts: &Options) {
    use ahn_core::sweeps;
    let densities = [0.0, 0.2, 0.4, 0.6, 0.8];
    eprintln!("sweeping CSN density over {densities:?} (50-node tournaments, SP)...");
    let points = sweeps::sweep_csn(
        &opts.config,
        50,
        ahn_core::cases::CaseSpec::paper(1).mode,
        &densities,
    );
    let t = sweeps::render_sweep(
        "Cooperation vs CSN density (50-node tournaments, shorter paths)",
        "density",
        &points,
    );
    print!("{t}");
    println!("(TE1..TE4 are the 0%, 20%, 50% and 60% points of this curve)");
    opts.maybe_write("sweep_csn.txt", &t);
}

fn sweep_mutation(opts: &Options) {
    use ahn_core::sweeps;
    let case = CaseSpec::paper(3);
    let rates = [0.0, 0.001, 0.01, 0.05];
    eprintln!("sweeping mutation rate over {rates:?} on case 3...");
    let points = sweeps::sweep_mutation(&opts.config, &case, &rates);
    let t = sweeps::render_sweep(
        "Cooperation vs per-bit mutation probability (case 3)",
        "mutation",
        &points,
    );
    print!("{t}");
    println!("(the paper uses 0.001)");
    opts.maybe_write("sweep_mutation.txt", &t);
}

fn trace(opts: &Options) {
    use rand::SeedableRng;
    // Evolve briefly, then trace the first games of a converged
    // tournament so the dump shows meaningful trust-driven decisions.
    let mut cfg = opts.config.clone();
    cfg.replications = 1;
    let case = CaseSpec::paper(3);
    cfg.population = cfg.population.max(case.required_normal());
    eprintln!("evolving one replication of {} for the trace...", case.name);
    let rep = ahn_core::experiment::run_replication(&cfg, &case, cfg.base_seed);

    let game_config = ahn_core::game_config_of(&cfg, &case);
    let size = case.envs[1].normal().min(rep.final_population.len());
    let csn = case.envs[1].csn;
    let mut arena =
        ahn_core::AhnArena::new(rep.final_population[..size].to_vec(), csn, game_config, 1);
    let participants: Vec<ahn_core::AhnNodeId> =
        (0..(size + csn) as u32).map(ahn_core::AhnNodeId).collect();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(cfg.base_seed ^ 0xdecaf);
    let mut scratch = ahn_core::AhnScratch::default();

    // Warm-up rounds so trust levels exist, then trace 25 games.
    for _ in 0..40 {
        for &src in &participants {
            ahn_core::ahn_play_game(&mut arena, &mut rng, src, &participants, 0, &mut scratch);
        }
    }
    println!("[");
    let mut first = true;
    for &src in participants.iter().take(25) {
        let report =
            ahn_core::ahn_play_game(&mut arena, &mut rng, src, &participants, 0, &mut scratch);
        let decisions: Vec<String> = scratch
            .last_decisions()
            .iter()
            .map(|(d, t)| format!("{d}@{t}"))
            .collect();
        let path: Vec<u32> = scratch.last_path().iter().map(|n| n.0).collect();
        if !first {
            println!(",");
        }
        first = false;
        print!(
            "  {{\"source\": {}, \"destination\": {}, \"path\": {:?}, \"decisions\": {:?}, \"delivered\": {}}}",
            src.0,
            report.destination.0,
            path,
            decisions,
            report.outcome.delivered()
        );
    }
    println!("\n]");
}

/// True when `ahn-exp trace` was given span-log files to join rather
/// than experiment flags for the decision-trace dump: the first
/// argument is a file path (no `--` prefix) or the join-only
/// `--require-complete` flag.
fn trace_join_requested(args: &[String]) -> bool {
    matches!(args.first(), Some(a) if !a.starts_with("--") || a == "--require-complete")
}

/// `ahn-exp trace FILE..` flags.
#[derive(Debug, Clone, PartialEq, Default)]
struct TraceJoinFlags {
    /// Fail unless at least this many cells reconstruct end to end.
    require_complete: usize,
    /// The span-log files to join.
    files: Vec<String>,
}

impl Flags for TraceJoinFlags {
    const NAME: &'static str = "trace";
    const ARGS: &'static str = "FILE..";
    const ABOUT: &'static str = "join span logs into per-cell lifecycle trees";
    const TABLE: &'static [Flag<Self>] = &[flag(
        "--require-complete N: fail below N complete cells",
        |f, v| {
            let any = |_: &usize| true;
            v.parse_if("a cell count", any)
                .map(|n| f.require_complete = n)
        },
    )];

    fn defaults() -> Self {
        Self::default()
    }

    fn positional(&mut self, arg: &str) -> Result<(), String> {
        self.files.push(arg.to_owned());
        Ok(())
    }

    fn finish(&mut self) -> Result<(), String> {
        if self.files.is_empty() {
            return Err("trace needs at least one span-log file to join".into());
        }
        Ok(())
    }
}

/// `ahn-exp trace FILE..`: join span logs from any number of nodes into
/// per-cell lifecycle trees ([`ahn_obs::join_traces`]). Exits non-zero
/// when any spans are orphaned (a log file is missing from the join, or
/// trace-id propagation broke) or fewer than `--require-complete N`
/// cells reconstructed end to end — the CI chaos job's assertion.
fn trace_join(flags: TraceJoinFlags) {
    let mut events = Vec::new();
    let mut discarded = 0usize;
    for path in &flags.files {
        let read = ahn_obs::read_trace(Path::new(path));
        let read = or_exit(read.map_err(|e| format!("cannot read {path}: {e}")), 2);
        events.extend(read.events);
        discarded += read.discarded;
    }
    let tree = ahn_obs::join_traces(events, discarded);
    print!("{}", ahn_obs::render_tree(&tree));
    if tree.orphan_spans > 0 {
        fail(
            1,
            format!(
                "{} orphaned spans (a log file is missing from the join, or propagation broke)",
                tree.orphan_spans
            ),
        );
    }
    if tree.complete_cells() < flags.require_complete {
        fail(
            1,
            format!(
                "only {} of the required {} cells reconstructed end to end",
                tree.complete_cells(),
                flags.require_complete
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn bench_flags_parse() {
        let f = parse::<BenchFlags>(&args(&["--json", "--baseline", "B.json"])).unwrap();
        assert!(f.json);
        assert_eq!(f.baseline_path.as_deref(), Some("B.json"));
        assert_eq!(f.max_regression, 2.0);
        assert_eq!(f.threads, vec![1, 4, 8], "default thread sweep");
        let f = parse::<BenchFlags>(&args(&["--max-regression", "1.5"])).unwrap();
        assert_eq!(f.max_regression, 1.5);
        let f = parse::<BenchFlags>(&args(&["--threads", "1,4"])).unwrap();
        assert_eq!(f.threads, vec![1, 4]);
        let f = parse::<BenchFlags>(&args(&["--threads", " 8 "])).unwrap();
        assert_eq!(f.threads, vec![8]);
    }

    #[test]
    fn bench_flag_errors() {
        let err = parse::<BenchFlags>(&args(&["--frobnicate"])).unwrap_err();
        assert!(err.contains("unknown bench flag"), "{err}");
        let err = parse::<BenchFlags>(&args(&["--baseline"])).unwrap_err();
        assert!(err.contains("--baseline needs a file"), "{err}");
        for bad in [
            &["--max-regression"][..],
            &["--max-regression", "0.5"],
            &["--max-regression", "x"],
        ] {
            let err = parse::<BenchFlags>(&args(bad)).unwrap_err();
            assert!(err.contains("factor >= 1"), "{bad:?}: {err}");
        }
        for bad in [
            &["--threads"][..],
            &["--threads", ""],
            &["--threads", "2"],
            &["--threads", "1,x"],
            &["--threads", "1,,4"],
        ] {
            let err = parse::<BenchFlags>(&args(bad)).unwrap_err();
            assert!(err.contains("subset of 1,4,8"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn serve_flags_parse() {
        let c = parse::<ahn_serve::ServerConfig>(&args(&[])).unwrap();
        assert_eq!(c.addr, "127.0.0.1:7172");
        let c = parse::<ahn_serve::ServerConfig>(&args(&[
            "--addr",
            "0.0.0.0:9000",
            "--workers",
            "8",
            "--cache-cap",
            "512",
            "--queue-cap",
            "32",
        ]))
        .unwrap();
        assert_eq!(
            (c.addr.as_str(), c.workers, c.cache_cap, c.queue_cap),
            ("0.0.0.0:9000", 8, 512, 32)
        );
        // cache-cap 0 is legal: it disables caching.
        assert_eq!(
            parse::<ahn_serve::ServerConfig>(&args(&["--cache-cap", "0"]))
                .unwrap()
                .cache_cap,
            0
        );
        // workers 0 is legal: a pull-only node for external workers.
        assert_eq!(
            parse::<ahn_serve::ServerConfig>(&args(&["--workers", "0"]))
                .unwrap()
                .workers,
            0
        );
        let c = parse::<ahn_serve::ServerConfig>(&args(&["--journal", "/tmp/j.log"])).unwrap();
        assert_eq!(c.journal.as_deref(), Some("/tmp/j.log"));
        let c = parse::<ahn_serve::ServerConfig>(&args(&[
            "--read-timeout-ms",
            "100",
            "--idle-timeout-ms",
            "200",
            "--write-timeout-ms",
            "300",
            "--drain-ms",
            "400",
        ]))
        .unwrap();
        assert_eq!(
            (
                c.read_timeout_ms,
                c.idle_timeout_ms,
                c.write_timeout_ms,
                c.drain_ms
            ),
            (100, 200, 300, 400)
        );
        // 0 is legal everywhere: it disables that deadline.
        assert_eq!(
            parse::<ahn_serve::ServerConfig>(&args(&["--read-timeout-ms", "0"]))
                .unwrap()
                .read_timeout_ms,
            0
        );
    }

    #[test]
    fn serve_flag_errors() {
        let err = parse::<ahn_serve::ServerConfig>(&args(&["--port", "80"])).unwrap_err();
        assert!(err.contains("unknown serve flag"), "{err}");
        let err = parse::<ahn_serve::ServerConfig>(&args(&["--addr"])).unwrap_err();
        assert!(err.contains("--addr needs a value"), "{err}");
        for bad in [&["--workers", "-1"][..], &["--workers", "many"]] {
            assert!(
                parse::<ahn_serve::ServerConfig>(&args(bad)).is_err(),
                "{bad:?}"
            );
        }
        assert!(parse::<ahn_serve::ServerConfig>(&args(&["--queue-cap", "0"])).is_err());
        assert!(parse::<ahn_serve::ServerConfig>(&args(&["--cache-cap", "x"])).is_err());
        assert!(parse::<ahn_serve::ServerConfig>(&args(&["--journal"])).is_err());
    }

    #[test]
    fn worker_flags_parse() {
        let f = parse::<WorkerFlags>(&args(&[])).unwrap();
        assert_eq!(f.addr, "127.0.0.1:7878");
        assert_eq!(f.config.idle_exit_polls, 0);
        let f = parse::<WorkerFlags>(&args(&[
            "--addr",
            "127.0.0.1:9",
            "--lease-ms",
            "2000",
            "--poll-ms",
            "5",
            "--max-cells",
            "10",
            "--exit-when-idle",
        ]))
        .unwrap();
        assert_eq!(f.addr, "127.0.0.1:9");
        assert_eq!(
            (f.config.lease_ms, f.config.poll_ms, f.config.max_cells),
            (2000, 5, 10)
        );
        assert!(f.config.idle_exit_polls > 0);
    }

    #[test]
    fn worker_resilience_flags_parse() {
        let f = parse::<WorkerFlags>(&args(&[])).unwrap();
        assert_eq!(f.config.backoff, ahn_serve::BackoffPolicy::default());
        assert_eq!((f.breaker_threshold, f.breaker_cooldown_ms), (8, 1_000));
        assert!(!f.chaos.is_active());
        let f = parse::<WorkerFlags>(&args(&[
            "--retry-base-ms",
            "10",
            "--retry-cap-ms",
            "100",
            "--backoff-seed",
            "7",
            "--max-errors",
            "5",
            "--breaker-threshold",
            "3",
            "--breaker-cooldown-ms",
            "250",
            "--chaos-seed",
            "42",
            "--chaos-drop-request",
            "20",
            "--chaos-drop-response",
            "10",
            "--chaos-latency-percent",
            "15",
            "--chaos-latency-ms",
            "30",
            "--chaos-stall-percent",
            "5",
            "--chaos-stall-ms",
            "60",
            "--chaos-partial-percent",
            "25",
        ]))
        .unwrap();
        assert_eq!(
            (
                f.config.backoff.base_ms,
                f.config.backoff.cap_ms,
                f.config.backoff.seed
            ),
            (10, 100, 7)
        );
        assert_eq!(f.config.max_consecutive_errors, 5);
        assert_eq!((f.breaker_threshold, f.breaker_cooldown_ms), (3, 250));
        assert_eq!(
            f.chaos,
            ahn_serve::FaultPlan {
                seed: 42,
                drop_request_percent: 20,
                drop_response_percent: 10,
                latency_percent: 15,
                latency_ms: 30,
                stall_percent: 5,
                stall_ms: 60,
                partial_write_percent: 25,
                die_after_calls: None,
            }
        );
        assert!(f.chaos.is_active());
    }

    #[test]
    fn worker_flag_errors() {
        let err = parse::<WorkerFlags>(&args(&["--what"])).unwrap_err();
        assert!(err.contains("unknown worker flag"), "{err}");
        for bad in [
            &["--lease-ms", "0"][..],
            &["--poll-ms", "0"],
            &["--max-cells", "x"],
            &["--addr"],
            &["--retry-base-ms", "0"],
            &["--retry-cap-ms", "x"],
            &["--breaker-threshold", "-1"],
            &["--chaos-drop-request", "101"],
            &["--chaos-latency-percent", "x"],
            &["--chaos-stall-percent", "200"],
            &["--chaos-partial-percent"],
        ] {
            assert!(parse::<WorkerFlags>(&args(bad)).is_err(), "{bad:?}");
        }
        let err = parse::<WorkerFlags>(&args(&["--chaos-drop-request", "101"])).unwrap_err();
        assert!(err.contains("[0, 100]"), "{err}");
    }

    #[test]
    fn loadtest_flags_parse() {
        let f = parse::<LoadtestFlags>(&args(&[])).unwrap();
        assert!(!f.json && !f.shutdown && f.min_hit_rate.is_none());
        let f = parse::<LoadtestFlags>(&args(&[
            "--addr",
            "127.0.0.1:1",
            "--connections",
            "2",
            "--requests",
            "50",
            "--distinct",
            "5",
            "--json",
            "--min-hit-rate",
            "0.5",
            "--shutdown",
        ]))
        .unwrap();
        assert_eq!(
            (f.config.connections, f.config.requests, f.config.distinct),
            (2, 50, 5)
        );
        assert!(f.json && f.shutdown);
        assert_eq!(f.min_hit_rate, Some(0.5));
    }

    #[test]
    fn loadtest_flag_errors() {
        let err = parse::<LoadtestFlags>(&args(&["--what"])).unwrap_err();
        assert!(err.contains("unknown loadtest flag"), "{err}");
        for bad in [
            &["--connections", "0"][..],
            &["--requests", "0"],
            &["--distinct", "0"],
            &["--connections"],
            &["--min-hit-rate", "1.5"],
            &["--min-hit-rate", "nan"],
        ] {
            assert!(parse::<LoadtestFlags>(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn sweep_flags_parse() {
        let f = parse::<SweepFlags>(&args(&[])).unwrap();
        assert_eq!(
            (f.cases, f.sizes, f.seed_blocks, f.json),
            (vec![1], vec![50], 1, false)
        );
        assert_eq!(f.payoffs, vec!["paper".to_string()]);
        assert_eq!(f.scenarios, None);
        assert_eq!(f.exp.config, ExperimentConfig::scaled());

        let f = parse::<SweepFlags>(&args(&[
            "--scenarios",
            "base,slanderers",
            "--cases",
            "1,3",
            "--payoffs",
            "paper,literal-ocr",
            "--sizes",
            "10,50,100",
            "--seed-blocks",
            "4",
            "--json",
            "--preset",
            "smoke",
            "--reps",
            "2",
        ]))
        .unwrap();
        assert_eq!(
            f.scenarios,
            Some(vec!["base".to_string(), "slanderers".to_string()])
        );
        assert_eq!(f.cases, vec![1, 3]);
        assert_eq!(
            f.payoffs,
            vec!["paper".to_string(), "literal-ocr".to_string()]
        );
        assert_eq!(f.sizes, vec![10, 50, 100]);
        assert_eq!(f.seed_blocks, 4);
        assert!(f.json);
        // The shared experiment flags parse in the same pass.
        assert_eq!(
            f.exp.config.population,
            ExperimentConfig::smoke().population
        );
        assert_eq!(f.exp.config.replications, 2);

        let f =
            parse::<SweepFlags>(&args(&["--via", "127.0.0.1:7172", "--journal", "s.log"])).unwrap();
        assert_eq!(f.via.as_deref(), Some("127.0.0.1:7172"));
        assert_eq!(f.journal.as_deref(), Some("s.log"));
    }

    #[test]
    fn sweep_flag_errors() {
        for bad in [
            &["--cases"][..],
            &["--cases", ""],
            &["--scenarios"],
            &["--scenarios", ""],
            &["--sizes", "ten"],
            &["--seed-blocks", "0"],
            &["--seed-blocks", "-1"],
            // A journal only makes sense for a distributed run.
            &["--journal", "s.log"],
        ] {
            assert!(parse::<SweepFlags>(&args(bad)).is_err(), "{bad:?}");
        }
        // Flags in neither the sweep nor the experiment table are rejected.
        assert!(parse::<SweepFlags>(&args(&["--frob", "x"])).is_err());
    }

    #[test]
    fn calibrate_flags_parse() {
        let f = parse::<CalibrateFlags>(&args(&[])).unwrap();
        assert_eq!(f.cases, vec![1, 2, 3, 4]);
        assert_eq!(f.scales, vec![1.0]);
        assert_eq!(f.selections, vec!["paper".to_string()]);
        assert_eq!(
            (f.size, f.seed_blocks, f.max_candidates, f.json),
            (10, 1, 0, false)
        );
        // The base configuration defaults to the smoke preset.
        assert_eq!(f.exp.config, ExperimentConfig::smoke());

        let f = parse::<CalibrateFlags>(&args(&[
            "--cases",
            "2,4",
            "--scales",
            "0.5,1,2",
            "--selections",
            "paper,rank,elitist-2",
            "--size",
            "50",
            "--seed-blocks",
            "3",
            "--max-candidates",
            "24",
            "--json",
            "--preset",
            "scaled",
            "--reps",
            "4",
        ]))
        .unwrap();
        assert_eq!(f.cases, vec![2, 4]);
        assert_eq!(f.scales, vec![0.5, 1.0, 2.0]);
        assert_eq!(
            f.selections,
            vec![
                "paper".to_string(),
                "rank".to_string(),
                "elitist-2".to_string()
            ]
        );
        assert_eq!((f.size, f.seed_blocks, f.max_candidates), (50, 3, 24));
        assert!(f.json);
        assert_eq!(
            f.exp.config.population,
            ExperimentConfig::scaled().population
        );
        assert_eq!(f.exp.config.replications, 4);

        let f = parse::<CalibrateFlags>(&args(&["--via", "127.0.0.1:7172", "--journal", "c.log"]))
            .unwrap();
        assert_eq!(f.via.as_deref(), Some("127.0.0.1:7172"));
        assert_eq!(f.journal.as_deref(), Some("c.log"));
    }

    #[test]
    fn calibrate_flag_errors() {
        for bad in [
            &["--cases"][..],
            &["--cases", ""],
            &["--scales", "big"],
            &["--selections", ""],
            &["--size", "2"],
            &["--size", "many"],
            &["--seed-blocks", "0"],
            &["--max-candidates", "-1"],
            // A journal only makes sense for a distributed run.
            &["--journal", "c.log"],
            // So does a coordinator trace: without --via there is no
            // coordinator, and the flag must fail at parse time rather
            // than after the (potentially long) local run.
            &["--trace", "t.log"],
        ] {
            assert!(parse::<CalibrateFlags>(&args(bad)).is_err(), "{bad:?}");
        }
        // Flags in neither the calibrate nor the experiment table are rejected.
        assert!(parse::<CalibrateFlags>(&args(&["--frob", "x"])).is_err());
    }

    #[test]
    fn fidelity_flags_parse() {
        let f = parse::<FidelityFlags>(&args(&[])).unwrap();
        assert_eq!(f.cases, vec![1, 3]);
        assert_eq!(f.tolerance, 0.15);
        let f = parse::<FidelityFlags>(&args(&[
            "--cases", "1,2,3,4", "--tol", "0.2", "--preset", "smoke",
        ]))
        .unwrap();
        assert_eq!(f.cases, vec![1, 2, 3, 4]);
        assert_eq!(f.tolerance, 0.2);
        assert_eq!(f.exp.config, ExperimentConfig::smoke());
    }

    #[test]
    fn fidelity_flag_errors() {
        for bad in [
            &["--cases", "0"][..],
            &["--cases", "5"],
            &["--cases", ""],
            &["--tol", "1.5"],
            &["--tol", "x"],
            &["--tol"],
        ] {
            assert!(parse::<FidelityFlags>(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn experiment_options_flag_errors() {
        let err = parse::<Options>(&args(&["--bogus"])).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
        let err = parse::<Options>(&args(&["--reps"])).unwrap_err();
        assert!(err.contains("--reps needs a value"), "{err}");
        let err = parse::<Options>(&args(&["--reps", "zero"])).unwrap_err();
        assert!(err.contains("--reps"), "{err}");
        let err = parse::<Options>(&args(&["--preset", "galactic"])).unwrap_err();
        assert!(err.contains("unknown preset"), "{err}");
        let err = parse::<Options>(&args(&["--config", "/no/such/file.json"])).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
        // Flag values that parse but violate config validation.
        let err = parse::<Options>(&args(&["--reps", "0"])).unwrap_err();
        assert!(err.contains("positive"), "{err}");
    }

    #[test]
    fn experiment_options_happy_path() {
        let o =
            parse::<Options>(&args(&["--preset", "smoke", "--reps", "3", "--seed", "9"])).unwrap();
        assert_eq!(o.config.replications, 3);
        assert_eq!(o.config.base_seed, 9);
        assert!(o.out_dir.is_none());
        assert!(o.trace.is_none());
        let o = parse::<Options>(&args(&["--out", "/tmp/x"])).unwrap();
        assert_eq!(o.out_dir.as_deref(), Some(std::path::Path::new("/tmp/x")));
    }

    /// A per-process temp path, removed if a previous run left it.
    fn tmp(name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("ahn-cli-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p.to_string_lossy().into_owned()
    }

    #[test]
    fn trace_flags_parse_everywhere() {
        // Every command carries the path; parsing never opens it.
        let c = parse::<ahn_serve::ServerConfig>(&args(&["--trace", "srv.trace"])).unwrap();
        assert_eq!(c.trace.as_deref(), Some("srv.trace"));
        assert!(parse::<ahn_serve::ServerConfig>(&args(&["--trace"])).is_err());

        let f = parse::<WorkerFlags>(&args(&["--trace", "w.trace"])).unwrap();
        assert_eq!(f.trace.as_deref(), Some("w.trace"));
        assert!(parse::<WorkerFlags>(&args(&[])).unwrap().trace.is_none());

        let f = parse::<SweepFlags>(&args(&["--trace", "s.trace"])).unwrap();
        assert_eq!(f.exp.trace.as_deref(), Some("s.trace"));

        let f = parse::<CalibrateFlags>(&args(&["--via", "127.0.0.1:7172", "--trace", "c.trace"]))
            .unwrap();
        assert_eq!(f.exp.trace.as_deref(), Some("c.trace"));
        // A coordinator trace without a coordinator is a user error.
        let err = parse::<CalibrateFlags>(&args(&["--trace", "c.trace"])).unwrap_err();
        assert!(err.contains("requires --via"), "{err}");

        let path = tmp("options.trace");
        let o = parse::<Options>(&args(&["--trace", &path])).unwrap();
        assert!(o.trace.is_some());
        assert!(!Path::new(&path).exists(), "parsing opened the trace log");
    }

    #[test]
    fn trace_join_dispatch_and_flags() {
        // File arguments (or --require-complete) pick the join mode;
        // experiment flags keep the legacy decision-trace dump.
        assert!(trace_join_requested(&args(&["a.trace", "b.trace"])));
        assert!(trace_join_requested(&args(&[
            "--require-complete",
            "1",
            "a.trace"
        ])));
        assert!(!trace_join_requested(&args(&[])));
        assert!(!trace_join_requested(&args(&["--preset", "smoke"])));

        let f = parse::<TraceJoinFlags>(&args(&["a.trace", "b.trace"])).unwrap();
        assert_eq!(f.require_complete, 0);
        assert_eq!(f.files, args(&["a.trace", "b.trace"]));
        let f = parse::<TraceJoinFlags>(&args(&["--require-complete", "3", "a.trace"])).unwrap();
        assert_eq!(f.require_complete, 3);

        for bad in [
            &[][..],
            &["--require-complete"],
            &["--require-complete", "x", "a.trace"],
            &["--frob", "a.trace"],
        ] {
            assert!(parse::<TraceJoinFlags>(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn trace_join_reconstructs_a_cell_across_logs() {
        use ahn_obs::{trace_id_of_key, TraceEvent, TraceLog};
        let server = tmp("join-server.trace");
        let worker = tmp("join-worker.trace");
        let key = 0xfeed_beefu64;
        let tid = trace_id_of_key(key);
        {
            let log = TraceLog::open(std::path::Path::new(&server), "serve:test").unwrap();
            log.emit(TraceEvent::new(tid, "submit").key(key).job(1));
            log.emit(TraceEvent::new(tid, "enqueue").key(key).job(1));
            log.emit(TraceEvent::new(tid, "lease").key(key).job(1).lease(7));
            log.emit(
                TraceEvent::new(tid, "complete")
                    .key(key)
                    .job(1)
                    .outcome(true),
            );
        }
        {
            let log = TraceLog::open(std::path::Path::new(&worker), "worker:test").unwrap();
            log.emit(TraceEvent::new(tid, "claim").lease(7));
            log.emit(TraceEvent::new(tid, "compute").lease(7).outcome(true));
            log.emit(TraceEvent::new(tid, "deliver").lease(7).outcome(true));
        }
        let mut events = Vec::new();
        for path in [&server, &worker] {
            events.extend(
                ahn_obs::read_trace(std::path::Path::new(path))
                    .unwrap()
                    .events,
            );
        }
        let tree = ahn_obs::join_traces(events, 0);
        assert_eq!(tree.cells.len(), 1);
        assert_eq!(tree.complete_cells(), 1);
        assert_eq!(tree.orphan_spans, 0);
        let rendered = ahn_obs::render_tree(&tree);
        assert!(rendered.contains("complete"), "{rendered}");
        assert!(rendered.contains("cells=1 complete=1"), "{rendered}");
        let _ = std::fs::remove_file(&server);
        let _ = std::fs::remove_file(&worker);
    }

    #[test]
    fn field_flags_override_the_base_in_any_order() {
        let smoke = ExperimentConfig::smoke();
        let fields = [
            "--cases", "1", "--reps", "1", "--gens", "2", "--rounds", "20",
        ];
        let config = concat!(env!("CARGO_MANIFEST_DIR"), "/../../configs/example.json");
        let file: ExperimentConfig =
            serde_json::from_str(&std::fs::read_to_string(config).unwrap()).unwrap();
        for (base, population) in [
            (["--preset", "smoke"], smoke.population),
            (["--config", config], file.population),
        ] {
            let before = [&base[..], &fields].concat();
            let after = [&fields[..], &base].concat();
            for order in [before, after] {
                let f = parse::<FidelityFlags>(&args(&order)).unwrap();
                let c = &f.exp.config;
                assert_eq!(
                    (c.replications, c.generations, c.rounds, c.population),
                    (1, 2, 20, population),
                    "{order:?}"
                );
            }
        }
        // The last base wins; the field flags survive it either way.
        let o = parse::<Options>(&args(&[
            "--reps", "2", "--preset", "paper", "--preset", "smoke",
        ]));
        let o = o.unwrap();
        assert_eq!((o.config.replications, o.config.rounds), (2, smoke.rounds));
    }

    #[test]
    fn every_command_rejects_unknown_flags_and_empty_scenario_names() {
        for (specs, parse) in every_table() {
            let err = parse(&args(&["--bogus"])).unwrap_err();
            assert!(
                err.contains("unknown") && err.contains("--bogus"),
                "{specs:?}: {err}"
            );
        }
        assert!(parse::<ScenarioList>(&args(&["--bogus"])).is_err());
        assert!(parse::<ScenarioList>(&args(&["--json"])).unwrap().json);
        for bad in ["", "base,,slanderers", ","] {
            let err = parse::<AtlasFlags>(&args(&["--scenarios", bad])).unwrap_err();
            assert!(err.contains("non-empty scenario names"), "{bad:?}: {err}");
            assert!(parse::<SweepFlags>(&args(&["--scenarios", bad])).is_err());
        }
        let f = parse::<AtlasFlags>(&args(&["--scenarios", "base,slanderers"])).unwrap();
        assert_eq!(f.grid.scenarios, args(&["base", "slanderers"]));
    }

    #[test]
    fn help_lists_every_flag_of_every_command() {
        let help = help();
        for (specs, _) in every_table() {
            for spec in specs {
                let (usage, about) = spec.split_once(": ").expect("every flag has help");
                assert!(
                    help.contains(&format!("  {usage:<28} {about}\n")),
                    "{usage:?} missing"
                );
            }
        }
        for command in COMMANDS {
            assert!(
                help.contains(&format!("ahn-exp {} ", command.name)),
                "{}",
                command.name
            );
        }
        for (name, _, _) in PAPER {
            assert!(help.contains(&format!("  {name} ")), "{name}");
        }
    }

    /// A command's flag specs and its parser.
    type Table = (Vec<&'static str>, fn(&[String]) -> Result<(), String>);

    /// Every command's table (the experiment commands' first).
    fn every_table() -> Vec<Table> {
        fn of<C: Flags>() -> Table {
            (C::TABLE.iter().map(|f| f.spec).collect(), |a| {
                parse::<C>(a).map(drop)
            })
        }
        let tables = vec![
            of::<Options>(),
            of::<SweepFlags>(),
            of::<CalibrateFlags>(),
            of::<FidelityFlags>(),
            of::<ScenarioList>(),
            of::<ScenarioRun>(),
            of::<AtlasFlags>(),
            of::<TraceJoinFlags>(),
            of::<BenchFlags>(),
            of::<ahn_serve::ServerConfig>(),
            of::<WorkerFlags>(),
            of::<LoadtestFlags>(),
        ];
        assert_eq!(
            tables.len(),
            COMMANDS.len() + 1,
            "a command is missing here"
        );
        tables
    }

    /// Boundary fuzz over every command's table: random argv built from
    /// every known flag, edge values and junk must parse to `Ok` or
    /// `Err` — never panic — and must not create any file it names.
    #[test]
    fn random_argv_never_panics_and_creates_no_files() {
        use rand::{Rng, SeedableRng};
        let tables = every_table();
        let junk = tmp("fuzz");
        let config = concat!(env!("CARGO_MANIFEST_DIR"), "/../../configs/example.json");
        let mut tokens: Vec<String> = tables
            .iter()
            .flat_map(|(specs, _)| specs.iter())
            .chain(Options::TABLE.iter().map(|f| &f.spec))
            .map(|spec| spec.split([' ', ':']).next().unwrap().to_owned())
            .collect();
        tokens.extend(args(&[
            "0", "-1", "", "1,,4", "NaN", "1", "3", "4", "1,4", "0.5", "101", "smoke", "x", "-",
            "--", "base", "junk,", config,
        ]));
        let paths = [junk.clone(), format!("{junk}.trace"), format!("{junk}/dir")];
        tokens.extend(paths.iter().cloned());
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xF122);
        for _ in 0..4_000 {
            let argv: Vec<String> = (0..rng.gen_range(0..8))
                .map(|_| tokens[rng.gen_range(0..tokens.len())].clone())
                .collect();
            for (_, parse) in &tables {
                let _ = parse(&argv);
            }
        }
        for path in &paths {
            assert!(!Path::new(path).exists(), "parsing created {path}");
        }
    }
}
