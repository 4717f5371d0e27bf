//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Prints one `name = value unit` line per
//! metric and, as the last line, a JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` measures the
//! end-to-end metrics; `--trace 1` makes the traced run and reports the
//! per-layer metrics. `README.md` describes the workloads and metrics.
//!
//! `--golden` prints the default-seed canary digests (`golden.json`).

mod host;
mod metrics;
mod report;
mod serve;
mod shadow;
mod sim;
mod stats;
mod trace;
mod workload;

use workload::Workload;

/// Default-seed canary digests, per workload.
const GOLDEN: &str = include_str!("../golden.json");

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    mode: Mode,
}

#[derive(PartialEq)]
enum Mode {
    Run,
    Golden,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: workload::DEFAULT_SEED,
        seconds: 15.0,
        trace: false,
        mode: Mode::Run,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                a.workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--golden" => a.mode = Mode::Golden,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.mode == Mode::Run && a.workload.is_none() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

/// The committed canary digests of `workload`, if any.
fn golden(workload: Workload) -> Option<Vec<u64>> {
    let v: serde_json::Value = serde_json::from_str(GOLDEN).expect("golden.json parses");
    let hex = |d: &serde_json::Value| {
        report::json::str(d)
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .expect("golden.json holds hex digests")
    };
    report::json::array(&v[workload.name()]).map(|list| list.iter().map(hex).collect())
}

fn print_golden() {
    let mut lines = Vec::new();
    for (w, name, _) in workload::ALL {
        let digests = match w {
            Workload::ServeOpen => serve::canary_digests(),
            _ => sim::canary_digests(w),
        };
        let items: Vec<String> = digests.iter().map(|d| format!("\"{d:016x}\"")).collect();
        lines.push(format!("  \"{name}\": [{}]", items.join(", ")));
    }
    println!("{{\n{}\n}}", lines.join(",\n"));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    // Simulation workloads run single-threaded unless told otherwise.
    if std::env::var_os("AHN_THREADS").is_none() {
        std::env::set_var("AHN_THREADS", "1");
    }
    if args.mode == Mode::Golden {
        return print_golden();
    }
    let w = args.workload.expect("checked by parse");
    let fingerprint = host::fingerprint();
    let golden = golden(w);
    let cpu_before = host::cpu_ticks();
    let outcome = match w {
        Workload::ServeOpen => serve::run(args.seed, args.seconds, args.trace, golden.as_deref()),
        _ => Ok(sim::run(
            w,
            args.seed,
            args.seconds,
            args.trace,
            golden.as_deref(),
        )),
    };
    match outcome {
        Ok(mut o) => {
            if let (Some(a), Some(b)) = (cpu_before, host::cpu_ticks()) {
                o.note(format!(
                    "host steal: {:.1}% of busy CPU time during the run \
                     (shared-host interference; compare runs with similar steal)",
                    100.0 * host::steal_share(a, b)
                ));
            }
            print!("{}", o.render(w, args.seed, args.trace, &fingerprint));
            if o.failed > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&strings(&[
            "--workload",
            "zoo-1000",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(a.workload, Some(Workload::Zoo1000));
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, true));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(
            parse(&strings(&["--seed", "1"])).is_err(),
            "workload missing"
        );
        assert!(parse(&strings(&["--workload", "nope"])).is_err());
        assert!(parse(&strings(&["--workload", "serve-open", "--trace", "2"])).is_err());
        assert!(parse(&strings(&["--workload", "serve-open", "--seconds", "0"])).is_err());
    }

    #[test]
    fn golden_file_covers_every_workload() {
        for (w, name, _) in workload::ALL {
            assert!(golden(w).is_some_and(|d| !d.is_empty()), "{name}");
        }
    }
}
