//! Host and build fingerprint, and process memory.
//!
//! Results whose fingerprints differ are never compared: the
//! fingerprint names the core count, the `AHN_THREADS` cap, whether the
//! build is the native-CPU one the repository's numbers assume, the
//! source revision and the compiler.

use std::process::Command;

/// Runs `program args..` and returns its trimmed stdout, or `None` when
/// it cannot run or fails.
fn probe(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// One line describing the host and build.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let threads = std::env::var("AHN_THREADS").unwrap_or_else(|_| "unset".into());
    let build = match ahn_bench::harness::portable_build_warning() {
        None => "native",
        Some(_) => "portable",
    };
    let rev = probe("git", &["rev-parse", "--short=12", "HEAD"]).unwrap_or_else(|| "none".into());
    let rustc = probe("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    format!("nproc={nproc} AHN_THREADS={threads} build={build} rev={rev} rustc={rustc:?}")
}

/// Host-wide CPU ticks from `/proc/stat`: (busy, steal). Busy counts
/// user, nice and system time.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    let busy = fields.get(..3)?.iter().sum();
    Some((busy, *fields.get(7)?))
}

/// Share of the CPU time this host wanted between two [`cpu_ticks`]
/// readings that the hypervisor gave to other guests instead.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let busy = after.0.saturating_sub(before.0);
    let steal = after.1.saturating_sub(before.1);
    steal as f64 / (busy + steal).max(1) as f64
}

/// The process's peak resident set (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_names_every_field() {
        let f = fingerprint();
        for key in ["nproc=", "AHN_THREADS=", "build=", "rev=", "rustc="] {
            assert!(f.contains(key), "{f}");
        }
    }

    #[test]
    fn steal_share_is_a_share_of_wanted_time() {
        assert_eq!(steal_share((100, 10), (190, 40)), 0.25);
        assert_eq!(steal_share((5, 5), (5, 5)), 0.0);
        assert!(cpu_ticks().is_some());
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
