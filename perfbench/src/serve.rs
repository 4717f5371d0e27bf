//! The serve-open workload: an open-loop request stream against an
//! in-process `ahn_serve` node.
//!
//! Arrivals follow a seeded Poisson schedule. Two keep-alive
//! connections (this host's core count) take whichever request is due
//! next: a scheduled submission, or a status poll of a job an earlier
//! submission was queued or coalesced onto. A request's latency runs
//! from when it was *due* to when its verified result is in hand, so a
//! stall delays every request behind it; a failed request (503,
//! transport error, failed job, wrong result) counts as infinite
//! latency. The generator's own lateness is reported too.

use crate::report::{json, Outcome};
use crate::stats::{median, percentile, tail, Tail};
use crate::trace::{name_id, Span, ROOT};
use crate::workload::{serve_schedule, ServeSchedule, Workload, DEFAULT_SEED};
use ahn_core::canonical_hash;
use ahn_serve::http::{read_response, write_request};
use ahn_serve::jobs::run_job;
use ahn_serve::loadtest::smoke_spec;
use ahn_serve::{spawn, ServerConfig, ServerHandle, Snapshot};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Client connections: one per core of the 2-core reference host.
pub const CONNECTIONS: usize = 2;
/// Local worker threads of the served node.
const WORKERS: usize = 2;
/// Delay between status polls of a pending job: a quarter of the
/// loadtest's 2 ms, so that a queued job's measured latency resolves
/// its compute time (about 1 ms at the median) rather than the poll
/// period.
const POLL_INTERVAL: Duration = Duration::from_micros(500);
/// Set-ups per run; the median is reported.
const SETUPS: usize = 5;
/// Extra time, beyond the schedule, for outstanding requests to finish
/// before they are counted as failed.
const GRACE: Duration = Duration::from_secs(30);

/// A keep-alive client connection.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    fn call(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        write_request(&mut self.stream, method, path, body)?;
        read_response(&mut self.reader)
    }
}

/// The inline result of a `done` response body, if any.
fn result_of(body: &str) -> Option<&str> {
    let at = body.find("\"result\":")?;
    body[at + "\"result\":".len()..].strip_suffix('}')
}

/// The `job_id` of a 202 acknowledgement.
fn job_id_of(body: &str) -> Option<u64> {
    let v: serde_json::Value = serde_json::from_str(body).ok()?;
    json::u64(&v["job_id"])
}

/// The `status` of a response body. Only the fields before an inline
/// result are parsed: the result can be kilobytes, and parsing it would
/// add client time to every measured latency.
fn status_of(body: &str) -> Option<String> {
    let head = match body.find(",\"result\":") {
        Some(at) => format!("{}}}", &body[..at]),
        None => body.to_owned(),
    };
    let v: serde_json::Value = serde_json::from_str(&head).ok()?;
    json::str(&v["status"]).map(str::to_owned)
}

/// Submits `body` and polls its job until done, on one connection;
/// `Ok(true)` when the result hashes to `want`.
fn fetch(conn: &mut Conn, body: &str, want: u64) -> std::io::Result<bool> {
    let (mut code, mut reply) = conn.call("POST", "/v1/experiments", body)?;
    if code == 202 {
        let Some(job) = job_id_of(&reply) else {
            return Ok(false);
        };
        loop {
            std::thread::sleep(POLL_INTERVAL);
            (code, reply) = conn.call("GET", &format!("/v1/jobs/{job}"), "")?;
            if code != 200 || !matches!(status_of(&reply).as_deref(), Some("queued" | "running")) {
                break;
            }
        }
    }
    let verified = code == 200
        && status_of(&reply).as_deref() == Some("done")
        && result_of(&reply).is_some_and(|r| canonical_hash(r).ok() == Some(want));
    Ok(verified)
}

/// A server plus the client connections that drive it.
struct Node {
    handle: ServerHandle,
    conns: Vec<Conn>,
}

impl Node {
    /// Spawns a node, opens the client connections and warms both up
    /// with a health check and one job outside the schedule.
    fn start() -> Result<Node, String> {
        // The served node's defaults, as `ahn-exp serve --workers 2`
        // runs it in CI, on an ephemeral port.
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: WORKERS,
            ..ServerConfig::default()
        };
        let handle = spawn(config).map_err(|e| format!("spawn: {e}"))?;
        let mut conns = Vec::with_capacity(CONNECTIONS);
        for _ in 0..CONNECTIONS {
            let mut c = Conn::open(handle.addr()).map_err(|e| format!("connect: {e}"))?;
            c.call("GET", "/healthz", "")
                .map_err(|e| format!("healthz: {e}"))?;
            conns.push(c);
        }
        let warm = smoke_spec(u64::MAX);
        let want = canonical_hash(run_job(&warm)?.as_str())?;
        let body = serde_json::to_string(&warm).map_err(|e| format!("spec: {e}"))?;
        if !fetch(&mut conns[0], &body, want).map_err(|e| format!("warm-up: {e}"))? {
            return Err("warm-up job returned a wrong result".into());
        }
        Ok(Node { handle, conns })
    }

    fn metrics(&mut self) -> Result<Snapshot, String> {
        let (_, body) = self.conns[0]
            .call("GET", "/metrics", "")
            .map_err(|e| format!("metrics: {e}"))?;
        serde_json::from_str(&body).map_err(|e| format!("metrics body: {e}"))
    }

    /// Closes the client connections and drains the node.
    fn stop(self) {
        drop(self.conns);
        self.handle.shutdown();
    }
}

/// One step a connection can take.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Op {
    /// Submit the scheduled request.
    Submit(usize),
    /// Poll request `.0`'s job `.1`.
    Poll(usize, u64),
    /// Read `/metrics` at the end of window `.0`.
    Scrape(usize),
}

/// The shared agenda of due operations.
struct Agenda {
    next_arrival: usize,
    /// Polls and scrapes, by due time.
    timed: BinaryHeap<Reverse<(u64, Op)>>,
    in_flight: usize,
}

/// Length of the windows whose medians the serve metrics report.
const WINDOW: Duration = Duration::from_secs(1);

/// What happened to one scheduled request.
#[derive(Debug, Clone, Copy, Default)]
struct Fate {
    /// Due time to verified result, ms; infinite when it failed.
    latency_ms: f64,
    /// Send time minus due time of the submission, ms.
    late_ms: f64,
    /// Status polls it took.
    polls: u32,
    /// Whether the submission was answered 202.
    queued: bool,
    done: bool,
}

/// What one open-loop run measured.
pub struct LoopResult {
    fates: Vec<Fate>,
    wall_s: f64,
    spans: Vec<Span>,
    /// Server games per worker-busy second in each window, from
    /// `/metrics` read at every window's end.
    window_games_per_s: Vec<f64>,
}

impl LoopResult {
    /// Median latency of the verified requests, ms; NaN when none was.
    fn median_latency_ms(&self) -> f64 {
        let lat: Vec<f64> = self
            .fates
            .iter()
            .map(|f| f.latency_ms)
            .filter(|l| l.is_finite())
            .collect();
        if lat.is_empty() {
            f64::NAN
        } else {
            median(&lat)
        }
    }

    /// Latencies grouped by the window their request was due in.
    fn window_latencies(&self, schedule: &ServeSchedule) -> Vec<Vec<f64>> {
        let width = WINDOW.as_nanos() as u64;
        let mut windows: Vec<Vec<f64>> = Vec::new();
        for (a, f) in schedule.arrivals.iter().zip(&self.fates) {
            let w = (a.due_ns / width) as usize;
            if windows.len() <= w {
                windows.resize(w + 1, Vec::new());
            }
            windows[w].push(f.latency_ms);
        }
        windows.retain(|w| !w.is_empty());
        windows
    }
}

/// Runs `schedule` open-loop against `node`, verifying every result
/// against `reference` (by spec index). With `trace`, every HTTP
/// exchange and every request is returned as a span, timed from the
/// start of the loop.
fn open_loop(
    node: &mut Node,
    schedule: &ServeSchedule,
    bodies: &[String],
    reference: &[u64],
    trace: bool,
    out: &mut Outcome,
) -> LoopResult {
    let origin = Instant::now();
    let n = schedule.arrivals.len();
    let agenda = Mutex::new(Agenda {
        next_arrival: 0,
        timed: (1..=windows_of(schedule))
            .map(|k| Reverse((k as u64 * WINDOW.as_nanos() as u64, Op::Scrape(k))))
            .collect(),
        in_flight: 0,
    });
    let scrapes = Mutex::new(Vec::<(usize, Snapshot)>::new());
    let fates = Mutex::new(vec![Fate::default(); n]);
    let deadline = schedule.arrivals.last().map_or(0, |a| a.due_ns) + GRACE.as_nanos() as u64;
    let ns = |t: Instant| t.duration_since(origin).as_nanos() as u64;
    let (submit_name, poll_name) = (name_id("http.submit"), name_id("http.poll"));
    let checks = Mutex::new(Vec::<(bool, String)>::new());

    let per_thread: Vec<Vec<(u8, usize, u64, u64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = node
            .conns
            .iter_mut()
            .map(|conn| {
                let (agenda, fates, checks, scrapes) = (&agenda, &fates, &checks, &scrapes);
                scope.spawn(move || {
                    let mut ops: Vec<(u8, usize, u64, u64)> = Vec::new();
                    loop {
                        // Spin until an operation is due rather than sleep:
                        // on a virtual machine, waking a halted vCPU costs
                        // more than the requests being measured.
                        let op = loop {
                            let mut a = agenda.lock().expect("agenda lock");
                            let arrival = schedule
                                .arrivals
                                .get(a.next_arrival)
                                .map(|r| (r.due_ns, Op::Submit(a.next_arrival)));
                            let poll = a.timed.peek().map(|Reverse(p)| *p);
                            let next = match (arrival, poll) {
                                (Some(x), Some(y)) => Some(x.min(y)),
                                (x, y) => x.or(y),
                            };
                            let now = ns(Instant::now());
                            match next {
                                None if a.in_flight == 0 => break None,
                                Some(_) if now > deadline => break None,
                                Some((due, op)) if due <= now => {
                                    match op {
                                        Op::Submit(_) => a.next_arrival += 1,
                                        Op::Poll(..) | Op::Scrape(_) => {
                                            a.timed.pop();
                                        }
                                    }
                                    a.in_flight += 1;
                                    break Some(op);
                                }
                                _ => {}
                            }
                            drop(a);
                            std::thread::yield_now();
                        };
                        let Some(op) = op else {
                            break;
                        };
                        let sent = Instant::now();
                        if let Op::Scrape(k) = op {
                            let snap = conn
                                .call("GET", "/metrics", "")
                                .ok()
                                .and_then(|(_, b)| serde_json::from_str::<Snapshot>(&b).ok());
                            if let Some(snap) = snap {
                                scrapes.lock().expect("scrapes lock").push((k, snap));
                            }
                            agenda.lock().expect("agenda lock").in_flight -= 1;
                            continue;
                        }
                        let (req, name, reply) = match op {
                            Op::Submit(i) => {
                                let spec = schedule.arrivals[i].spec;
                                let due = schedule.arrivals[i].due_ns;
                                fates.lock().expect("fates lock")[i].late_ms =
                                    ns(sent).saturating_sub(due) as f64 / 1e6;
                                (
                                    i,
                                    submit_name,
                                    conn.call("POST", "/v1/experiments", &bodies[spec]),
                                )
                            }
                            Op::Poll(i, job) => {
                                fates.lock().expect("fates lock")[i].polls += 1;
                                (
                                    i,
                                    poll_name,
                                    conn.call("GET", &format!("/v1/jobs/{job}"), ""),
                                )
                            }
                            Op::Scrape(_) => unreachable!("scrapes are handled above"),
                        };
                        let done_at = Instant::now();
                        if trace {
                            ops.push((name, req, ns(sent), ns(done_at)));
                        }
                        let spec = schedule.arrivals[req].spec;
                        // Some(true): verified; Some(false): failed;
                        // None: poll again.
                        let verdict = match reply {
                            Ok((200, body)) if status_of(&body).as_deref() == Some("done") => {
                                Some(result_of(&body).is_some_and(|r| {
                                    canonical_hash(r).ok() == Some(reference[spec])
                                }))
                            }
                            Ok((200, body)) | Ok((202, body)) => match (op, job_id_of(&body)) {
                                (Op::Submit(_), Some(job)) => {
                                    fates.lock().expect("fates lock")[req].queued = true;
                                    let due = ns(done_at) + POLL_INTERVAL.as_nanos() as u64;
                                    agenda
                                        .lock()
                                        .expect("agenda lock")
                                        .timed
                                        .push(Reverse((due, Op::Poll(req, job))));
                                    None
                                }
                                (Op::Poll(_, job), _)
                                    if matches!(
                                        status_of(&body).as_deref(),
                                        Some("queued" | "running")
                                    ) =>
                                {
                                    let due = ns(done_at) + POLL_INTERVAL.as_nanos() as u64;
                                    agenda
                                        .lock()
                                        .expect("agenda lock")
                                        .timed
                                        .push(Reverse((due, Op::Poll(req, job))));
                                    None
                                }
                                _ => Some(false),
                            },
                            _ => Some(false),
                        };
                        if let Some(ok) = verdict {
                            let due = schedule.arrivals[req].due_ns;
                            let mut f = fates.lock().expect("fates lock");
                            f[req].done = true;
                            f[req].latency_ms = if ok {
                                ns(done_at).saturating_sub(due) as f64 / 1e6
                            } else {
                                f64::INFINITY
                            };
                            checks.lock().expect("checks lock").push((
                                ok,
                                format!("request {req} (spec {spec}) failed or differs"),
                            ));
                        }
                        agenda.lock().expect("agenda lock").in_flight -= 1;
                    }
                    ops
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect()
    });
    let wall_s = origin.elapsed().as_secs_f64();

    let mut fates = fates.into_inner().expect("fates lock");
    for (ok, msg) in checks.into_inner().expect("checks lock") {
        out.check(ok, || msg);
    }
    for (i, f) in fates.iter_mut().enumerate() {
        if !f.done {
            f.latency_ms = f64::INFINITY;
            out.check(false, || format!("request {i} never completed"));
        }
    }

    // One request span per scheduled request, due time to result, with
    // its HTTP exchanges as children.
    let mut spans = Vec::new();
    if trace {
        let request = name_id("load.request");
        for (i, (a, f)) in schedule.arrivals.iter().zip(&fates).enumerate() {
            let end = if f.latency_ms.is_finite() {
                a.due_ns + (f.latency_ms * 1e6) as u64
            } else {
                a.due_ns
            };
            spans.push(Span {
                name: request,
                id: i as u32,
                parent: ROOT,
                start: a.due_ns,
                end,
            });
        }
        for (name, req, start, end) in per_thread.into_iter().flatten() {
            spans.push(Span {
                name,
                id: req as u32,
                parent: req as u32,
                start,
                end,
            });
        }
    }
    let mut scrapes = scrapes.into_inner().expect("scrapes lock");
    scrapes.sort_by_key(|(k, _)| *k);
    let window_games_per_s = scrapes
        .windows(2)
        .filter_map(|w| {
            let busy = w[1].1.job_seconds_total - w[0].1.job_seconds_total;
            let games = w[1].1.games_simulated - w[0].1.games_simulated;
            (busy > 0.0).then(|| games as f64 / busy)
        })
        .collect();
    LoopResult {
        fates,
        wall_s,
        spans,
        window_games_per_s,
    }
}

/// Whole windows in the schedule, at least one.
fn windows_of(schedule: &ServeSchedule) -> usize {
    let last = schedule.arrivals.last().map_or(0, |a| a.due_ns);
    ((last / WINDOW.as_nanos() as u64) as usize).max(1)
}

/// Reference results of every distinct spec, by `run_job`.
fn references(schedule: &ServeSchedule) -> Result<(Vec<String>, Vec<u64>), String> {
    let specs = &schedule.specs;
    let bodies = specs
        .iter()
        .map(|s| serde_json::to_string(s).map_err(|e| format!("spec: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    // One thread per connection's core, each taking every other spec.
    let parts: Vec<Result<Vec<(usize, u64)>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|k| {
                scope.spawn(move || {
                    (k..specs.len())
                        .step_by(CONNECTIONS)
                        .map(|i| Ok((i, canonical_hash(run_job(&specs[i])?.as_str())?)))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread"))
            .collect()
    });
    let mut digests = vec![0; specs.len()];
    for part in parts {
        for (i, d) in part? {
            digests[i] = d;
        }
    }
    Ok((bodies, digests))
}

/// Digests of the first distinct specs of the default seed, recorded in
/// `golden.json`.
pub fn canary_digests() -> Vec<u64> {
    serve_schedule(DEFAULT_SEED, 1.0)
        .specs
        .iter()
        .take(3)
        .map(|s| {
            let result = run_job(s).expect("canary job runs");
            canonical_hash(result.as_str()).expect("hashable")
        })
        .collect()
}

/// Runs the serve-open workload.
pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    golden: Option<&[u64]>,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let budget = if trace { seconds / 2.0 } else { seconds };

    // Set-up: the schedule, every distinct spec's reference result by
    // `run_job`, and a warmed-up node.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut prepared: Option<(Node, ServeSchedule, Vec<String>, Vec<u64>)> = None;
    for _ in 0..SETUPS {
        if let Some((old, ..)) = prepared.take() {
            Node::stop(old);
        }
        let t = Instant::now();
        let schedule = serve_schedule(seed, budget);
        let (bodies, reference) = references(&schedule)?;
        prepared = Some((Node::start()?, schedule, bodies, reference));
        setups.push(t.elapsed().as_secs_f64());
    }
    out.metric("setup_s", median(&setups));
    let (mut node, schedule, bodies, reference) = prepared.expect("set up");
    out.note(format!(
        "schedule: {} requests over {budget} s, {} distinct specs",
        schedule.arrivals.len(),
        schedule.specs.len()
    ));
    let canary = canary_digests();
    match golden {
        Some(want) => out.check(canary == want, || {
            format!(
                "default-seed canary digests {} differ from golden.json {}",
                crate::sim::hex_list(&canary),
                crate::sim::hex_list(want)
            )
        }),
        None => out.note("no golden digests recorded for this workload".into()),
    }

    let plain = open_loop(&mut node, &schedule, &bodies, &reference, false, &mut out);
    if !trace {
        // Medians over one-second windows: a burst of interference on a
        // shared host moves a window, not the median.
        let windows = plain.window_latencies(&schedule);
        let p50s: Vec<f64> = windows.iter().map(|w| median(w)).collect();
        let tails: Vec<Tail> = windows
            .iter()
            .map(|w| tail(w, Workload::ServeOpen.tail_cap()))
            .collect();
        let tail_values: Vec<f64> = tails.iter().map(|t| t.value).collect();
        let mut all: Vec<f64> = plain.fates.iter().map(|f| f.latency_ms).collect();
        all.sort_by(f64::total_cmp);
        out.note(format!(
            "latency over the run, ms: p50 {:.3} p95 {:.3} p97 {:.3} p99 {:.3} max {:.3}",
            percentile(&all, 50.0),
            percentile(&all, 95.0),
            percentile(&all, 97.0),
            percentile(&all, 99.0),
            all[all.len() - 1]
        ));
        out.note(format!(
            "lat_tail_ms: median over {} windows of p{} ({} to {} samples each)",
            windows.len(),
            tails.iter().map(|t| t.pct).fold(f64::INFINITY, f64::min),
            windows.iter().map(Vec::len).min().unwrap_or(0),
            windows.iter().map(Vec::len).max().unwrap_or(0),
        ));
        let ok = plain
            .fates
            .iter()
            .filter(|f| f.latency_ms.is_finite())
            .count();
        let games = if plain.window_games_per_s.is_empty() {
            node.metrics()?.games_per_second
        } else {
            median(&plain.window_games_per_s)
        };
        out.metric("games_per_s", games);
        out.metric("lat_ms", median(&p50s));
        out.metric("lat_tail_ms", median(&tail_values));
        out.metric("goodput_rps", ok as f64 / plain.wall_s);
        node.stop();
        out.metric("peak_rss_mb", crate::host::peak_rss_mb());
        return Ok(out);
    }

    // The traced half runs the same schedule on a fresh node, so its
    // cache starts as cold as the untraced half's did.
    node.stop();
    let mut node = Node::start()?;
    let traced = open_loop(&mut node, &schedule, &bodies, &reference, true, &mut out);
    let snap = node.metrics()?;
    node.stop();

    let lat = snap
        .latency
        .clone()
        .ok_or("metrics without latency block")?;
    out.metric("serve.submit_us_p50", lat.request_submit_us.p50 as f64);
    out.metric("serve.submit_us_p99", lat.request_submit_us.p99 as f64);
    out.metric("serve.jobs_poll_us_p50", lat.request_jobs_us.p50 as f64);
    out.metric("serve.queue_wait_us_p50", lat.queue_wait_us.p50 as f64);
    out.metric("serve.queue_wait_us_p99", lat.queue_wait_us.p99 as f64);
    out.metric("serve.job_compute_us_p50", lat.job_compute_us.p50 as f64);
    out.metric("serve.job_compute_us_p99", lat.job_compute_us.p99 as f64);
    let submissions = snap.cache_hits + snap.cache_misses + snap.coalesced;
    out.metric(
        "serve.cache_hit_ratio",
        snap.cache_hits as f64 / submissions.max(1) as f64,
    );
    out.metric("serve.coalesced", snap.coalesced as f64);
    out.metric("serve.rejected_queue_full", snap.rejected_queue_full as f64);
    out.metric("serve.queue_depth_peak", snap.queue_depth_peak as f64);
    let queued = traced.fates.iter().filter(|f| f.queued).count();
    let polls: u32 = traced.fates.iter().map(|f| f.polls).sum();
    out.metric(
        "serve.polls_per_job",
        f64::from(polls) / queued.max(1) as f64,
    );
    let mut late: Vec<f64> = traced.fates.iter().map(|f| f.late_ms).collect();
    late.sort_by(f64::total_cmp);
    out.metric("load.late_ms_p99", percentile(&late, 99.0));
    // Tracing happens only in the client, so its overhead shows in the
    // client's verified latency: untraced ÷ traced median − 1, which is
    // negative when tracing slows the client down.
    out.metric(
        "obs.trace_overhead",
        plain.median_latency_ms() / traced.median_latency_ms() - 1.0,
    );
    out.note(format!(
        "counts: cache_hits={} cache_misses={} coalesced={} jobs_completed={} polls={polls}",
        snap.cache_hits, snap.cache_misses, snap.coalesced, snap.jobs_completed
    ));
    let share = |n: u64| n as f64 / submissions.max(1) as f64;
    out.note(format!(
        "submission shares: hit {:.4}, miss {:.4}, coalesced {:.4}",
        share(snap.cache_hits),
        share(snap.cache_misses),
        share(snap.coalesced)
    ));
    out.write_spans(Workload::ServeOpen, &traced.spans);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Arrival;

    #[test]
    fn results_are_cut_from_done_bodies() {
        let body = r#"{"job_id":3,"status":"done","result":[{"a":1}]}"#;
        assert_eq!(result_of(body), Some(r#"[{"a":1}]"#));
        assert_eq!(status_of(body).as_deref(), Some("done"));
        let cached = r#"{"job_id":null,"status":"done","cached":true,"result":{"x":"y"}}"#;
        assert_eq!(status_of(cached).as_deref(), Some("done"));
        assert_eq!(
            status_of(r#"{"job_id":4,"status":"running"}"#).as_deref(),
            Some("running")
        );
        assert_eq!(
            job_id_of(r#"{"job_id":3,"status":"queued","cached":false}"#),
            Some(3)
        );
        assert_eq!(result_of(r#"{"job_id":3,"status":"queued"}"#), None);
    }

    /// A schedule of `n` requests of one spec, all due at `due_ns`.
    fn burst(n: usize, due_ns: u64) -> ServeSchedule {
        ServeSchedule {
            specs: vec![smoke_spec(5)],
            arrivals: (0..n).map(|_| Arrival { due_ns, spec: 0 }).collect(),
        }
    }

    #[test]
    fn latency_runs_from_the_due_time() {
        // Every request is due at once but only two connections serve
        // them: later requests wait, and that wait is their latency.
        let schedule = burst(12, 0);
        let (bodies, reference) = references(&schedule).expect("reference");
        let mut node = Node::start().expect("node");
        let mut out = Outcome::default();
        let r = open_loop(&mut node, &schedule, &bodies, &reference, false, &mut out);
        node.stop();
        assert_eq!(out.failed, 0);
        let mut lat: Vec<f64> = r.fates.iter().map(|f| f.latency_ms).collect();
        lat.sort_by(f64::total_cmp);
        let late = r.fates.iter().map(|f| f.late_ms).fold(0.0, f64::max);
        // The last request was sent late, and its latency includes that.
        assert!(late > 0.0);
        assert!(lat[11] >= late);
    }

    #[test]
    fn a_wrong_result_counts_as_failed_and_infinitely_late() {
        let schedule = burst(3, 0);
        let (bodies, mut reference) = references(&schedule).expect("reference");
        reference[0] ^= 1; // the served result can no longer match
        let mut node = Node::start().expect("node");
        let mut out = Outcome::default();
        let r = open_loop(&mut node, &schedule, &bodies, &reference, false, &mut out);
        node.stop();
        assert_eq!(out.failed, 3);
        assert!(r.fates.iter().all(|f| f.latency_ms == f64::INFINITY));
        let lat: Vec<f64> = r.fates.iter().map(|f| f.latency_ms).collect();
        assert_eq!(crate::stats::tail(&lat, 99.0).value, f64::INFINITY);
    }
}
