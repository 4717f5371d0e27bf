//! Boundary fuzz of every POST body: a seeded loop sends arbitrary
//! bytes and near-valid mutations of real request bodies to each POST
//! route of a pull-only node. Bad input must come back as a 4xx (or a
//! 503 once the queue is full) — never a 500, never a dropped
//! connection — and the node must stay healthy afterwards.

use ahn_serve::http::read_response;
use ahn_serve::loadtest::{one_shot, smoke_spec};
use ahn_serve::protocol::{ClaimRequest, WorkCompletion};
use ahn_serve::server::{spawn, ServerConfig};
use rand::{Rng, SeedableRng};
use std::io::{BufReader, Write};
use std::net::TcpStream;

/// Every POST route except `/v1/shutdown`.
const ROUTES: [&str; 5] = [
    "/v1/experiments",
    "/v1/sweeps",
    "/v1/calibrations",
    "/v1/work/claim",
    "/v1/work/complete",
];

/// Tokens spliced into bodies: JSON structure and type confusion.
const TOKENS: [&str; 11] = [
    "null", "[]", "{}", "\"", ",", "}", "]", ":", "\"x\"", "true", "\\u0000",
];

/// Numbers swapped in for numbers: zero, signs, fractions, a float that
/// overflows to infinity and integers at and past the `u64` limit.
const NUMBERS: [&str; 10] = [
    "0",
    "1",
    "2",
    "-1",
    "0.5",
    "1e308",
    "1e400",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
];

/// Posts raw bytes (not necessarily UTF-8) and returns the status.
fn post_bytes(addr: &str, path: &str, body: &[u8]) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: fuzz\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("send head");
    stream.write_all(body).expect("send body");
    let (status, _) = read_response(&mut BufReader::new(stream))
        .unwrap_or_else(|e| panic!("{path} dropped the connection: {e}"));
    status
}

/// Real bodies for each route, serialized from the wire types; the
/// first is the job the completion settles.
fn seeds() -> Vec<(&'static str, String)> {
    let spec = smoke_spec(1);
    let key = spec.cache_key().unwrap();
    let mut base = ahn_core::ExperimentConfig::smoke();
    base.generations = 2;
    base.replications = 1;
    let sweep = ahn_core::SweepGrid {
        base,
        scenarios: Some(vec!["slanderers".into()]),
        cases: vec![1],
        payoffs: vec!["paper".into()],
        sizes: vec![10],
        seed_blocks: vec![0],
    };
    let claim = ClaimRequest {
        lease_ms: Some(1_000),
        breaker_trips: Some(1),
        backoff_ms: Some(2),
    };
    let completion = WorkCompletion {
        lease_id: 1,
        job_id: 1,
        key,
        result: Some("[]".into()),
        error: None,
        trace_id: Some(3),
        compute_us: Some(4),
    };
    let grid = ahn_core::CalibrationGrid::smoke();
    vec![
        ("/v1/experiments", serde_json::to_string(&spec).unwrap()),
        (
            "/v1/experiments",
            "{\"Preset\":{\"name\":\"ipdrp\"}}".into(),
        ),
        ("/v1/sweeps", serde_json::to_string(&sweep).unwrap()),
        ("/v1/calibrations", serde_json::to_string(&grid).unwrap()),
        ("/v1/work/claim", serde_json::to_string(&claim).unwrap()),
        (
            "/v1/work/complete",
            serde_json::to_string(&completion).unwrap(),
        ),
    ]
}

/// One near-valid mutation of `body`.
fn mutate(rng: &mut impl Rng, body: &[u8]) -> Vec<u8> {
    let mut out = body.to_vec();
    let at = rng.gen_range(0..=out.len());
    match rng.gen_range(0..6) {
        // Flip one byte to anything, UTF-8 or not.
        0 if !out.is_empty() => {
            let i = rng.gen_range(0..out.len());
            out[i] = rng.gen();
        }
        // Truncate.
        1 => out.truncate(at),
        // Delete a span.
        2 => {
            let end = (at + rng.gen_range(1..16usize)).min(out.len());
            out.drain(at..end);
        }
        // Duplicate a span.
        3 => {
            let end = (at + rng.gen_range(1..32usize)).min(out.len());
            let span = out[at..end].to_vec();
            out.splice(at..at, span);
        }
        // Swap a number for an edge value, keeping the JSON valid.
        4 => {
            let digits: Vec<usize> = (0..out.len())
                .filter(|&i| out[i].is_ascii_digit())
                .collect();
            if !digits.is_empty() {
                let start = digits[rng.gen_range(0..digits.len())];
                let end = (start..out.len())
                    .find(|&i| !out[i].is_ascii_digit())
                    .unwrap_or(out.len());
                let number = NUMBERS[rng.gen_range(0..NUMBERS.len())].as_bytes();
                out.splice(start..end, number.iter().copied());
            }
        }
        // Splice in a token.
        _ => {
            let token = TOKENS[rng.gen_range(0..TOKENS.len())].as_bytes();
            out.splice(at..at, token.iter().copied());
        }
    }
    out
}

#[test]
fn every_post_body_answers_4xx_or_success_never_500() {
    let handle = spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 0,
        queue_cap: 16,
        drain_ms: 0,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.addr().to_string();
    let seeds = seeds();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xB0D1);
    // Job 1 is the completion seed's job, so intact completions settle.
    assert_eq!(post_bytes(&addr, seeds[0].0, seeds[0].1.as_bytes()), 202);
    let mut answered = std::collections::BTreeSet::new();

    for round in 0..3_000 {
        let (route, body) = match rng.gen_range(0..4) {
            // Arbitrary bytes to any route.
            0 => {
                let len = rng.gen_range(0..64);
                let bytes: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                (ROUTES[rng.gen_range(0..ROUTES.len())], bytes)
            }
            // Another route's real body: valid JSON of the wrong type.
            1 => {
                let (_, seed) = &seeds[rng.gen_range(0..seeds.len())];
                let route = ROUTES[rng.gen_range(0..ROUTES.len())];
                (route, seed.as_bytes().to_vec())
            }
            // One to three mutations of the route's own body.
            _ => {
                let (route, seed) = &seeds[rng.gen_range(0..seeds.len())];
                let mut body = seed.as_bytes().to_vec();
                for _ in 0..rng.gen_range(1..4) {
                    body = mutate(&mut rng, &body);
                }
                (*route, body)
            }
        };
        let status = post_bytes(&addr, route, &body);
        answered.insert((route, status == 400));
        assert!(
            matches!(status, 200 | 202 | 400 | 404 | 503),
            "round {round}: {route} answered {status} to {:?}",
            String::from_utf8_lossy(&body)
        );
    }

    // Each route both rejected input and got past its decoder.
    assert_eq!(answered.len(), 2 * ROUTES.len(), "{answered:?}");
    let (status, body) = one_shot(&addr, "GET", "/healthz", "").expect("healthz");
    assert_eq!((status, body.as_str()), (200, "{\"status\":\"ok\"}"));
    handle.shutdown();
}
