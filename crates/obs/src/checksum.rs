//! Stable hashes and checksummed JSON lines, shared by the canonical
//! config hash (`ahn_core::canonical_hash`), the completion journal
//! (`ahn_serve::journal`), the fault harness and the span log
//! ([`crate::trace`]).
//!
//! A checksummed line is
//!
//! ```text
//! <fnv1a-64 hex checksum> <compact JSON>
//! ```
//!
//! The checksum covers the JSON payload bytes, so every line verifies on
//! its own and a torn write corrupts at most the line it hit. What a
//! reader does with a bad line is its own policy: the journal cuts the
//! file there, the trace reader skips the line.

use serde::{de::DeserializeOwned, Serialize};

/// FNV-1a, 64-bit: the standard offset basis and prime. A pure function
/// of the bytes (no per-process seed), so it can key caches and files
/// across processes and restarts.
#[inline]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// SplitMix64: one multiply-xor-shift chain per draw. Statistically
/// plenty for failure schedules, backoff jitter and id minting, and
/// dependency-free.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Encodes `value` as one checksummed line, terminator included.
pub fn encode_line<T: Serialize + ?Sized>(value: &T) -> Result<String, serde_json::Error> {
    let payload = serde_json::to_string(value)?;
    Ok(format!("{:016x} {payload}\n", fnv1a_64(payload.as_bytes())))
}

/// Decodes one checksummed line (without its terminator); `None` marks
/// a torn or corrupted record.
pub fn decode_line<T: DeserializeOwned>(line: &str) -> Option<T> {
    let (checksum_hex, payload) = line.split_once(' ')?;
    if checksum_hex.len() != 16 {
        return None;
    }
    let checksum = u64::from_str_radix(checksum_hex, 16).ok()?;
    if checksum != fnv1a_64(payload.as_bytes()) {
        return None;
    }
    serde_json::from_str(payload).ok()
}
