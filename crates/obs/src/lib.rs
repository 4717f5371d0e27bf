//! `ahn_obs` — std-only observability for the workspace: latency
//! histograms, cross-node trace spans, and zero-cost hot-path
//! profiling hooks.
//!
//! Four pieces, each usable alone:
//!
//! * [`hist`] — [`AtomicHistogram`], a lock-free log2-bucketed
//!   histogram (64 relaxed `AtomicU64` buckets, zero allocation on the
//!   record path) with deterministic merge and p50/p90/p99/max
//!   readout. Backs the `/metrics` `ahn-serve-metrics/2` distribution
//!   blocks, the worker exit summary and the loadtest percentiles.
//! * [`trace`] — [`TraceLog`], a checksummed JSON-lines span log, plus
//!   [`join_traces`]/[`render_tree`], which reconstruct one cell's
//!   cross-node lifecycle (submit → enqueue → lease → compute →
//!   complete → merge) from any set of server/worker/coordinator log
//!   files and flag orphaned spans.
//! * [`checksum`] — the stable FNV-1a and SplitMix64 hashes and the
//!   `<fnv1a-64 hex> <compact JSON>` checksummed line, shared by the
//!   canonical config hash, the completion journal and the span log.
//! * [`recorder`] — the [`Recorder`] trait the experiment hot loop is
//!   generic over. The [`NoopRecorder`] default compiles to nothing
//!   (the zero-cost-when-off invariant, pinned by `tests/zero_alloc.rs`
//!   and the BENCH gate); [`SeriesRecorder`] captures per-generation
//!   cooperation + schedule/play/evolve timings for the trace log.
//!
//! Nothing in this crate touches seeded RNG streams or simulated
//! state: observability on or off, results are bit-identical.

#![deny(missing_docs)]

pub mod checksum;
pub mod hist;
pub mod recorder;
pub mod trace;

pub use hist::{bucket_bound, AtomicHistogram, BucketCount, HistogramSnapshot, BUCKETS};
pub use recorder::{GenSample, NoopRecorder, Phase, Recorder, SeriesRecorder};
pub use trace::{
    decode_event, encode_event, join_traces, read_trace, render_tree, trace_id_of_key, CellTrace,
    TraceEvent, TraceLog, TraceRead, TraceTree,
};
