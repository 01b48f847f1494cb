//! # intang-telemetry
//!
//! The reproduction's stand-in for INTANG's **measurement module** (§6):
//! the real daemon logs every connection's strategy, outcome and failure
//! cause to a local store and reports upstream — that pipeline is how the
//! paper's Table 5/6 success rates and the §5 failure-vector analysis were
//! produced at all. This crate provides the same capability for the
//! simulated system, as three pieces:
//!
//! * [`metrics`] — an allocation-free [`MetricsSheet`]: fixed-slot counters
//!   and log₂ histograms with named instruments for every hot path (GFW
//!   resets by type, censor TCB lifecycle, blacklist activity, DPI bytes
//!   scanned, netsim events/drops/TTL expiries, per-strategy trial
//!   outcomes). Each sweep worker owns a shard; shards merge
//!   deterministically in cell-index order, so parallel metrics are
//!   byte-identical to a serial run.
//! * [`merge`] — the streaming in-order merge ([`OrderedFold`]): sweep
//!   workers retire per-cell results in stealing order, the fold observes
//!   them in cell-index order, and only the out-of-order reorder window is
//!   ever buffered (constant memory in the sweep size).
//! * [`diagnose`] — the §3.4 outcome taxonomy ([`TrialOutcome`], with the
//!   one definition every HTTP fetch maps through) and the per-trial
//!   failure-diagnosis pass: classifies every unsuccessful trial into one
//!   of the paper's §5 failure vectors from the trial's counters.
//! * [`json`] — a minimal JSONL writer (std-only; the build environment has
//!   no registry access) used to export metrics snapshots and diagnosis
//!   records.
//! * [`series`] — deterministic, sim-time-driven gauge time-series with
//!   log₂ down-compaction (constant memory), merged in cell-index order
//!   like the metrics sheet.
//! * [`spans`] — a scoped span profiler over the monotonic clock with
//!   fixed subsystem buckets and folded-stack export (diagnostics only;
//!   wall-clock, never part of experiment output).
//! * [`knobs`] — [`RunKnobs`], the one per-thread value holding every
//!   run switch (flight, series, spans, simcheck), read once from
//!   the environment and installed in every executor worker.
//!
//! The crate depends on nothing, so every layer — netsim, gfw, middlebox,
//! tcpstack, core, experiments, bench — can write into the same sheet.

#[cfg(feature = "alloc-count")]
pub mod alloc;
pub mod diagnose;
pub mod json;
pub mod knobs;
pub mod merge;
pub mod metrics;
pub mod series;
pub mod spans;

pub use diagnose::{classify, FailureVector, TrialEvidence, TrialOutcome};
pub use knobs::RunKnobs;
pub use merge::OrderedFold;
pub use metrics::{Counter, HistId, Histogram, MetricsSheet};
pub use series::{GaugeId, GaugeSample, GaugeSeries, SeriesSheet};
pub use spans::{span, SpanGuard, SpanId, SpanSheet};

/// Schema version stamped on every exported JSONL record (`metrics`,
/// `diagnosis`, `series`). Bumped whenever a record's shape changes;
/// records written before the field existed are implicitly version 1.
pub const SCHEMA_VERSION: u64 = 2;
