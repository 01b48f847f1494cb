//! JSONL telemetry export for the experiment binaries.
//!
//! When a binary is run with `--telemetry out.jsonl` every sweep it
//! executes appends two kinds of records to the file:
//!
//! * one `metrics` record — the sweep's merged [`MetricsSheet`] snapshot
//!   (non-zero counters, histograms, per-strategy outcome grid),
//! * one `diagnosis` record per unsuccessful trial, carrying the trial's
//!   identity and its §5 failure vector, and
//! * one `series` record per gauge when gauge time-series sampling was
//!   enabled (`INTANG_SERIES=1`), carrying the sweep's merged series.
//!
//! Records are self-describing (`"record": "metrics" | "diagnosis" |
//! "series"`) and every record carries the writer's `schema_version`
//! ([`intang_telemetry::SCHEMA_VERSION`]) so a single file can interleave
//! sweeps from several experiments and still be parsed later.

use crate::args::CommonArgs;
use crate::runner::SweepRun;
use crate::trial::Outcome;
use intang_telemetry::json::{u64_array, JsonObject, JsonlWriter};
use intang_telemetry::metrics::STRATEGY_SLOTS;
use intang_telemetry::MetricsSheet;
use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::sync::{Mutex, OnceLock};

/// Paths already opened by this process. The first open of a path
/// truncates; later opens append, so a multi-experiment binary (`all`)
/// whose sub-experiments each build their own sink against the same
/// `--telemetry` path accumulates all their records instead of each
/// sub-experiment wiping out the previous one's output.
fn opened_paths() -> &'static Mutex<HashSet<String>> {
    static PATHS: OnceLock<Mutex<HashSet<String>>> = OnceLock::new();
    PATHS.get_or_init(|| Mutex::new(HashSet::new()))
}

/// A JSONL telemetry sink shared by one binary invocation.
pub struct TelemetrySink {
    w: JsonlWriter<Box<dyn Write>>,
}

impl TelemetrySink {
    /// Open `path` for writing — truncating on the first open within this
    /// process, appending on subsequent opens of the same path.
    pub fn create(path: &str) -> io::Result<TelemetrySink> {
        let first = opened_paths().lock().unwrap().insert(path.to_string());
        let file = if first {
            File::create(path)?
        } else {
            OpenOptions::new().append(true).open(path)?
        };
        Ok(TelemetrySink::from_writer(Box::new(BufWriter::new(file))))
    }

    /// Wrap an arbitrary writer (tests use an in-memory buffer).
    pub fn from_writer(w: Box<dyn Write>) -> TelemetrySink {
        TelemetrySink { w: JsonlWriter::new(w) }
    }

    /// Sink for the parsed `--telemetry` setting;
    /// `None` when telemetry is off. A path that cannot be opened is a
    /// hard error — silently dropping requested telemetry would be worse —
    /// but it is reported as a usage error (status 2), not a panic.
    pub fn from_args(args: &CommonArgs) -> Option<TelemetrySink> {
        args.telemetry.as_deref().map(|path| match TelemetrySink::create(path) {
            Ok(sink) => sink,
            Err(e) => {
                eprintln!("error: cannot open telemetry file {path:?}: {e}");
                eprintln!("hint: check that the parent directory exists and is writable,\n      or drop --telemetry to disable telemetry");
                std::process::exit(2);
            }
        })
    }

    /// Record one finished sweep: its metrics snapshot, then one diagnosis
    /// per unsuccessful trial.
    pub fn record_sweep(&mut self, experiment: &str, sweep: &str, run: &SweepRun) -> io::Result<()> {
        let mut o = JsonObject::new();
        o.str("record", "metrics")
            .u64("schema_version", intang_telemetry::SCHEMA_VERSION)
            .str("experiment", experiment)
            .str("sweep", sweep)
            .u64("trials", run.trials)
            .u64("events", run.events)
            .raw("counters", &render_counters(&run.metrics))
            .raw("hists", &render_hists(&run.metrics))
            .raw("strategy_outcomes", &render_strategy_outcomes(&run.metrics));
        self.w.record(&o.finish())?;

        for d in &run.diagnoses {
            let outcome = match d.outcome {
                Outcome::Success => "success",
                Outcome::Failure1 => "failure1",
                Outcome::Failure2 => "failure2",
            };
            let mut o = JsonObject::new();
            o.str("record", "diagnosis")
                .u64("schema_version", intang_telemetry::SCHEMA_VERSION)
                .str("experiment", experiment)
                .str("sweep", sweep)
                .str("vp", &d.vp)
                .str("site", &d.site)
                .u64("trial", u64::from(d.trial))
                .u64("seed", d.seed)
                .str("outcome", outcome)
                .str("vector", d.vector.name())
                .u64("resets_seen", d.resets_seen);
            self.w.record(&o.finish())?;
        }

        if let Some(series) = &run.series {
            for id in intang_telemetry::GaugeId::ALL {
                let s = series.series(id);
                if s.is_empty() {
                    continue;
                }
                let mut o = JsonObject::new();
                o.str("record", "series")
                    .u64("schema_version", intang_telemetry::SCHEMA_VERSION)
                    .str("experiment", experiment)
                    .str("sweep", sweep)
                    .str("gauge", id.name())
                    .raw("series", &s.to_json());
                self.w.record(&o.finish())?;
            }
        }
        self.w.flush()
    }
}

fn render_counters(m: &MetricsSheet) -> String {
    let mut o = JsonObject::new();
    for (c, v) in m.nonzero_counters() {
        o.u64(c.name(), v);
    }
    o.finish()
}

fn render_hists(m: &MetricsSheet) -> String {
    let mut o = JsonObject::new();
    for (h, hist) in m.nonzero_hists() {
        let mut inner = JsonObject::new();
        inner
            .u64("count", hist.count)
            .u64("sum", hist.sum)
            .f64("mean", hist.mean())
            .raw("log2_buckets", &u64_array(&hist.buckets));
        o.raw(h.name(), &inner.finish());
    }
    o.finish()
}

/// The strategy × outcome grid, keyed by slot index, skipping all-zero
/// slots. Slot 20 is the adaptive engine; 0–19 are `StrategyId`s.
fn render_strategy_outcomes(m: &MetricsSheet) -> String {
    let mut o = JsonObject::new();
    for slot in 0..STRATEGY_SLOTS {
        let row = m.strategy_outcomes(slot);
        if row.iter().any(|&v| v > 0) {
            let mut inner = JsonObject::new();
            inner.u64("success", row[0]).u64("failure1", row[1]).u64("failure2", row[2]);
            o.raw(&slot.to_string(), &inner.finish());
        }
    }
    o.finish()
}
