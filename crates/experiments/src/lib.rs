//! # intang-experiments
//!
//! Scenario construction and trial execution for every table and figure in
//! the paper's evaluation:
//!
//! * [`scenario`] — the 11 Chinese vantage points (Table 2 middlebox
//!   profiles, ISPs, Tor-filtering geography) and deterministic synthetic
//!   website populations standing in for the Alexa-derived 77-site /
//!   33-site datasets;
//! * [`trial`] — assembles one client→middleboxes→GFW→server simulation,
//!   runs a fetch, and classifies the outcome with the paper's
//!   Success / Failure 1 / Failure 2 taxonomy (§3.4);
//! * [`executor`] — the one work-stealing executor every parallel loop
//!   (sweep cells, metropolis domains, Table 6 vantage points) runs on;
//! * [`runner`] — repeated-trial sweeps with per-strategy aggregation and
//!   min/max/avg across vantage points (Table 4's presentation);
//! * [`report`] — text/markdown table rendering;
//! * [`telemetry`] — JSONL export (`--telemetry PATH`) of
//!   each sweep's merged metrics sheet and per-trial §5 failure diagnoses.
//!
//! The binaries (`table1` … `table6`, `hypotheses`, `figures`, `tor_vpn`,
//! `reset_fingerprint`, `all`) regenerate each artifact.

pub mod args;
pub mod executor;
pub mod metropolis;
pub mod progress;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod simcheck;
pub mod tap;
pub mod telemetry;
pub mod trial;
pub mod trial_dns;
pub mod trial_tor;

pub use runner::{Aggregate, SweepConfig};
pub use scenario::{Scenario, VantagePoint, Website};
pub use trial::{run_http_trial, Outcome, TrialSpec};

pub mod exps;
