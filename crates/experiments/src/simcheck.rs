//! The simcheck minimal-repro shrinker.
//!
//! When a sweep trial trips a runtime invariant (see `intang-simcheck`),
//! the runner hands the trial's identity and the recorded violations to
//! [`shrink`], which:
//!
//! 1. replays the trial in isolation at the full horizon (fresh adaptive
//!    history) to confirm it reproduces outside the sweep;
//! 2. bisects the event horizon down to the smallest prefix of simulated
//!    time that still violates;
//! 3. greedily drops fault-plan components ([`FaultPlan::shrink_candidates`])
//!    that the violation does not depend on;
//! 4. re-runs the minimal trial with packet tracing enabled and writes a
//!    repro artifact — seed, spec, violations, causal packet lineage and
//!    replay instructions — under `.simcheck/` (or `INTANG_SIMCHECK_DIR`).
//!
//! Every replay is seed-deterministic and the artifact contains no
//! timestamps, so shrinking the same violation twice produces the same
//! bytes — the artifact itself is a regression test.

use crate::trial::{build_http_sim, classify, drive_http_trial, TrialSpec, DEFAULT_HORIZON};
use intang_core::select::History;
use intang_faults::FaultPlan;
use intang_netsim::{Instant, Simulation};
use intang_simcheck::Violation;
use std::cell::RefCell;
use std::ffi::OsString;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::rc::Rc;

/// What the shrinker concluded.
#[derive(Debug)]
pub struct ShrinkReport {
    pub seed: u64,
    /// Did the violation reproduce in an isolated replay? (Adaptive-mode
    /// trials depend on cell-accumulated history and may not.)
    pub reproducible: bool,
    /// Smallest horizon that still violates (full horizon if not shrunk).
    pub horizon: Instant,
    /// Fault-plan components the violation did not depend on, in drop order.
    pub dropped: Vec<&'static str>,
    /// Violations observed in the minimal replay (or the sweep-time ones
    /// when not reproducible).
    pub violations: Vec<Violation>,
    /// Path of the written repro artifact, if the filesystem cooperated.
    pub artifact: Option<PathBuf>,
}

/// Bisection grain: horizons closer than this (simulated µs) are not worth
/// distinguishing — 8 replays get from 25 s down to ~0.1 s resolution.
const HORIZON_GRAIN: u64 = 100_000;

/// Artifact directory: `INTANG_SIMCHECK_DIR` or `.simcheck`.
pub fn artifact_dir() -> PathBuf {
    dir_or_default(std::env::var_os("INTANG_SIMCHECK_DIR"))
}

/// `dir` when it is set and not empty, else `.simcheck`. A path may hold
/// any bytes, so a value that is not UTF-8 is kept as given.
fn dir_or_default(dir: Option<OsString>) -> PathBuf {
    dir.filter(|d| !d.is_empty())
        .map_or_else(|| PathBuf::from(".simcheck"), PathBuf::from)
}

/// What one isolated replay observed: the violations it produced and —
/// when `trace` is on — the causal lineage of the final trace event plus
/// the flight recorder's dump of the most recent dispatched events.
struct Replay {
    violations: Vec<Violation>,
    lineage: Option<String>,
    flight: Option<String>,
}

/// Replay the trial `input` once at `horizon` with `faults`.
fn replay(input: &TrialSpec<'_>, horizon: Instant, faults: &Option<FaultPlan>, trace: bool) -> Replay {
    // The traced (final) replay also forces the flight recorder on, so the
    // artifact can show the event tail even when simcheck alone would not
    // have recorded one on this thread.
    let prev_flight = trace.then(|| intang_netsim::flight::set_thread(Some(true)));
    intang_simcheck::begin_trial(input.seed);
    let _ = intang_simcheck::take_violations();
    let spec = TrialSpec {
        // Isolated replays cannot reconstruct the cell's accumulated
        // adaptive history; a fresh one is the reproducible approximation.
        history: input.strategy.is_none().then(|| Rc::new(RefCell::new(History::new()))),
        faults: faults.clone(),
        horizon,
        ..*input
    };
    let (mut sim, parts) = build_http_sim(&spec);
    if trace {
        sim.trace.enable();
    }
    drive_http_trial(&mut sim, &parts, &spec);
    // classify() exports metrics, which runs the conservation reconcile —
    // violations from that family surface here, not during the drive.
    let _ = classify(&sim, &parts, &spec);
    let violations = intang_simcheck::take_violations();
    let lineage = trace.then(|| render_tail_lineage(&sim));
    let flight = sim.flight_dump().filter(|_| trace);
    if let Some(prev) = prev_flight {
        intang_netsim::flight::set_thread(prev);
    }
    Replay {
        violations,
        lineage,
        flight,
    }
}

fn render_tail_lineage(sim: &Simulation) -> String {
    match sim.trace.events().last() {
        Some(e) => sim.trace.render_lineage(e.id),
        None => "(no trace events recorded)\n".to_string(),
    }
}

/// Shrink a violating trial, given exactly as the sweep runner built it,
/// to a minimal repro and write the artifact.
///
/// `sweep_violations` are the violations the runner drained from the
/// original (in-sweep) run; they are recorded verbatim when the trial does
/// not reproduce in isolation.
pub fn shrink(input: &TrialSpec<'_>, sweep_violations: &[Violation], out_dir: &Path) -> ShrinkReport {
    // 1. Reproduce in isolation at the full horizon.
    let repro = replay(input, DEFAULT_HORIZON, &input.faults, false);
    if repro.violations.is_empty() {
        let report = ShrinkReport {
            seed: input.seed,
            reproducible: false,
            horizon: DEFAULT_HORIZON,
            dropped: Vec::new(),
            violations: sweep_violations.to_vec(),
            artifact: None,
        };
        let artifact = write_artifact(
            input,
            &report,
            &input.faults,
            "(not reproducible in isolation; no lineage)\n",
            None,
            out_dir,
        );
        return ShrinkReport { artifact, ..report };
    }

    // 2. Bisect the smallest violating horizon. Invariant: `hi` violates,
    // `lo` does not (an empty prefix trivially cannot).
    let mut lo = 0u64;
    let mut hi = DEFAULT_HORIZON.0;
    while hi - lo > HORIZON_GRAIN {
        let mid = lo + (hi - lo) / 2;
        if replay(input, Instant(mid), &input.faults, false).violations.is_empty() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let horizon = Instant(hi);

    // 3. Greedily drop fault-plan components the violation survives without.
    let mut faults = input.faults.clone();
    let mut dropped = Vec::new();
    if faults.is_some() && !replay(input, horizon, &None, false).violations.is_empty() {
        faults = None;
        dropped.push("entire-fault-plan");
    }
    if let Some(mut plan) = faults.take() {
        loop {
            let mut next = None;
            for (label, candidate) in plan.shrink_candidates() {
                let cand = Some(candidate.clone());
                if !replay(input, horizon, &cand, false).violations.is_empty() {
                    next = Some((label, candidate));
                    break;
                }
            }
            match next {
                Some((label, candidate)) => {
                    dropped.push(label);
                    plan = candidate;
                }
                None => break,
            }
        }
        faults = Some(plan);
    }

    // 4. Final traced replay of the minimal configuration.
    let last = replay(input, horizon, &faults, true);
    let report = ShrinkReport {
        seed: input.seed,
        reproducible: true,
        horizon,
        dropped,
        violations: last.violations,
        artifact: None,
    };
    let artifact = write_artifact(
        input,
        &report,
        &faults,
        last.lineage.as_deref().unwrap_or(""),
        last.flight.as_deref(),
        out_dir,
    );
    ShrinkReport { artifact, ..report }
}

/// Render and write the repro artifact; `None` if the filesystem refuses.
fn write_artifact(
    input: &TrialSpec<'_>,
    report: &ShrinkReport,
    minimal_faults: &Option<FaultPlan>,
    lineage: &str,
    flight: Option<&str>,
    out_dir: &Path,
) -> Option<PathBuf> {
    let text = render_artifact(input, report, minimal_faults, lineage, flight);
    std::fs::create_dir_all(out_dir).ok()?;
    let path = out_dir.join(format!("repro_{:016x}.txt", input.seed));
    let mut f = std::fs::File::create(&path).ok()?;
    f.write_all(text.as_bytes()).ok()?;
    Some(path)
}

fn render_artifact(
    input: &TrialSpec<'_>,
    report: &ShrinkReport,
    minimal_faults: &Option<FaultPlan>,
    lineage: &str,
    flight: Option<&str>,
) -> String {
    let mut out = String::new();
    out.push_str("simcheck minimal repro\n");
    out.push_str("======================\n\n");
    out.push_str(&format!("seed:              {:#018x} ({})\n", input.seed, input.seed));
    out.push_str(&format!("vantage point:     {}\n", input.vp.name));
    out.push_str(&format!("site:              {}\n", input.site.name));
    out.push_str(&format!(
        "strategy:          {}\n",
        input.strategy.map_or_else(|| "adaptive".to_string(), |s| format!("{s:?}"))
    ));
    out.push_str(&format!("keyword:           {}\n", input.keyword));
    out.push_str(&format!("redundancy:        {}\n", input.redundancy));
    out.push_str(&format!("route_change_prob: {}\n", input.route_change_prob));
    out.push_str(&format!("reproducible:      {}\n", report.reproducible));
    out.push_str(&format!(
        "horizon:           {} µs (full: {} µs)\n",
        report.horizon.0, DEFAULT_HORIZON.0
    ));
    if report.dropped.is_empty() {
        out.push_str("dropped faults:    (none)\n");
    } else {
        out.push_str(&format!("dropped faults:    {}\n", report.dropped.join(", ")));
    }
    match minimal_faults {
        Some(plan) => out.push_str(&format!("minimal faults:    {plan:?}\n")),
        None => out.push_str("minimal faults:    (none)\n"),
    }
    out.push_str(&format!("\nviolations ({}):\n", report.violations.len()));
    for v in &report.violations {
        out.push_str(&format!("  {v}\n"));
    }
    out.push_str("\nlineage of the final trace event:\n");
    for line in lineage.lines() {
        out.push_str(&format!("  {line}\n"));
    }
    if let Some(flight) = flight {
        out.push_str("\nflight recorder (most recent dispatched events, oldest first):\n");
        for line in flight.lines() {
            out.push_str(&format!("  {line}\n"));
        }
    }
    out.push_str(
        "\nreplay:\n  Build a TrialSpec::new(vp, site, strategy, keyword, seed) with the\n  \
         horizon above, set INTANG_SIMCHECK=1 (or simcheck::set_thread) before\n  \
         constructing the simulation, and run run_http_trial. See\n  \
         EXPERIMENTS.md § Simcheck for a worked example.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use intang_core::StrategyKind;

    #[test]
    fn artifact_dir_defaults() {
        // Avoid set_var races: only assert the fallback shape.
        let d = artifact_dir();
        assert!(d == Path::new(".simcheck") || !d.as_os_str().is_empty());
    }

    #[test]
    fn artifact_dir_keeps_a_path_that_is_not_utf8() {
        use std::ffi::OsStr;
        use std::os::unix::ffi::OsStrExt;
        let raw = OsStr::from_bytes(b"repro-\xff");
        assert_eq!(dir_or_default(Some(raw.to_os_string())), Path::new(raw));
        assert_eq!(dir_or_default(Some(OsString::new())), Path::new(".simcheck"));
        assert_eq!(dir_or_default(None), Path::new(".simcheck"));
    }

    #[test]
    fn clean_trial_shrinks_to_nothing() {
        // A violation-free trial must never reach shrink() in production;
        // if it does, the report says "not reproducible" and keeps the
        // sweep-time violations verbatim.
        let prev = intang_simcheck::set_thread(Some(true));
        let s = Scenario::smoke(2017);
        let mut input = TrialSpec::new(&s.vantage_points[0], &s.websites[0], Some(StrategyKind::NoStrategy), false, 41);
        input.route_change_prob = 0.0;
        let dir = std::env::temp_dir().join("intang-simcheck-test-clean");
        let report = shrink(&input, &[], &dir);
        assert!(!report.reproducible);
        assert!(report.violations.is_empty());
        intang_simcheck::set_thread(prev);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
