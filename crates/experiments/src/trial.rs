//! One HTTP measurement trial: build the Fig. 1 threat-model path
//! ([`crate::path`]), fetch a page, classify the outcome.

use crate::path::{build_path, PathSpec, Server, ServerBox};
use crate::scenario::{VantagePoint, Website};
use intang_apps::http::{HttpClientDriver, HttpServerDriver};
use intang_core::select::History;
use intang_core::{IntangConfig, StrategyKind};
use intang_faults::FaultPlan;
use intang_gfw::GfwHandle;
use intang_middlebox::FilterSpec;
use intang_netsim::{Duration, Instant, Link, Simulation};
use intang_packet::http::HttpRequest;
use intang_telemetry::metrics::{ADAPTIVE_SLOT, OUTCOME_FAILURE1, OUTCOME_FAILURE2, OUTCOME_SUCCESS};
use intang_telemetry::{span, Counter, FailureVector, HistId, MetricsSheet, SeriesSheet, SpanId, TrialEvidence};
use std::cell::RefCell;
use std::rc::Rc;

/// Per-shard memo of encoded GET requests: a sweep re-runs the same
/// `(target, host)` pairs thousands of times, and the encoded bytes are
/// what every trial actually needs — build each once per thread.
fn encoded_request(target: &str, host: &str) -> Rc<Vec<u8>> {
    type RequestCache = Vec<((String, String), Rc<Vec<u8>>)>;
    thread_local! {
        static CACHE: RefCell<RequestCache> = const { RefCell::new(Vec::new()) };
    }
    CACHE.with(|c| {
        let mut cache = c.borrow_mut();
        if let Some((_, bytes)) = cache.iter().find(|((t, h), _)| t == target && h == host) {
            return bytes.clone();
        }
        let bytes = Rc::new(HttpRequest::get(target, host).encode());
        cache.push(((target.to_string(), host.to_string()), bytes.clone()));
        bytes
    })
}

/// The paper's outcome taxonomy (§3.4): one type with telemetry's, so
/// trials, metropolis flows and the §5 diagnosis share one definition.
pub use intang_telemetry::TrialOutcome as Outcome;

/// Everything defining one trial.
pub struct TrialSpec<'a> {
    pub vp: &'a VantagePoint,
    pub site: &'a Website,
    /// Fixed strategy, or None for INTANG's adaptive selection.
    pub strategy: Option<StrategyKind>,
    /// Request carries the sensitive keyword (`ultrasurf`).
    pub keyword: bool,
    pub seed: u64,
    /// Insertion redundancy (§3.4 uses 3).
    pub redundancy: u32,
    /// Shared history for adaptive mode (persisted across trials).
    pub history: Option<Rc<RefCell<History>>>,
    /// Probability that the route mutates mid-trial (§3.4 network
    /// dynamics), invalidating the TTL measurement.
    pub route_change_prob: f64,
    /// δ subtracted from the hop estimate when scoping insertion TTLs
    /// (§7.1 heuristic; the ablations sweep it).
    pub delta: u8,
    /// Realized fault schedule for this trial (`None` = pristine path;
    /// an absent plan leaves the simulation byte-identical to a build
    /// without the fault layer).
    pub faults: Option<FaultPlan>,
    /// Event horizon: the trial runs until this simulated time. The
    /// simcheck shrinker bisects it downward to find the smallest horizon
    /// that still reproduces a violation.
    pub horizon: Instant,
    /// Pin the first ISN both stacks draw (wraparound property tests pin
    /// this near `u32::MAX`); `None` keeps the stacks' own counters.
    pub isn_base: Option<u32>,
}

impl<'a> TrialSpec<'a> {
    pub fn new(vp: &'a VantagePoint, site: &'a Website, strategy: Option<StrategyKind>, keyword: bool, seed: u64) -> Self {
        TrialSpec {
            vp,
            site,
            strategy,
            keyword,
            seed,
            redundancy: 3,
            history: None,
            route_change_prob: 0.12,
            delta: 2,
            faults: None,
            horizon: DEFAULT_HORIZON,
            isn_base: None,
        }
    }
}

/// Default trial horizon (25 simulated seconds).
pub const DEFAULT_HORIZON: Instant = Instant(25_000_000);

/// Detailed result of a trial.
#[derive(Debug)]
pub struct TrialResult {
    pub outcome: Outcome,
    pub response_status: Option<u16>,
    pub resets_seen: u64,
    pub gfw_detections: usize,
    pub strategy_used: Option<StrategyKind>,
    /// Simulation events processed during the trial (throughput metric).
    pub events: u64,
    /// Metrics exported from every element on the path after the run,
    /// plus the trial-outcome instruments.
    pub metrics: MetricsSheet,
    /// §5 failure vector for unsuccessful trials (`None` on success).
    pub failure_vector: Option<FailureVector>,
    /// Gauge time-series sampled on the sim-time cadence, present only
    /// when series telemetry was enabled (see [`intang_telemetry::series`]).
    pub series: Option<Box<SeriesSheet>>,
}

/// Assemble and run one HTTP fetch through the full path.
pub fn run_http_trial(spec: &TrialSpec<'_>) -> TrialResult {
    let _s = span(SpanId::Trial);
    let (mut sim, parts) = build_http_sim(spec);
    let (events, fault_flaps) = drive_http_trial(&mut sim, &parts, spec);
    let mut result = classify(&sim, &parts, spec);
    result.series = sim.take_series();
    result.events = events;
    result.metrics.observe(HistId::TrialEvents, events);
    if fault_flaps > 0 {
        result.metrics.add(Counter::FaultRouteFlaps, fault_flaps);
    }
    result
}

/// The live handles of an assembled trial (exposed so the figures, the
/// simcheck shrinker and tests can drive the trial themselves).
pub struct TrialParts {
    pub report: Rc<RefCell<intang_apps::http::HttpClientReport>>,
    pub intang: intang_core::IntangHandle,
    pub gfw_handles: Vec<GfwHandle>,
    /// Index of the final (post-censor) link — route dynamics target.
    pub last_link: usize,
    /// Index of the core (pre-censor) link — route dynamics target.
    pub core_link: usize,
}

/// Build the simulation for an HTTP trial without running it.
pub fn build_http_sim(spec: &TrialSpec<'_>) -> (Simulation, TrialParts) {
    let vp = spec.vp;
    let site = spec.site;
    let target = if spec.keyword { "/search?q=ultrasurf" } else { "/index.html" };
    let request = encoded_request(target, &site.name);
    let (client_driver, report) = HttpClientDriver::with_encoded(site.addr, 80, request);
    let mut intang = IntangConfig {
        strategy: spec.strategy,
        redundancy: spec.redundancy,
        delta: spec.delta,
        // §7.1: outside China the censor sits within a few hops of the
        // server; TTL scoping cannot win, so INTANG leans on the other
        // Table 5 discrepancies there.
        prefer_ttl: !vp.abroad,
        // A faulted trial runs the engine's robustness responses.
        robust: spec.faults.is_some(),
        ..IntangConfig::default()
    };
    if spec.strategy == Some(StrategyKind::NoStrategy) {
        // The baseline also skips measurement probes.
        intang.measure_hops = false;
    }
    let server_box = if site.server_hops < 2 {
        None
    } else if site.server_seqfw {
        Some(ServerBox::SeqFw {
            validates_checksum: site.seqfw_validates_checksum,
        })
    } else {
        site.server_conntrack.then_some(ServerBox::Conntrack)
    };
    let mut server_app = HttpServerDriver::new(80);
    if site.flaky_server {
        // TCP answers, the application never does (§3.4's background
        // Failure 1 noise).
        server_app = server_app.unresponsive();
    }
    // The one-way latency splits evenly either side of the censor.
    let half = Duration::from_millis(site.latency_ms / 2);
    let (sim, path) = build_path(PathSpec {
        vp,
        seed: spec.seed,
        client: ("client", Box::new(client_driver)),
        intang,
        history: spec.history.clone(),
        home_gateway: None,
        core: Link::new(half, site.core_hops).with_loss(site.loss),
        // No-flag droppers on the path (§3.4 calibration).
        midpath: Some(FilterSpec {
            drop_no_flag: if site.path_drops_noflag { 1.0 } else { 0.0 },
            ..FilterSpec::passes_everything()
        }),
        censors: site.gfw_configs(),
        server_box,
        server_link: Link::new(half, site.server_hops).with_loss(site.loss),
        server: Server {
            profile: site.server_profile,
            ..Server::linux("server", site.addr, 80, server_app)
        },
        faults: spec.faults.as_ref(),
    });
    path.server.with_tcp(|t| t.set_ip_overlap(site.server_ip_overlap));
    if let Some(base) = spec.isn_base {
        path.client.with_tcp(|t| t.set_isn_base(base));
        path.server.with_tcp(|t| t.set_isn_base(base));
    }
    let parts = TrialParts {
        report,
        intang: path.intang,
        gfw_handles: path.censors,
        last_link: path.last_link,
        core_link: path.core_link,
    };
    (sim, parts)
}

/// Run an assembled trial to its horizon without classifying, returning
/// `(events, fault_route_flaps)`. Exposed so the simcheck shrinker can
/// drive a traced replay and still hold the simulation (and its trace)
/// afterwards.
pub fn drive_http_trial(sim: &mut Simulation, parts: &TrialParts, spec: &TrialSpec<'_>) -> (u64, u64) {
    // Route dynamics (§3.4): between INTANG's hop measurement (~150 ms)
    // and the insertion packets (~300 ms) the route may change by a few
    // hops, on either side of the censor. A post-censor shrink makes the
    // scoped TTL reach the server (Failure 1); a pre-censor growth makes
    // it die before the censor (Failure 2).
    let mut events = 0;
    let route_changes = sim.rng.chance(spec.route_change_prob);
    if route_changes {
        // min() keeps a shrunken horizon a true truncation of the full
        // trial (a no-op at the default horizon).
        events += sim.run_until(Instant(160_000.min(spec.horizon.0)));
        let post_side = sim.rng.chance(0.6);
        // Post-censor changes stay small (1-2 hops): enough to expose a
        // server-side middlebox to TTL-scoped insertions without reaching
        // the server itself. Pre-censor growth can be larger and pushes the
        // censor out of the insertion's reach (Failure 2).
        let delta = if post_side { 1 } else { 1 + (sim.rng.next_u32() % 3) as u8 };
        let shrink = sim.rng.chance(if post_side { 0.65 } else { 0.5 });
        let idx = if post_side { parts.last_link } else { parts.core_link };
        reroute(sim.link_mut(idx), shrink, delta);
    }
    // Planned route flaps (fault layer): each one moves a link's hop count
    // mid-trial and tells INTANG the route changed so it re-probes TTL
    // distance on the next flow. The natural route-change draw above keeps
    // its exact RNG sequence; plan flaps ride on top.
    let mut fault_flaps = 0u64;
    if let Some(plan) = &spec.faults {
        for flap in &plan.route_flaps {
            events += sim.run_until(Instant(flap.at.0.min(spec.horizon.0)));
            let idx = if flap.pre_censor { parts.core_link } else { parts.last_link };
            reroute(sim.link_mut(idx), flap.shrink, flap.delta);
            parts.intang.notify_route_change();
            fault_flaps += 1;
        }
    }
    events += sim.run_until(spec.horizon);
    (events, fault_flaps)
}

/// Shrink (never below one hop) or grow a link's route by `delta` hops.
fn reroute(link: &mut Link, shrink: bool, delta: u8) {
    link.hops = if shrink {
        link.hops.saturating_sub(delta).max(1)
    } else {
        link.hops + delta
    };
}

/// Classify a finished trial (public for the simcheck shrinker's traced
/// replays; normal callers go through [`run_http_trial`]).
pub fn classify(sim: &Simulation, parts: &TrialParts, spec: &TrialSpec<'_>) -> TrialResult {
    let report = parts.report.borrow();
    let stats = parts.intang.stats();
    let resets = stats.type1_resets_seen + stats.type2_resets_seen;
    let outcome = report.outcome(resets);
    let detections: usize = parts.gfw_handles.iter().map(|h| h.detections().len()).sum();

    // Pull the per-element counters into one sheet, then stamp the
    // trial-level instruments on top.
    let mut metrics = MetricsSheet::new();
    sim.export_metrics(&mut metrics);
    // Tag the trial with the profile of every censor device on the path
    // (recorded here, not by the element: the metropolis splits one
    // logical device across event domains, so the element can't count
    // devices without breaking serial/parallel identity).
    for h in &parts.gfw_handles {
        metrics.inc(h.profile_tag().device_counter());
    }
    metrics.inc(Counter::TrialsRun);
    let (outcome_counter, outcome_col) = match outcome {
        Outcome::Success => (Counter::TrialSuccess, OUTCOME_SUCCESS),
        Outcome::Failure1 => (Counter::TrialFailure1, OUTCOME_FAILURE1),
        Outcome::Failure2 => (Counter::TrialFailure2, OUTCOME_FAILURE2),
    };
    metrics.inc(outcome_counter);
    let slot = spec.strategy.map_or(ADAPTIVE_SLOT, |k| usize::from(k.id().0));
    metrics.record_strategy_outcome(slot, outcome_col);
    metrics.observe(HistId::TrialResetsSeen, resets);
    let dpi_bytes = metrics.counter(Counter::GfwDpiBytesScanned);
    metrics.observe(HistId::TrialDpiBytes, dpi_bytes);
    let failure_vector = intang_telemetry::classify(outcome, &TrialEvidence::from_sheet(&metrics));

    TrialResult {
        outcome,
        response_status: report.response.as_ref().map(|r| r.status),
        resets_seen: resets,
        gfw_detections: detections,
        // Fixed strategy, or None when the adaptive engine chose per-flow
        // (its choice is visible via the shared History).
        strategy_used: spec.strategy,
        events: 0,
        metrics,
        failure_vector,
        series: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    fn scenario() -> Scenario {
        Scenario::smoke(11)
    }

    /// A site whose path carries only the evolved censor and is middlebox-benign.
    fn benign_site(s: &Scenario) -> Website {
        let mut site = s.websites[0].clone();
        site.old_device = false;
        site.evolved_device = true;
        site.server_seqfw = false;
        site.path_drops_noflag = false;
        site.loss = 0.0;
        site.rst_resync_prob = 0.2;
        site
    }

    #[test]
    fn no_strategy_with_keyword_is_censored() {
        let s = scenario();
        let site = benign_site(&s);
        let mut failures2 = 0;
        for seed in 0..10 {
            let spec = TrialSpec::new(&s.vantage_points[0], &site, Some(StrategyKind::NoStrategy), true, 1000 + seed);
            let r = run_http_trial(&spec);
            if r.outcome == Outcome::Failure2 {
                failures2 += 1;
                assert!(r.gfw_detections > 0);
            }
        }
        assert!(failures2 >= 8, "censorship bites almost every time, got {failures2}/10");
    }

    #[test]
    fn no_strategy_without_keyword_succeeds() {
        let s = scenario();
        let site = benign_site(&s);
        let spec = TrialSpec::new(&s.vantage_points[0], &site, Some(StrategyKind::NoStrategy), false, 77);
        let r = run_http_trial(&spec);
        assert_eq!(r.outcome, Outcome::Success, "{r:?}");
        assert_eq!(r.response_status, Some(200));
        assert_eq!(r.gfw_detections, 0);
    }

    #[test]
    fn improved_teardown_evades_evolved_censor() {
        let s = scenario();
        let site = benign_site(&s);
        let mut successes = 0;
        for seed in 0..10 {
            let mut spec = TrialSpec::new(&s.vantage_points[0], &site, Some(StrategyKind::ImprovedTeardown), true, 2000 + seed);
            spec.route_change_prob = 0.0;
            let r = run_http_trial(&spec);
            if r.outcome == Outcome::Success {
                successes += 1;
            }
        }
        assert!(successes >= 9, "improved teardown must evade reliably, got {successes}/10");
    }

    #[test]
    fn combined_strategies_beat_old_and_evolved_devices_together() {
        let s = scenario();
        let mut site = benign_site(&s);
        site.old_device = true; // both generations on path
        for kind in [StrategyKind::TcbCreationResyncDesync, StrategyKind::TeardownTcbReversal] {
            let mut successes = 0;
            for seed in 0..10 {
                let mut spec = TrialSpec::new(&s.vantage_points[0], &site, Some(kind), true, 3000 + seed);
                spec.route_change_prob = 0.0;
                let r = run_http_trial(&spec);
                if r.outcome == Outcome::Success {
                    successes += 1;
                }
            }
            assert!(successes >= 8, "{kind:?} got {successes}/10");
        }
    }

    #[test]
    fn tcb_creation_fails_against_evolved_but_beats_old() {
        let s = scenario();
        let mut evolved = benign_site(&s);
        evolved.rst_resync_prob = 0.2;
        let mut old_site = benign_site(&s);
        old_site.old_device = true;
        old_site.evolved_device = false;

        let kind = StrategyKind::TcbCreationSyn(intang_core::Discrepancy::SmallTtl);
        let mut evolved_f2 = 0;
        let mut old_success = 0;
        for seed in 0..10 {
            let mut spec = TrialSpec::new(&s.vantage_points[0], &evolved, Some(kind), true, 4000 + seed);
            spec.route_change_prob = 0.0;
            if run_http_trial(&spec).outcome == Outcome::Failure2 {
                evolved_f2 += 1;
            }
            let mut spec = TrialSpec::new(&s.vantage_points[0], &old_site, Some(kind), true, 5000 + seed);
            spec.route_change_prob = 0.0;
            if run_http_trial(&spec).outcome == Outcome::Success {
                old_success += 1;
            }
        }
        assert!(evolved_f2 >= 8, "evolved model resyncs on the SYN/ACK: {evolved_f2}/10");
        assert!(old_success >= 8, "prior model is fooled by the fake ISN: {old_success}/10");
    }

    #[test]
    fn aliyun_cannot_emit_fragments_failure1() {
        // Table 1: out-of-order IP fragments from Aliyun ⇒ Failure 1.
        let s = scenario();
        let site = benign_site(&s);
        let aliyun = &s.vantage_points[0];
        assert_eq!(aliyun.profile, intang_middlebox::ClientSideProfile::Aliyun);
        let mut spec = TrialSpec::new(aliyun, &site, Some(StrategyKind::OutOfOrderIpFrag), true, 60);
        spec.route_change_prob = 0.0;
        let r = run_http_trial(&spec);
        assert_eq!(r.outcome, Outcome::Failure1, "{r:?}");
    }
}
