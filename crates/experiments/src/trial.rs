//! One measurement trial: assemble the full threat-model path (Fig. 1),
//! fetch a page, classify the outcome.

use crate::scenario::{VantagePoint, Website};
use intang_apps::host::add_host;
use intang_apps::http::{listen, HttpClientDriver, HttpServerDriver};
use intang_core::select::History;
use intang_core::{IntangConfig, IntangElement, RobustnessConfig, StrategyKind};
use intang_faults::FaultPlan;
use intang_gfw::{GfwElement, GfwHandle};
use intang_middlebox::{FieldFilter, FilterSpec, FragmentHandler, SeqStrictFirewall, StatefulFirewall};
use intang_netsim::{Direction, Duration, Instant, Link, Simulation};
use intang_packet::http::HttpRequest;
use intang_telemetry::metrics::{ADAPTIVE_SLOT, OUTCOME_FAILURE1, OUTCOME_FAILURE2, OUTCOME_SUCCESS};
use intang_telemetry::{span, Counter, FailureVector, HistId, MetricsSheet, SeriesSheet, SpanId, TrialEvidence};
use std::cell::RefCell;
use std::net::Ipv4Addr;
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
    let (sim, parts) = build_http_sim(spec);
    finish_http_trial(sim, parts, spec)
}

/// The live handles of an assembled trial (exposed so specialised
/// experiments — hypotheses probes, figures — can reuse the topology).
pub struct TrialParts {
    pub report: Rc<RefCell<intang_apps::http::HttpClientReport>>,
    pub intang: intang_core::IntangHandle,
    pub gfw_handles: Vec<GfwHandle>,
    pub server_addr: Ipv4Addr,
    /// Index of the final (post-censor) link — route dynamics target.
    pub last_link: usize,
    /// Index of the core (pre-censor) link — route dynamics target.
    pub core_link: usize,
}

/// Build the simulation for an HTTP trial without running it.
pub fn build_http_sim(spec: &TrialSpec<'_>) -> (Simulation, TrialParts) {
    let vp = spec.vp;
    let site = spec.site;
    let mut sim = Simulation::new(spec.seed);

    let target = if spec.keyword { "/search?q=ultrasurf" } else { "/index.html" };
    let request = encoded_request(target, &site.name);
    let (client_driver, report) = HttpClientDriver::with_encoded(site.addr, 80, request);

    // [0] client host.
    let (_cidx, chandle) = add_host(
        &mut sim,
        "client",
        vp.addr,
        intang_tcpstack::StackProfile::linux_4_4(),
        Box::new(client_driver),
        Direction::ToServer,
    );
    if let Some(base) = spec.isn_base {
        chandle.with_tcp(|t| t.set_isn_base(base));
    }

    // [1] INTANG shim, directly on the client machine.
    sim.add_link(Link::new(Duration::from_micros(50), 0));
    let mut cfg = IntangConfig {
        strategy: spec.strategy,
        redundancy: spec.redundancy,
        delta: spec.delta,
        // §7.1: outside China the censor sits within a few hops of the
        // server; TTL scoping cannot win, so INTANG leans on the other
        // Table 5 discrepancies there.
        prefer_ttl: !vp.abroad,
        ..IntangConfig::default()
    };
    if spec.strategy == Some(StrategyKind::NoStrategy) {
        // The baseline also skips measurement probes.
        cfg.measure_hops = false;
    }
    if let Some(plan) = &spec.faults {
        cfg.robustness = Some(RobustnessConfig {
            reprotect_syn: plan.client.reprotect_syn,
            max_reprotects: plan.client.max_reprotects,
            backoff: plan.client.backoff,
            reprobe_on_reset: plan.client.reprobe_on_reset,
        });
    }
    let (intang_el, intang) = match &spec.history {
        Some(h) => IntangElement::with_history(vp.addr, cfg, h.clone()),
        None => IntangElement::new(vp.addr, cfg),
    };
    sim.add_element(Box::new(intang_el));

    // Client-side middleboxes (Table 2 profile).
    let access_link = sim.link_count();
    sim.add_link(Link::new(Duration::from_millis(1), vp.access_hops).with_router_base(Ipv4Addr::new(172, 16, 1, 0)));
    sim.add_element(Box::new(FragmentHandler::new(vp.profile.label(), vp.profile.fragment_mode())));
    sim.add_link(Link::new(Duration::from_micros(100), 0));
    sim.add_element(Box::new(FieldFilter::new(vp.profile.label(), vp.profile.filter_spec())));

    // Unattributed mid-path filter (no-flag droppers, §3.4 calibration).
    let core_link = sim.link_count();
    sim.add_link(
        Link::new(Duration::from_millis(site.latency_ms / 2), site.core_hops)
            .with_loss(site.loss)
            .with_router_base(Ipv4Addr::new(172, 16, 2, 0)),
    );
    let mut midpath_spec = if site.path_drops_noflag {
        FilterSpec {
            drop_no_flag: 1.0,
            ..FilterSpec::default()
        }
    } else {
        FilterSpec::passes_everything()
    };
    if let Some(p) = spec.faults.as_ref().and_then(|plan| plan.midpath_drop_no_flag) {
        // Profile perturbation: an unattributed hop starts eating flagless
        // segments mid-trial-set (Table 2's "varies by path" rows).
        midpath_spec.drop_no_flag = midpath_spec.drop_no_flag.max(p);
    }
    sim.add_element(Box::new(FieldFilter::new("midpath", midpath_spec)));

    // The censor tap(s) at the border.
    let mut gfw_handles = Vec::new();
    let mut first = true;
    for mut gcfg in site.gfw_configs() {
        gcfg.tor_filter = vp.tor_filtered;
        if let Some(plan) = &spec.faults {
            gcfg.chaos_rst_inject_prob = plan.censor.rst_inject_prob;
            gcfg.chaos_blacklist_jitter = plan.censor.blacklist_jitter;
            gcfg.chaos_device_flap_prob = plan.censor.device_flap_prob;
        }
        if !first {
            sim.add_link(Link::new(Duration::from_micros(10), 0));
        } else {
            sim.add_link(Link::new(Duration::from_micros(200), 0));
            first = false;
        }
        let (el, handle) = GfwElement::labeled(gcfg, "GFW");
        sim.add_element(Box::new(el));
        gfw_handles.push(handle);
    }

    // Server side: an optional middlebox, then the server host. A strict
    // sequence-checking firewall sits one hop out (rare); a conntrack
    // firewall sits two hops out (common) — both §3.4 Failure-1 sources.
    let last_link;
    if site.server_seqfw && site.server_hops >= 2 {
        sim.add_link(
            Link::new(Duration::from_millis(site.latency_ms / 2), site.server_hops - 1)
                .with_loss(site.loss)
                .with_router_base(Ipv4Addr::new(172, 16, 3, 0)),
        );
        let mut fw = SeqStrictFirewall::new("server-fw");
        fw.validate_checksum = site.seqfw_validates_checksum;
        sim.add_element(Box::new(fw));
        last_link = sim.link_count();
        sim.add_link(Link::new(Duration::from_micros(300), 1).with_router_base(Ipv4Addr::new(172, 16, 4, 0)));
    } else if site.server_conntrack && site.server_hops >= 2 {
        // TTL-scoped insertions normally expire one router short of the
        // server, i.e. just before this box; a one-hop route shrink exposes
        // it and a traversing insertion RST silently kills the flow.
        last_link = sim.link_count();
        sim.add_link(
            Link::new(Duration::from_millis(site.latency_ms / 2), site.server_hops - 1)
                .with_loss(site.loss)
                .with_router_base(Ipv4Addr::new(172, 16, 3, 0)),
        );
        sim.add_element(Box::new(StatefulFirewall::new("server-conntrack")));
        sim.add_link(Link::new(Duration::from_micros(300), 1).with_router_base(Ipv4Addr::new(172, 16, 4, 0)));
    } else {
        last_link = sim.link_count();
        sim.add_link(
            Link::new(Duration::from_millis(site.latency_ms / 2), site.server_hops)
                .with_loss(site.loss)
                .with_router_base(Ipv4Addr::new(172, 16, 3, 0)),
        );
    }
    let server_driver = if site.flaky_server {
        // A flaky site: TCP answers, the application never does (§3.4's
        // background Failure 1 noise).
        HttpServerDriver::new(80).unresponsive()
    } else {
        HttpServerDriver::new(80)
    };
    let (_sidx, shandle) = add_host(
        &mut sim,
        "server",
        site.addr,
        site.server_profile,
        Box::new(server_driver),
        Direction::ToClient,
    );
    shandle.with_tcp(|t| t.listen(80));
    shandle.with_tcp(|t| t.set_ip_overlap(site.server_ip_overlap));
    if let Some(base) = spec.isn_base {
        shandle.with_tcp(|t| t.set_isn_base(base));
    }
    listen(&shandle, 80);

    if let Some(plan) = &spec.faults {
        sim.link_mut(access_link).faults = plan.access.clone();
        apply_link_faults(&mut sim, core_link, &plan.core);
        apply_link_faults(&mut sim, last_link, &plan.server);
    }

    let parts = TrialParts {
        report,
        intang,
        gfw_handles,
        server_addr: site.addr,
        last_link,
        core_link,
    };
    (sim, parts)
}

/// Install a plan's faults on one link. The burst channel *replaces* the
/// link's independent loss draw, so the link's own residual loss is folded
/// into the good-state loss rate — faults can only add loss, never mask it.
fn apply_link_faults(sim: &mut Simulation, idx: usize, faults: &intang_netsim::LinkFaults) {
    let link = sim.link_mut(idx);
    let mut f = faults.clone();
    if let Some(ge) = f.burst.as_mut() {
        ge.loss_good = ge.loss_good.max(link.loss);
    }
    link.faults = f;
}

fn finish_http_trial(mut sim: Simulation, parts: TrialParts, spec: &TrialSpec<'_>) -> TrialResult {
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
        let link = sim.link_mut(idx);
        link.hops = if shrink {
            link.hops.saturating_sub(delta).max(1)
        } else {
            link.hops + delta
        };
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
            let link = sim.link_mut(idx);
            link.hops = if flap.shrink {
                link.hops.saturating_sub(flap.delta).max(1)
            } else {
                link.hops + flap.delta
            };
            parts.intang.notify_route_change();
            fault_flaps += 1;
        }
    }
    events += sim.run_until(spec.horizon);
    (events, fault_flaps)
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
