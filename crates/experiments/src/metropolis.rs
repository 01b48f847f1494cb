//! Metropolis: one world, very many concurrent flows.
//!
//! Where [`crate::trial`] builds one simulation per fetch, this module
//! builds **one** world hosting the whole population: a seeded load
//! generator plans every flow up front (arrival time, client address,
//! site, ISN, keyword, per-flow INTANG strategy), the
//! [`intang_apps::metro`] multiplexers host the endpoints, and one INTANG
//! shim and one GFW tap watch them all. The censor keeps its state in
//! [`MetroParams::shards`] lanes keyed by [`intang_packet::pair_shard`]
//! (§2.1: a censor is many devices, each with its own TCB state); within a
//! lane the state is shared. That sharing is the point: one flow's
//! detection blacklists a `(src, dst)` pair and resets *other* flows on
//! it, capacity pressure evicts TCBs and degrades detection, and resync
//! churn from many flows counts as storms. `shards = 1` is one global
//! censor: a single lane holding the whole `max_tcbs` budget, with every
//! draw from the simulation RNG.
//!
//! Determinism: [`run_metropolis_domains`] splits the world into event
//! domains, one [`crate::executor`] unit each, and merges them in domain
//! order — byte-identical to its `domains = 1` serial reference at any
//! worker count (asserted by `tests/determinism.rs`).

use crate::runner::MinMaxAvg;
use intang_apps::metro::{flow_keys, FlowKey, FlowOutcome, FlowResult, FlowSpec, MetroClients, MetroHandle, MetroServers};
use intang_core::{IntangConfig, IntangElement, StrategyKind};
use intang_gfw::{EvictionPolicy, GfwConfig, GfwElement, GfwHandle};
use intang_middlebox::SeqStrictFirewall;
use intang_netsim::rng::SimRng;
use intang_netsim::{Duration, Instant, Link, Simulation};
use intang_telemetry::{classify, FailureVector, TrialEvidence, TrialOutcome};
use intang_telemetry::{Counter, MetricsSheet, RunKnobs, SeriesSheet};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Total client→server hop count of the metropolis path (2 on the censor
/// side + 3 on the server side); seeded into the INTANG shim so
/// TTL-scoped insertions cross the censor and die before the servers
/// without a probe storm per site.
const PATH_HOPS: u8 = 5;

/// Everything defining one metropolis run.
#[derive(Debug, Clone)]
pub struct MetroParams {
    /// Flows to spawn over the run.
    pub flows: u32,
    pub seed: u64,
    /// Shard count for per-flow state (and for the per-shard summaries).
    pub shards: u32,
    /// Client address pool size (source ports are per-address, so this
    /// bounds flows-per-address; [`MetroParams::new`] scales it).
    pub clients: u32,
    /// Origin-site pool size (kept small: the shim's hop cache holds 64).
    pub sites: u32,
    /// Censor TCB-table capacity and eviction policy.
    pub max_tcbs: usize,
    pub eviction: EvictionPolicy,
    /// Mean flow inter-arrival time in microseconds (uniform on
    /// `[0, 2·mean]`).
    pub mean_interarrival_us: u64,
    /// Probability a flow's request carries the sensitive keyword.
    pub keyword_prob: f64,
    /// Upper bound of the uniform ESTABLISHED→request delay draw.
    pub max_request_delay_us: u64,
    /// Event horizon: spawn window plus drain time.
    pub horizon: Instant,
    /// Censor configuration override (e.g. compiled from a
    /// [`intang_gfw::CensorProfile`]); `None` runs the stock evolved GFW.
    /// `max_tcbs`/`eviction`/sharding above still apply on top.
    pub censor: Option<GfwConfig>,
    /// Insert a strict sequence-checking firewall (§3.4 / §7.1) on the
    /// server side of the censor. The 2 ms / 3-hop server link is split
    /// into 1 ms / 1 hop → seqfw → 1 ms / 2 hops, so total path latency
    /// and hop count are unchanged and TTL-scoped insertions still cross
    /// the middlebox but die before the servers.
    pub middlebox: bool,
}

impl MetroParams {
    /// Defaults scaled to `flows`: enough client addresses that no
    /// address exhausts its port range, and a horizon covering the
    /// arrival window plus a 25 s drain.
    pub fn new(flows: u32, seed: u64) -> MetroParams {
        let mean_interarrival_us = 200;
        let spawn_window = u64::from(flows) * mean_interarrival_us;
        MetroParams {
            flows,
            seed,
            shards: 8,
            // Scale the address pool with the population: too few client
            // addresses and every (src, dst) pair is blacklisted within
            // the spawn window, collapsing the world into pure collateral.
            clients: (flows / 16).clamp(8, 4_096),
            sites: 8,
            max_tcbs: 65_536,
            eviction: EvictionPolicy::Oldest,
            mean_interarrival_us,
            keyword_prob: 0.5,
            max_request_delay_us: 50_000,
            horizon: Instant(spawn_window + 25_000_000),
            censor: None,
            middlebox: false,
        }
    }
}

/// The generated world: address pools, start-sorted flow specs, each
/// flow's preset strategy draw, and each flow's key (source port and
/// shard), derived once by [`MetroWorld::new`] for the world's shard count.
/// Everything is shared: every domain built from the world reads it in
/// place. The keys follow from the pools and specs, so those are read-only;
/// `specs` stays a public field for the benchmark harness, which counts
/// flows with it, and must not be replaced either.
pub struct MetroWorld {
    clients: Arc<[Ipv4Addr]>,
    sites: Arc<[Ipv4Addr]>,
    pub specs: Arc<[FlowSpec]>,
    strategies: Arc<[StrategyKind]>,
    keys: Arc<[FlowKey]>,
    shards: u32,
}

impl MetroWorld {
    /// Assemble a world for `shards` shards (0 counts as 1) and derive
    /// every flow's key: the one pass over the specs that all of the
    /// world's domain builds share. `specs` must be start-sorted, with one
    /// strategy per spec.
    pub fn new(
        clients: Arc<[Ipv4Addr]>,
        sites: Arc<[Ipv4Addr]>,
        specs: Arc<[FlowSpec]>,
        strategies: Arc<[StrategyKind]>,
        shards: u32,
    ) -> MetroWorld {
        assert_eq!(strategies.len(), specs.len(), "one strategy per flow spec");
        let shards = shards.max(1);
        let keys = flow_keys(&clients, &sites, &specs, shards);
        MetroWorld {
            clients,
            sites,
            specs,
            strategies,
            keys,
            shards,
        }
    }

    pub fn clients(&self) -> &[Ipv4Addr] {
        &self.clients
    }

    pub fn sites(&self) -> &[Ipv4Addr] {
        &self.sites
    }

    /// Each flow's preset strategy, by flow id.
    pub fn strategies(&self) -> &[StrategyKind] {
        &self.strategies
    }

    /// Each flow's key, by flow id.
    pub fn keys(&self) -> &[FlowKey] {
        &self.keys
    }

    /// The shard count the keys were derived for; a build must run the
    /// same count.
    pub fn shards(&self) -> u32 {
        self.shards
    }
}

/// Deterministic load plan: every draw comes from one SplitMix stream
/// seeded by `params.seed`, so the same params always produce the same
/// world regardless of shard or worker count.
pub fn generate_world(p: &MetroParams) -> MetroWorld {
    let mut rng = SimRng::seed_from(p.seed ^ 0x4d45_5452_4f50_4f4c); // "METROPOL"
    let clients: Arc<[Ipv4Addr]> = (0..p.clients.max(1))
        .map(|i| Ipv4Addr::new(10, 1, (i >> 8) as u8, (i & 0xff) as u8))
        .collect();
    let sites: Arc<[Ipv4Addr]> = (0..p.sites.clamp(1, 64))
        .map(|i| Ipv4Addr::new(203, 0, 113, (i + 1) as u8))
        .collect();
    let pool = StrategyKind::adaptive_pool();
    let mut strategies = Vec::with_capacity(p.flows as usize);
    let mut t = 0u64;
    // Collected straight into the shared slice (one allocation, no copy).
    let specs = (0..p.flows)
        .map(|_| {
            t += rng.range_u64(0, 2 * p.mean_interarrival_us + 1);
            let spec = FlowSpec {
                start: Instant(t),
                client: rng.index(clients.len()) as u32,
                site: rng.index(sites.len()) as u32,
                isn: rng.next_u32(),
                keyword: rng.chance(p.keyword_prob),
                request_delay: Duration::from_micros(rng.range_u64(0, p.max_request_delay_us + 1)),
            };
            // One draw in five runs bare: those keyword flows are the ones
            // the censor detects, and their blacklist entries are what
            // makes cross-flow collateral observable in the shared world.
            let k = rng.index(pool.len() + 1);
            strategies.push(if k == pool.len() { StrategyKind::NoStrategy } else { pool[k] });
            spec
        })
        .collect();
    MetroWorld::new(clients, sites, specs, strategies.into(), p.shards)
}

/// Per-shard fold of the flow-result grid (a pure function of the
/// shard's rows).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShardSummary {
    pub flows: u64,
    pub succeeded: u64,
    pub reset: u64,
    pub stalled: u64,
    pub pending: u64,
    pub latency_sum_us: u64,
    pub latency_min_us: u64,
    pub latency_max_us: u64,
}

impl ShardSummary {
    fn fold(&mut self, r: &FlowResult) {
        self.flows += 1;
        match r.outcome {
            FlowOutcome::Success => {
                self.succeeded += 1;
                self.latency_sum_us += r.latency_us;
                self.latency_max_us = self.latency_max_us.max(r.latency_us);
                self.latency_min_us = if self.latency_min_us == 0 {
                    r.latency_us
                } else {
                    self.latency_min_us.min(r.latency_us)
                };
            }
            FlowOutcome::Reset => self.reset += 1,
            FlowOutcome::Stalled => self.stalled += 1,
            FlowOutcome::Pending => self.pending += 1,
        }
    }
}

/// Fold the outcome grid into one summary per shard, in shard order.
pub fn aggregate_shards(results: &[FlowResult], shards: u32) -> Vec<ShardSummary> {
    let mut out = vec![ShardSummary::default(); shards.max(1) as usize];
    for r in results {
        out[r.shard as usize].fold(r);
    }
    out
}

/// Min/max/avg of mean per-flow success latency across shards, with
/// success-free shards surfaced via [`MinMaxAvg::empty`] rather than
/// folded in as zeros (the PR-2 empty-cell convention).
pub fn shard_latency_stats(shards: &[ShardSummary]) -> MinMaxAvg {
    MinMaxAvg::fold(
        shards
            .iter()
            .map(|s| (s.succeeded > 0).then(|| s.latency_sum_us as f64 / s.succeeded as f64)),
    )
}

/// Everything a metropolis run reports.
pub struct MetroRun {
    /// Per-flow outcome grid, indexed by flow id.
    pub results: Vec<FlowResult>,
    /// `(spawned, succeeded, reset, stalled)`, read from `metrics`.
    pub counts: (u64, u64, u64, u64),
    /// Per-shard summaries in shard order.
    pub shards: Vec<ShardSummary>,
    /// Simulator events processed.
    pub events: u64,
    /// Cross-flow interference counters from the censor, read from
    /// `metrics`.
    pub collateral_resets: u64,
    pub tcbs_evicted: u64,
    pub resync_storms: u64,
    /// Full merged metrics sheet (every element on the path).
    pub metrics: MetricsSheet,
    /// Gauge series when series telemetry was enabled.
    pub series: Option<Box<SeriesSheet>>,
    /// Per-flow `(time, seq)` ordering regressions — must be zero.
    pub order_violations: u64,
    /// Simcheck violations observed during the run (0 when disabled).
    pub violations: u64,
}

/// Live handles of an assembled metropolis world (exposed so tests can
/// poke at the censor or the outcome grid mid-run).
pub struct MetroParts {
    pub metro: MetroHandle,
    pub gfw: GfwHandle,
}

/// Per-lane RNG seed bases for the sharded censor and shim — distinct
/// constants so the two stacks of lanes never share a stream.
const GFW_LANE_SEED: u64 = 0x4746_575f_4c41_4e45; // "GFW_LANE"
const SHIM_LANE_SEED: u64 = 0x5348_494d_4c41_4e45; // "SHIMLANE"

/// Build one event domain of a `domains`-way parallel metropolis without
/// running it: the metro clients own only the shards with
/// `shard % domains == domain`, and the domain holds result slots for
/// those flows alone. The build walks the world's 4-byte flow keys to pick
/// out its flows and copies nothing else of the world: a flow's four-tuple
/// is derived from its spec and key when it spawns, and a spawn hook
/// presets its shim strategy then. The censor and shim run with
/// `state_shards = p.shards` so every piece of cross-flow state — TCB
/// eviction order and capacity quota, resync windows, sticky draws,
/// injector RNG streams, learned δ overrides — is partitioned by the same
/// [`intang_packet::pair_shard`] key the metro flows shard by. Each
/// shard's event stream is then causally closed, so any grouping of
/// shards into domains replays identical per-shard bytes. Panics, naming
/// both counts, if `p.shards` is not the world's shard count.
///
/// `domains = 1, domain = 0` is the **serial reference** for the parallel
/// determinism grid: one simulation hosting all shards. At `p.shards = 1`
/// it is the global censor: one lane with the whole `max_tcbs` quota and
/// every draw from the simulation RNG.
pub fn build_metropolis_domain(p: &MetroParams, world: &MetroWorld, domains: u32, domain: u32) -> (Simulation, MetroParts) {
    assert!(
        world.shards == p.shards.max(1),
        "the world's flow keys are for {} shards, but the build runs {} shards",
        world.shards,
        p.shards.max(1)
    );
    let mut sim = Simulation::new(p.seed);

    // The INTANG shim fronts every client address; per-flow strategy
    // state is keyed by four-tuple and preset from the world's draws.
    let cfg = IntangConfig {
        strategy: None,
        measure_hops: true,
        prefer_ttl: true,
        state_shards: p.shards,
        shard_seed: p.seed ^ SHIM_LANE_SEED,
        ..IntangConfig::default()
    };
    let (intang_el, intang) = IntangElement::new(world.clients[0], cfg);
    for site in world.sites.iter() {
        intang.seed_hops(*site, PATH_HOPS);
    }

    // [0] every client flow (this domain's shards of them).
    let (mut clients_el, metro) = MetroClients::for_domain(
        world.clients.clone(),
        world.sites.clone(),
        world.specs.clone(),
        world.keys.clone(),
        world.shards,
        domains,
        domain,
    );
    let (shim, strategies) = (intang.clone(), world.strategies.clone());
    clients_el.set_spawn_hook(Box::new(move |id, tuple| shim.preset_strategy(tuple, strategies[id as usize])));
    let shim = intang.clone();
    clients_el.set_retire_hook(Box::new(move |tuple| shim.retire_flow(tuple)));
    // Arm the per-shard spawn/finish chains before the element moves into
    // the simulation; it is about to become element [0].
    clients_el.bootstrap(&mut sim, 0, p.horizon);
    let cidx = sim.add_element(Box::new(clients_el));
    assert_eq!(cidx, 0, "metro clients must be the leftmost element");

    // [1] the shim, directly on the client side.
    sim.add_link(Link::new(Duration::from_micros(50), 0));
    sim.add_element(Box::new(intang_el));

    // [2] the censor tap at the border (2 hops out).
    sim.add_link(Link::new(Duration::from_millis(1), 2).with_router_base(Ipv4Addr::new(172, 16, 2, 0)));
    let mut gcfg = p.censor.clone().unwrap_or_else(GfwConfig::evolved);
    gcfg.max_tcbs = p.max_tcbs;
    gcfg.eviction = p.eviction;
    gcfg.state_shards = p.shards;
    gcfg.shard_seed = p.seed ^ GFW_LANE_SEED;
    let (gfw_el, gfw) = GfwElement::new(gcfg);
    sim.add_element(Box::new(gfw_el));

    if p.middlebox {
        // [3] a strict server-side sequence firewall one hop past the
        // censor, then [4] the origin sites two hops further. The stock
        // 2 ms / 3-hop server link is split 1+2 around the box, so path
        // latency and PATH_HOPS are identical to the middlebox-free
        // topology — TTL-scoped insertions cross the seqfw (poisoning
        // its expected-sequence tracking) and still die before the
        // servers. Seqfw state is per-four-tuple, so the domain split
        // partitions it exactly like every other sharded element.
        sim.add_link(Link::new(Duration::from_millis(1), 1).with_router_base(Ipv4Addr::new(172, 16, 3, 0)));
        sim.add_element(Box::new(SeqStrictFirewall::new("metro-seqfw")));
        sim.add_link(Link::new(Duration::from_millis(1), 2).with_router_base(Ipv4Addr::new(172, 16, 4, 0)));
        sim.add_element(Box::new(MetroServers::new(world.sites.to_vec())));
    } else {
        // [3] every origin site (3 more hops; TTL-scoped insertions with
        // the seeded PATH_HOPS estimate die on this link).
        sim.add_link(Link::new(Duration::from_millis(2), 3).with_router_base(Ipv4Addr::new(172, 16, 3, 0)));
        sim.add_element(Box::new(MetroServers::new(world.sites.to_vec())));
    }

    (sim, MetroParts { metro, gfw })
}

/// §5 diagnosis over a metropolis run: how many stalled flows the failure
/// classifier attributes to middlebox interference, given the run's merged
/// evidence. Zero whenever nothing stalled or the merged sheet carries no
/// middlebox-drop evidence (e.g. [`MetroParams::middlebox`] off).
pub fn middlebox_interference_diagnoses(run: &MetroRun) -> u64 {
    let stalled = run.counts.3;
    if stalled == 0 {
        return 0;
    }
    let ev = TrialEvidence::from_sheet(&run.metrics);
    match classify(TrialOutcome::Failure1, &ev) {
        Some(FailureVector::MiddleboxInterference) => stalled,
        _ => 0,
    }
}

/// One domain's executor diagnostics (wall-clock fields vary run to run;
/// never part of the deterministic merge).
#[derive(Debug, Clone, Copy)]
pub struct DomainStats {
    pub domain: u32,
    /// Events this domain's simulation processed.
    pub events: u64,
    /// Flows this domain owned (its spawned count).
    pub flows_owned: u64,
    /// Wall-clock from claim to finished merge handoff.
    pub busy: std::time::Duration,
}

/// A parallel metropolis run: the merged [`MetroRun`] — byte-identical to
/// the `domains = 1` serial reference — plus executor diagnostics.
pub struct MetroDomainsRun {
    pub run: MetroRun,
    /// Event domains actually used (clamped to `[1, shards]`).
    pub domains: u32,
    /// Worker threads actually used (clamped to `[1, domains]`).
    pub workers: usize,
    /// Per-domain diagnostics, in domain order.
    pub domain_stats: Vec<DomainStats>,
    /// Per-worker executor statistics, in worker-spawn order.
    pub worker_stats: Vec<crate::executor::WorkerStats>,
    /// Per-worker span-profiler sheets, parallel to `worker_stats`.
    pub worker_profiles: Vec<intang_telemetry::SpanSheet>,
}

/// Everything one domain worker ships back to the merge — plain data
/// only; simulations, wires and `Rc` handles never cross threads.
struct DomainOut {
    /// The domain's owned flows: flow id and result slot, by local id.
    ids: Arc<[u32]>,
    results: Vec<FlowResult>,
    events: u64,
    /// Every element's counters, the run totals among them.
    metrics: MetricsSheet,
    /// Raw per-tick gauge samples (empty unless series telemetry is on);
    /// tick `k` is sampled with every event before `k * CADENCE_US`
    /// dispatched and nothing at or after it — the same cut the in-sim
    /// recorder uses, so tick-wise sums across domains reproduce the
    /// serial reading exactly.
    samples: Vec<intang_telemetry::GaugeSample>,
    order_violations: u64,
    violations: u64,
    busy: std::time::Duration,
}

/// Build and run one event domain to the horizon, entirely on the calling
/// thread (a `Simulation` is thread-bound).
fn run_one_domain(p: &MetroParams, world: &MetroWorld, domains: u32, domain: u32, series_wanted: bool) -> DomainOut {
    use intang_telemetry::series::CADENCE_US;
    let started = std::time::Instant::now();
    let sc = intang_simcheck::enabled();
    if sc {
        intang_simcheck::begin_trial(p.seed ^ (u64::from(domain) << 32) ^ 0x444f_4d41_494e_3030); // "DOMAIN00"
        let _ = intang_simcheck::take_violations();
    }
    let (mut sim, parts) = build_metropolis_domain(p, world, domains, domain);
    let mut samples = Vec::new();
    let events = if series_wanted {
        // Manual cadence sampling: chunk the run at tick boundaries and
        // snapshot gauges between chunks. The in-sim recorder is off in
        // domain sims (its per-sim sheet compacts eagerly and cannot be
        // zip-summed afterwards).
        let mut n = 0u64;
        let mut k = 0u64;
        while k.saturating_mul(CADENCE_US) <= p.horizon.0 {
            if k > 0 {
                n += sim.run_until(Instant(k * CADENCE_US - 1));
            }
            samples.push(sim.sample_gauges_now());
            k += 1;
        }
        n + sim.run_until(p.horizon)
    } else {
        sim.run_until(p.horizon)
    };
    let mut metrics = MetricsSheet::new();
    sim.export_metrics(&mut metrics);
    let violations = if sc { intang_simcheck::take_violations().len() as u64 } else { 0 };
    let (ids, results) = parts.metro.take_results();
    DomainOut {
        ids,
        results,
        events,
        metrics,
        samples,
        order_violations: parts.metro.order_violations(),
        violations,
        busy: started.elapsed(),
    }
}

/// Run the metropolis as `domains` parallel event domains on `workers`
/// work-stealing threads.
///
/// Each domain is a full client→shim→censor→server path hosting only its
/// own shards, built *and* run inside whichever [`crate::executor`] worker
/// claims it.
/// Censor and shim state run sharded (`state_shards = p.shards`), so the
/// per-shard event streams are causally closed and the merged output —
/// outcome grid, counters, metrics sheet, gauge series — is byte-identical
/// to the `domains = 1` serial reference at any `(domains, workers)`
/// combination (asserted by `tests/determinism.rs`).
///
/// Every lane owns a deterministic share of the TCB budget, and
/// cross-flow interference happens within a lane; the partition is part
/// of the modeled deployment (§2.1: a censor is many devices, each with
/// its own state). `p.shards = 1` runs one global censor, and domains
/// then clamp to 1.
pub fn run_metropolis_domains(p: &MetroParams, domains: u32, workers: usize) -> MetroDomainsRun {
    let world = generate_world(p);
    run_metropolis_domains_world(p, &world, domains, workers)
}

/// [`run_metropolis_domains`] over a caller-supplied (e.g. hand-placed)
/// world instead of the seeded generator.
pub fn run_metropolis_domains_world(p: &MetroParams, world: &MetroWorld, domains: u32, workers: usize) -> MetroDomainsRun {
    let domains = domains.clamp(1, p.shards.max(1));
    let caller = intang_telemetry::knobs::current();
    let series_wanted = caller.series;
    let mut outs: Vec<Option<DomainOut>> = (0..domains).map(|_| None).collect();
    let (worker_stats, worker_profiles) = crate::executor::run_units(
        domains as usize,
        workers,
        // Domain sims always sample manually; the in-sim recorder stays
        // off whatever the caller set.
        RunKnobs { series: false, ..caller },
        |d| run_one_domain(p, world, domains, d as u32, series_wanted),
        |d, out| outs[d] = Some(out),
    );
    let mut outs: Vec<DomainOut> = outs.into_iter().map(|o| o.expect("every domain must have run")).collect();

    // Deterministic merge, all of it in domain-index order. Each domain
    // holds result slots only for the flows it owns, and the domains
    // partition the flows, so scattering every domain's slots by flow id
    // fills each slot of the one grid exactly once. Each domain's slots
    // move in by value and are freed as they go.
    let pending = FlowResult {
        outcome: FlowOutcome::Pending,
        latency_us: 0,
        shard: 0,
    };
    let mut results = vec![pending; world.specs.len()];
    for o in &mut outs {
        for (&id, r) in o.ids.iter().zip(std::mem::take(&mut o.results)) {
            results[id as usize] = r;
        }
    }
    let mut events = 0u64;
    let mut order_violations = 0u64;
    let mut violations = 0u64;
    let mut metrics = MetricsSheet::new();
    for o in &outs {
        events += o.events;
        order_violations += o.order_violations;
        violations += o.violations;
        metrics.merge(&o.metrics);
    }
    // The N domain elements are one logical censor device: tag the merged
    // sheet exactly once, so any (domains, workers) split reports the same
    // profile census as the serial reference.
    let tag = p.censor.as_ref().map(|c| c.profile_tag).unwrap_or(intang_gfw::ProfileTag::Evolved);
    metrics.inc(tag.device_counter());
    let series = series_wanted.then(|| {
        // Zip-sum the raw per-tick samples across domains: gauge values
        // are extensive (table sizes, queue depths, live counts), so the
        // serial reading at tick k is exactly the sum of the domain
        // readings at tick k.
        let mut sheet = SeriesSheet::new();
        let ticks = outs.iter().map(|o| o.samples.len()).max().unwrap_or(0);
        for k in 0..ticks {
            let mut g = intang_telemetry::GaugeSample::default();
            for o in &outs {
                if let Some(s) = o.samples.get(k) {
                    for id in intang_telemetry::GaugeId::ALL {
                        g.add(id, s.get(id));
                    }
                }
            }
            sheet.push_sample(&g);
        }
        Box::new(sheet)
    });
    let shards = aggregate_shards(&results, p.shards);
    let domain_stats = outs
        .iter()
        .enumerate()
        .map(|(d, o)| DomainStats {
            domain: d as u32,
            events: o.events,
            flows_owned: o.metrics.counter(Counter::MetroFlowsSpawned),
            busy: o.busy,
        })
        .collect();
    // Run totals come from the merged sheet: the metro clients and the
    // censor export exactly the counters their handles read.
    let counts = (
        metrics.counter(Counter::MetroFlowsSpawned),
        metrics.counter(Counter::MetroFlowsSucceeded),
        metrics.counter(Counter::MetroFlowsReset),
        metrics.counter(Counter::MetroFlowsStalled),
    );
    MetroDomainsRun {
        run: MetroRun {
            results,
            counts,
            shards,
            events,
            collateral_resets: metrics.counter(Counter::GfwBlacklistCollateralResets),
            tcbs_evicted: metrics.counter(Counter::GfwTcbsEvicted),
            resync_storms: metrics.counter(Counter::GfwResyncStorms),
            metrics,
            series,
            order_violations,
            violations,
        },
        domains,
        workers: worker_stats.len(),
        domain_stats,
        worker_stats,
        worker_profiles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_generation_is_deterministic_and_start_sorted() {
        let p = MetroParams::new(500, 7);
        let a = generate_world(&p);
        let b = generate_world(&p);
        assert_eq!(a.specs.len(), 500);
        assert!(a.specs.windows(2).all(|w| w[0].start <= w[1].start));
        for (x, y) in a.specs.iter().zip(b.specs.iter()) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
        assert_eq!(a.strategies, b.strategies);
        assert_eq!(a.keys(), b.keys());
    }

    #[test]
    #[should_panic(expected = "the world's flow keys are for 8 shards, but the build runs 4 shards")]
    fn a_build_at_another_shard_count_panics_naming_both() {
        let mut p = MetroParams::new(40, 3);
        let world = generate_world(&p);
        p.shards = 4;
        drop(build_metropolis_domain(&p, &world, 1, 0));
    }

    #[test]
    fn small_world_completes_with_terminal_outcomes() {
        let mut p = MetroParams::new(40, 2017);
        p.shards = 4;
        let run = run_metropolis_domains(&p, 1, 1).run;
        let (spawned, succeeded, reset, stalled) = run.counts;
        assert_eq!(spawned, 40);
        assert_eq!(succeeded + reset + stalled, 40, "every flow reaches a terminal state");
        assert!(succeeded > 0, "some flows must fetch their page: {:?}", run.counts);
        assert!(run.results.iter().all(|r| r.outcome != FlowOutcome::Pending));
        assert_eq!(run.order_violations, 0);
        let sum = |f: fn(&ShardSummary) -> u64| run.shards.iter().map(f).sum::<u64>();
        assert_eq!(
            (sum(|s| s.flows), sum(|s| s.succeeded), sum(|s| s.reset), sum(|s| s.stalled)),
            run.counts,
            "shard summaries partition the grid"
        );
    }

    #[test]
    fn parallel_domains_match_the_serial_reference() {
        let mut p = MetroParams::new(300, 41);
        p.shards = 4;
        let reference = run_metropolis_domains(&p, 1, 1);
        let ref_grid: Vec<_> = reference.run.results.iter().map(|r| (r.outcome, r.latency_us)).collect();
        assert_eq!(reference.run.counts.0, 300);
        for (domains, workers) in [(2u32, 2usize), (4, 4), (4, 1)] {
            let run = run_metropolis_domains(&p, domains, workers);
            let tag = format!("{domains} domains, {workers} workers");
            let grid: Vec<_> = run.run.results.iter().map(|r| (r.outcome, r.latency_us)).collect();
            assert_eq!(ref_grid, grid, "grid differs at {tag}");
            assert_eq!(reference.run.counts, run.run.counts, "counts differ at {tag}");
            assert_eq!(reference.run.events, run.run.events, "events differ at {tag}");
            assert_eq!(reference.run.metrics, run.run.metrics, "metrics differ at {tag}");
            assert_eq!(
                (
                    reference.run.collateral_resets,
                    reference.run.tcbs_evicted,
                    reference.run.resync_storms
                ),
                (run.run.collateral_resets, run.run.tcbs_evicted, run.run.resync_storms),
                "censor counters differ at {tag}"
            );
            assert_eq!(run.domains, domains);
            assert_eq!(
                run.domain_stats.iter().map(|d| d.events).sum::<u64>(),
                run.run.events,
                "domain events must partition the total at {tag}"
            );
        }
    }

    #[test]
    fn middlebox_hop_interferes_at_scale_and_stays_deterministic() {
        // 1k flows through the seqfw hop: insertion-based strategies leave
        // junk in the box's sequence tracking, real requests then look
        // stale and are dropped — flows stall and the §5 classifier calls
        // it middlebox interference.
        let mut p = MetroParams::new(1_000, 97);
        p.shards = 4;
        p.middlebox = true;
        let reference = run_metropolis_domains(&p, 1, 1);
        let blocked = reference.run.metrics.counter(Counter::MiddleboxSeqfwBlocked);
        assert!(blocked > 0, "seqfw must block packets at 1k flows, got {blocked}");
        assert!(reference.run.counts.3 > 0, "some flows must stall: {:?}", reference.run.counts);
        assert!(
            middlebox_interference_diagnoses(&reference.run) > 0,
            "stalls with seqfw evidence must diagnose as middlebox interference"
        );
        // The middlebox hop keeps per-four-tuple state only, so the domain
        // split must still replay byte-identically.
        let run = run_metropolis_domains(&p, 2, 2);
        assert_eq!(reference.run.counts, run.run.counts, "counts differ with middlebox on");
        assert_eq!(reference.run.metrics, run.run.metrics, "metrics differ with middlebox on");
    }

    #[test]
    fn middlebox_free_runs_report_no_interference() {
        let mut p = MetroParams::new(200, 97);
        p.shards = 4;
        let run = run_metropolis_domains(&p, 1, 1).run;
        assert_eq!(run.metrics.counter(Counter::MiddleboxSeqfwBlocked), 0);
        assert_eq!(middlebox_interference_diagnoses(&run), 0);
    }

    #[test]
    fn censor_override_retags_the_run() {
        use intang_gfw::CensorProfile;
        let mut p = MetroParams::new(40, 5);
        p.shards = 4;
        let stock = run_metropolis_domains(&p, 1, 1).run;
        assert_eq!(stock.metrics.counter(Counter::GfwProfileEvolvedDevices), 1);
        assert_eq!(stock.metrics.counter(Counter::GfwProfileTurkmenistanDevices), 0);
        p.censor = Some(CensorProfile::turkmenistan().compile().expect("builtin compiles"));
        let tk = run_metropolis_domains(&p, 1, 1).run;
        assert_eq!(tk.metrics.counter(Counter::GfwProfileTurkmenistanDevices), 1);
        assert_eq!(tk.metrics.counter(Counter::GfwProfileEvolvedDevices), 0);
        // A domain split tags the merged sheet once, like the serial run.
        let tk2 = run_metropolis_domains(&p, 2, 2).run;
        assert_eq!(tk2.metrics.counter(Counter::GfwProfileTurkmenistanDevices), 1);
        // The blockpage censor answers a forbidden request with a spoofed
        // 403 and then resets: each blockpage flow is Failure 2, not a
        // Success, exactly as a trial scores it.
        for run in [&tk, &tk2] {
            let blockpages = run.metrics.counter(Counter::GfwBlockpagesInjected);
            assert!(blockpages > 0, "the keyword flows must draw blockpages");
            assert_eq!(run.counts.2, blockpages, "every blockpage flow is a reset: {:?}", run.counts);
        }
    }

    #[test]
    fn latency_stats_surface_empty_shards() {
        let shards = vec![
            ShardSummary {
                flows: 2,
                succeeded: 2,
                latency_sum_us: 2_000,
                latency_min_us: 800,
                latency_max_us: 1_200,
                ..ShardSummary::default()
            },
            ShardSummary {
                flows: 3,
                reset: 3,
                ..ShardSummary::default()
            },
        ];
        let stats = shard_latency_stats(&shards);
        assert_eq!(stats.empty, 1, "the all-reset shard is surfaced, not averaged as zero");
        assert!((stats.avg - 1_000.0).abs() < f64::EPSILON);
        assert!((stats.min - 1_000.0).abs() < f64::EPSILON);
    }
}
