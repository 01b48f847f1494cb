//! The four workloads: how each builds its inputs from the seed, runs one
//! repetition through the program's public API, and reduces the output to
//! a digest that the correctness gate compares.

use intang_apps::metro::FlowOutcome;
use intang_core::{Discrepancy, StrategyKind};
use intang_experiments::metropolis::{build_metropolis_domain, generate_world, run_metropolis_domains_world, MetroParams, MetroWorld};
use intang_experiments::runner::{run_cell_telemetry, sweep_with_threads, Aggregate, SweepConfig, TrialDiagnosis};
use intang_experiments::trial::{build_http_sim, Outcome, TrialSpec};
use intang_experiments::Scenario;
use intang_faults::FaultConfig;
use intang_telemetry::{FailureVector, MetricsSheet, SeriesSheet, SpanSheet};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Every workload, in the order `BENCHMARK.json` and `expected.txt` list them.
pub const ALL: [Kind; 4] = [Kind::PaperSweep, Kind::FaultedAdaptive, Kind::MetroShared, Kind::MetroDomains];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Table 1/4: five fixed strategies, 3 trials per (vantage point, site)
    /// cell — many short isolated trials with shallow event queues.
    PaperSweep,
    /// The same scenario in adaptive mode (6 trials per cell) with every
    /// fault category at full intensity: loss bursts, reorder, duplication,
    /// route flaps and the retransmit/reassembly slow paths.
    FaultedAdaptive,
    /// 100k flows in one shared world: one deep event queue and one
    /// 65k-entry censor TCB table under eviction pressure.
    MetroShared,
    /// The same world split into 8 event domains on one worker: the same
    /// output from eight small queues and heaps.
    MetroDomains,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperSweep => "paper_sweep",
            Kind::FaultedAdaptive => "faulted_adaptive",
            Kind::MetroShared => "metro_shared",
            Kind::MetroDomains => "metro_domains",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == s)
    }
}

/// A workload's pre-generated inputs.
pub enum Inputs {
    Sweep {
        scenario: Scenario,
        configs: Vec<SweepConfig>,
    },
    Metro {
        params: Box<MetroParams>,
        world: MetroWorld,
        domains: u32,
    },
}

/// What one pass over the workload produced. `digest` covers only the
/// deterministic payload; the rest feeds the per-layer metrics.
pub struct Pass {
    pub digest: u64,
    pub events: u64,
    pub metrics: MetricsSheet,
    pub profile: SpanSheet,
    pub series: SeriesSheet,
    /// Wall time of each unit the pass retired: sweep cells (cell-fold
    /// passes only) or metropolis event domains.
    pub unit_walls: Vec<Duration>,
    /// A broken output invariant (unclassified failure, pending flow, …).
    pub problem: Option<String>,
}

/// Build the inputs from the seed. `quick` shrinks every workload to a
/// smoke size (3 vantage points × 5 sites; 2k flows).
pub fn prepare(kind: Kind, seed: u64, quick: bool) -> Inputs {
    let sweep = |trials: u32, strategies: &[Option<StrategyKind>], faults: FaultConfig| {
        let scenario = if quick {
            Scenario::smoke(seed)
        } else {
            Scenario::paper_inside(seed)
        };
        let configs = strategies
            .iter()
            .map(|&s| {
                let mut cfg = SweepConfig::new(s, true, trials, seed);
                cfg.faults = faults.clone();
                cfg
            })
            .collect();
        Inputs::Sweep { scenario, configs }
    };
    let metro = |domains: u32| {
        let params = MetroParams::new(if quick { 2_000 } else { 100_000 }, seed);
        let world = generate_world(&params);
        Inputs::Metro {
            params: Box::new(params),
            world,
            domains,
        }
    };
    match kind {
        // The strategy set of `bench_sweep`, so the two stay comparable.
        Kind::PaperSweep => sweep(
            3,
            &[
                Some(StrategyKind::NoStrategy),
                Some(StrategyKind::InOrderOverlap(Discrepancy::SmallTtl)),
                Some(StrategyKind::ImprovedTeardown),
                Some(StrategyKind::TcbCreationResyncDesync),
                Some(StrategyKind::TeardownTcbReversal),
            ],
            FaultConfig::off(),
        ),
        Kind::FaultedAdaptive => sweep(6, &[None], FaultConfig::at_intensity(1.0)),
        Kind::MetroShared => metro(1),
        Kind::MetroDomains => metro(8),
    }
}

/// The work a run does before its first event: build the first trial's
/// simulation (which compiles the shared DPI automaton), or every domain's
/// metropolis simulation. Returns the time spent in the metropolis builds.
pub fn ready(inputs: &Inputs) -> Duration {
    match inputs {
        Inputs::Sweep { scenario, configs } => {
            let cfg = &configs[0];
            let spec = TrialSpec::new(
                &scenario.vantage_points[0],
                &scenario.websites[0],
                cfg.strategy,
                cfg.keyword,
                cfg.master_seed,
            );
            std::hint::black_box(build_http_sim(&spec));
            Duration::ZERO
        }
        Inputs::Metro { params, world, domains } => {
            let started = Instant::now();
            for d in 0..*domains {
                std::hint::black_box(build_metropolis_domain(params, world, *domains, d));
            }
            started.elapsed()
        }
    }
}

/// Fetches one repetition performs: trials for sweeps, flows for metro.
pub fn fetches(inputs: &Inputs) -> u64 {
    match inputs {
        Inputs::Sweep { scenario, configs } => {
            let cells = (scenario.vantage_points.len() * scenario.websites.len()) as u64;
            configs.iter().map(|c| cells * u64::from(c.trials)).sum()
        }
        Inputs::Metro { world, .. } => world.specs.len() as u64,
    }
}

/// One repetition through the program's own executors on one worker.
pub fn run(inputs: &Inputs) -> Pass {
    match inputs {
        Inputs::Sweep { scenario, configs } => {
            let mut acc = SweepDigest::new();
            let mut profile = SpanSheet::new();
            let mut series = SeriesSheet::new();
            for cfg in configs {
                let r = sweep_with_threads(scenario, cfg, 1);
                acc.absorb(&r.rows, r.trials, r.events, &r.metrics, &r.diagnoses, r.violations);
                profile.merge(&r.profile());
                if let Some(s) = &r.series {
                    series.merge(s);
                }
            }
            acc.finish(profile, series, Vec::new())
        }
        Inputs::Metro { params, world, domains } => run_metro(params, world, *domains),
    }
}

/// The sweep repetition driven cell by cell from here with
/// `run_cell_telemetry`, each cell timed and folded in cell order. Its
/// digest must equal [`run`]'s, which checks the executor's ordered merge.
pub fn run_cells(inputs: &Inputs) -> Pass {
    let Inputs::Sweep { scenario, configs } = inputs else {
        unreachable!("cell-by-cell passes exist only for sweep workloads")
    };
    let n_sites = scenario.websites.len();
    let mut acc = SweepDigest::new();
    let mut walls = Vec::new();
    for cfg in configs {
        let mut rows: Vec<(String, Aggregate)> = scenario
            .vantage_points
            .iter()
            .map(|vp| (vp.name.to_string(), Aggregate::default()))
            .collect();
        let (mut events, mut violations) = (0u64, 0u64);
        let mut metrics = MetricsSheet::new();
        let mut diagnoses = Vec::new();
        let cells = rows.len() * n_sites;
        for i in 0..cells {
            let (vp, site) = (i / n_sites, i % n_sites);
            let started = Instant::now();
            let cell = run_cell_telemetry(&scenario.vantage_points[vp], vp, &scenario.websites[site], site, cfg);
            walls.push(started.elapsed());
            rows[vp].1.merge(cell.agg);
            events += cell.events;
            metrics.merge(&cell.metrics);
            diagnoses.extend(cell.diagnoses);
            violations += cell.violations;
        }
        acc.absorb(
            &rows,
            cells as u64 * u64::from(cfg.trials),
            events,
            &metrics,
            &diagnoses,
            violations,
        );
    }
    acc.finish(SpanSheet::new(), SeriesSheet::new(), walls)
}

/// One metropolis run: `domains` event domains on one worker thread.
pub fn run_metro(params: &MetroParams, world: &MetroWorld, domains: u32) -> Pass {
    let r = run_metropolis_domains_world(params, world, domains, 1);
    let run = &r.run;
    let mut h = Fnv::new();
    let (spawned, succeeded, reset, stalled) = run.counts;
    let _ = write!(h, "counts {spawned} {succeeded} {reset} {stalled};events {};", run.events);
    for f in &run.results {
        let _ = write!(h, "{}:{}:{},", flow_outcome_code(f.outcome), f.latency_us, f.shard);
    }
    for s in &run.shards {
        let _ = write!(
            h,
            "shard {} {} {} {} {} {} {} {};",
            s.flows, s.succeeded, s.reset, s.stalled, s.pending, s.latency_sum_us, s.latency_min_us, s.latency_max_us
        );
    }
    let _ = write!(
        h,
        "interference {} {} {};",
        run.collateral_resets, run.tcbs_evicted, run.resync_storms
    );
    digest_metrics(&mut h, &run.metrics);

    let pending = run.results.iter().filter(|f| f.outcome == FlowOutcome::Pending).count();
    let problem = if spawned != world.specs.len() as u64 || succeeded + reset + stalled != spawned || pending > 0 {
        Some(format!(
            "{pending} flows never finished; counts {:?} for {} flows",
            run.counts,
            world.specs.len()
        ))
    } else if run.order_violations > 0 || run.violations > 0 {
        Some(format!(
            "{} per-flow order violations, {} simcheck violations",
            run.order_violations, run.violations
        ))
    } else {
        None
    };
    let mut profile = SpanSheet::new();
    for p in &r.worker_profiles {
        profile.merge(p);
    }
    Pass {
        digest: h.0,
        events: run.events,
        metrics: run.metrics.clone(),
        profile,
        series: run.series.as_deref().cloned().unwrap_or_default(),
        unit_walls: r.domain_stats.iter().map(|d| d.busy).collect(),
        problem,
    }
}

/// Running digest and checks over a sweep's strategy runs, fed either by
/// `sweep_with_threads` or by the cell-by-cell fold.
struct SweepDigest {
    h: Fnv,
    events: u64,
    metrics: MetricsSheet,
    problem: Option<String>,
}

impl SweepDigest {
    fn new() -> SweepDigest {
        SweepDigest {
            h: Fnv::new(),
            events: 0,
            metrics: MetricsSheet::new(),
            problem: None,
        }
    }

    fn absorb(
        &mut self,
        rows: &[(String, Aggregate)],
        trials: u64,
        events: u64,
        metrics: &MetricsSheet,
        diagnoses: &[TrialDiagnosis],
        violations: u64,
    ) {
        let h = &mut self.h;
        for (vp, a) in rows {
            let _ = write!(h, "row {vp} {} {} {};", a.success, a.failure1, a.failure2);
        }
        let _ = write!(h, "events {events};");
        digest_metrics(h, metrics);
        for d in diagnoses {
            let _ = write!(
                h,
                "diag {} {} {} {} {} {} {};",
                d.vp,
                d.site,
                d.trial,
                d.seed,
                outcome_code(d.outcome),
                d.vector.name(),
                d.resets_seen
            );
        }
        self.events += events;
        self.metrics.merge(metrics);

        let ran: u64 = rows.iter().map(|(_, a)| u64::from(a.total())).sum();
        let failed: u64 = rows.iter().map(|(_, a)| u64::from(a.failure1 + a.failure2)).sum();
        let unclassified = diagnoses.iter().filter(|d| d.vector == FailureVector::Unclassified).count();
        if self.problem.is_none() {
            self.problem = if ran != trials || diagnoses.len() as u64 != failed {
                Some(format!(
                    "{ran} of {trials} trials ran, {} diagnoses for {failed} failures",
                    diagnoses.len()
                ))
            } else if unclassified > 0 || violations > 0 {
                Some(format!("{unclassified} unclassified failures, {violations} simcheck violations"))
            } else {
                None
            };
        }
    }

    fn finish(self, profile: SpanSheet, series: SeriesSheet, unit_walls: Vec<Duration>) -> Pass {
        Pass {
            digest: self.h.0,
            events: self.events,
            metrics: self.metrics,
            profile,
            series,
            unit_walls,
            problem: self.problem,
        }
    }
}

fn outcome_code(o: Outcome) -> u8 {
    match o {
        Outcome::Success => 0,
        Outcome::Failure1 => 1,
        Outcome::Failure2 => 2,
    }
}

fn flow_outcome_code(o: FlowOutcome) -> u8 {
    match o {
        FlowOutcome::Pending => 0,
        FlowOutcome::Success => 1,
        FlowOutcome::Reset => 2,
        FlowOutcome::Stalled => 3,
    }
}

/// Every non-zero counter and histogram, by its stable export name.
fn digest_metrics(h: &mut Fnv, m: &MetricsSheet) {
    for (c, v) in m.nonzero_counters() {
        let _ = write!(h, "{}={v};", c.name());
    }
    for (id, hist) in m.nonzero_hists() {
        let _ = write!(h, "{} {} {} {:?};", id.name(), hist.count, hist.sum, hist.buckets);
    }
}

/// 64-bit FNV-1a over everything written into it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}
