//! Reproducibility guarantees: a (scenario, seed) pair fully determines a
//! run — the property every measurement in EXPERIMENTS.md rests on.

use intang_core::StrategyKind;
use intang_experiments::runner::{run_cell_telemetry, sweep_with_threads, SweepConfig};
use intang_experiments::scenario::Scenario;
use intang_experiments::trial::{run_http_trial, Outcome, TrialSpec};
use intang_faults::FaultConfig;
use intang_telemetry::{Counter, FailureVector};

#[test]
fn identical_seeds_reproduce_identical_outcomes() {
    let s = Scenario::paper_inside(99);
    let site = &s.websites[3];
    let vp = &s.vantage_points[4];
    for seed in [1u64, 17, 999_983] {
        let a = run_http_trial(&TrialSpec::new(
            vp,
            site,
            Some(StrategyKind::TeardownRst(intang_core::Discrepancy::SmallTtl)),
            true,
            seed,
        ));
        let b = run_http_trial(&TrialSpec::new(
            vp,
            site,
            Some(StrategyKind::TeardownRst(intang_core::Discrepancy::SmallTtl)),
            true,
            seed,
        ));
        assert_eq!(a.outcome, b.outcome, "seed {seed}");
        assert_eq!(a.resets_seen, b.resets_seen, "seed {seed}");
        assert_eq!(a.gfw_detections, b.gfw_detections, "seed {seed}");
    }
}

#[test]
fn different_seeds_vary_stochastic_outcomes() {
    // TCB teardown against the evolved model is probabilistic (sticky
    // resync): across enough seeds both outcomes must appear.
    let s = Scenario::paper_inside(99);
    let mut site = s.websites[0].clone();
    site.old_device = false;
    site.evolved_device = true;
    site.server_seqfw = false;
    site.server_conntrack = false;
    site.flaky_server = false;
    site.loss = 0.0;
    site.rst_resync_prob = 0.5; // crank the coin toward fairness
    let vp = &s.vantage_points[0];
    let mut successes = 0;
    let mut failures = 0;
    for seed in 0..24 {
        let mut spec = TrialSpec::new(
            vp,
            &site,
            Some(StrategyKind::TeardownRst(intang_core::Discrepancy::SmallTtl)),
            true,
            4_000 + seed,
        );
        spec.route_change_prob = 0.0;
        match run_http_trial(&spec).outcome {
            Outcome::Success => successes += 1,
            _ => failures += 1,
        }
    }
    assert!(
        successes > 0 && failures > 0,
        "both outcomes occur: {successes} ok / {failures} bad"
    );
}

#[test]
fn whole_cells_replay_bit_identically() {
    let s = Scenario::smoke(7);
    let cfg = SweepConfig::new(Some(StrategyKind::ImprovedTeardown), true, 5, 1312);
    let a = run_cell_telemetry(&s.vantage_points[0], 0, &s.websites[0], 0, &cfg).agg;
    let b = run_cell_telemetry(&s.vantage_points[0], 0, &s.websites[0], 0, &cfg).agg;
    assert_eq!(a, b);
}

/// Every observable sweep output — rows, events, trials, the merged
/// metrics sheet, and every per-trial diagnosis — must be byte-identical
/// at 1, 2, and 8 workers. The streaming merge is a pure scheduling
/// change; any drift here means it changed semantics.
fn assert_sweep_identical_across_workers(cfg: &SweepConfig) {
    let s = Scenario::smoke(7);
    let reference = sweep_with_threads(&s, cfg, 1);
    for workers in [2usize, 8] {
        let run = sweep_with_threads(&s, cfg, workers);
        let tag = format!("{workers} workers, strategy {:?}", cfg.strategy);
        assert_eq!(reference.rows, run.rows, "rows differ at {tag}");
        assert_eq!(reference.events, run.events, "events differ at {tag}");
        assert_eq!(reference.trials, run.trials, "trials differ at {tag}");
        assert_eq!(reference.metrics, run.metrics, "metrics differ at {tag}");
        assert_eq!(reference.diagnoses, run.diagnoses, "diagnoses differ at {tag}");
        // Diagnostics (worker_stats, merge_high_water) are intentionally
        // excluded: wall-clock and reorder depth are scheduling-dependent.
    }
}

#[test]
fn sweep_results_are_independent_of_worker_count() {
    // Adaptive mode (strategy: None), where each cell owns its history.
    assert_sweep_identical_across_workers(&SweepConfig::new(None, true, 2, 1312));
}

#[test]
fn sweeps_are_identical_across_workers_and_batching_modes() {
    // A fixed strategy. The name dates from when event dispatch also had
    // a batched mode; `Simulation::step` is now the only dispatcher, so
    // the worker count is the one axis left.
    assert_sweep_identical_across_workers(&SweepConfig::new(Some(StrategyKind::ImprovedTeardown), true, 3, 1312));
}

#[test]
fn faulted_sweeps_are_independent_of_worker_count() {
    // The fault layer must not weaken the executor's determinism contract:
    // with plans active, rows, events, the merged metrics sheet, and every
    // per-trial diagnosis must be byte-identical at 1, 2, and 8 workers.
    let s = Scenario::smoke(7);
    let mut cfg = SweepConfig::new(Some(StrategyKind::ImprovedTeardown), true, 3, 1312);
    cfg.faults = FaultConfig::at_intensity(0.75);
    let serial = sweep_with_threads(&s, &cfg, 1);
    for workers in [2usize, 8] {
        let parallel = sweep_with_threads(&s, &cfg, workers);
        assert_eq!(serial.rows, parallel.rows, "rows differ at {workers} workers");
        assert_eq!(serial.events, parallel.events, "events differ at {workers} workers");
        assert_eq!(serial.metrics, parallel.metrics, "metrics differ at {workers} workers");
        assert_eq!(serial.diagnoses, parallel.diagnoses, "diagnoses differ at {workers} workers");
    }
    // The plans actually did something (otherwise this test is vacuous) ...
    let faulted: u64 = [
        Counter::NetsimBurstLosses,
        Counter::NetsimReordered,
        Counter::NetsimDuplicated,
        Counter::FaultRouteFlaps,
        Counter::GfwInjectionsSuppressed,
    ]
    .iter()
    .map(|&c| serial.metrics.counter(c))
    .sum();
    assert!(faulted > 0, "intensity 0.75 should realize some faults");
    // ... and every fault-induced failure still lands in a §5 bin.
    assert!(
        serial.diagnoses.iter().all(|d| d.vector != FailureVector::Unclassified),
        "fault-induced failures must classify: {:?}",
        serial.diagnoses
    );
}

#[test]
fn faulted_sweeps_replay_bit_identically() {
    let s = Scenario::smoke(19);
    let mut cfg = SweepConfig::new(None, true, 2, 77);
    cfg.faults = FaultConfig::at_intensity(0.5);
    let a = sweep_with_threads(&s, &cfg, 4);
    let b = sweep_with_threads(&s, &cfg, 4);
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.events, b.events);
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.diagnoses, b.diagnoses);
}

#[test]
fn zero_intensity_faults_change_nothing() {
    // FaultConfig::off() must leave a sweep byte-identical to one that
    // never mentions faults — the control row of the fault matrix.
    let s = Scenario::smoke(7);
    let plain = SweepConfig::new(Some(StrategyKind::TcbCreationResyncDesync), true, 3, 555);
    let mut zeroed = plain.clone();
    zeroed.faults = FaultConfig::off();
    let a = sweep_with_threads(&s, &plain, 2);
    let b = sweep_with_threads(&s, &zeroed, 2);
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.metrics, b.metrics);
    for c in [
        Counter::NetsimBurstLosses,
        Counter::NetsimReordered,
        Counter::NetsimDuplicated,
        Counter::NetsimMtuDropped,
        Counter::FaultRouteFlaps,
        Counter::GfwInjectionsSuppressed,
        Counter::GfwDeviceFlaps,
        Counter::GfwBlacklistJitterApplied,
        Counter::IntangReprotects,
        Counter::IntangRetriesAbandoned,
        Counter::IntangTtlReprobes,
    ] {
        assert_eq!(a.metrics.counter(c), 0, "{c:?} must stay zero without a plan");
    }
}

#[test]
fn scenario_generation_is_pure() {
    let a = Scenario::paper_inside(2017);
    let b = Scenario::paper_inside(2017);
    for (x, y) in a.websites.iter().zip(&b.websites) {
        assert_eq!(x.addr, y.addr);
        assert_eq!(x.core_hops, y.core_hops);
        assert_eq!(x.server_hops, y.server_hops);
        assert_eq!(x.rst_resync_prob, y.rst_resync_prob);
    }
    let c = Scenario::paper_inside(2018);
    let differs = a
        .websites
        .iter()
        .zip(&c.websites)
        .any(|(x, y)| x.core_hops != y.core_hops || x.old_device != y.old_device);
    assert!(differs, "different master seeds give different worlds");
}

#[test]
fn metropolis_domains_are_identical_to_the_serial_reference() {
    // The parallel-metropolis matrix: one 5k-flow world at 8 state
    // shards, split into 1/2/8 event domains on 1/2/8 work-stealing
    // threads — every cell byte-compared against the domains=1 serial
    // reference. The sharded censor/shim lanes make each shard's event
    // stream causally closed, so grouping shards into domains must not
    // move a single byte: outcome grid, counts, total events, merged
    // metrics, and the zip-summed gauge series all identical.
    use intang_experiments::metropolis::{run_metropolis_domains, MetroDomainsRun, MetroParams};

    let run_grid_cell = |domains: u32, workers: usize| -> MetroDomainsRun {
        let prev_series = intang_telemetry::series::set_thread(Some(true));
        let mut p = MetroParams::new(5_000, 77);
        p.shards = 8;
        let run = run_metropolis_domains(&p, domains, workers);
        intang_telemetry::series::set_thread(prev_series);
        run
    };

    let reference = run_grid_cell(1, 1);
    let ref_grid: Vec<_> = reference.run.results.iter().map(|r| (r.outcome, r.latency_us)).collect();
    assert_eq!(reference.run.counts.0, 5_000);
    assert_eq!(reference.run.order_violations, 0);
    assert!(reference.run.series.is_some(), "series telemetry must be on for the grid");

    for domains in [1u32, 2, 8] {
        for workers in [1usize, 2, 8] {
            let run = run_grid_cell(domains, workers);
            let tag = format!("{domains} domains, {workers} workers");
            let grid: Vec<_> = run.run.results.iter().map(|r| (r.outcome, r.latency_us)).collect();
            assert_eq!(ref_grid, grid, "per-flow outcome grid differs at {tag}");
            assert_eq!(reference.run.counts, run.run.counts, "counts differ at {tag}");
            assert_eq!(reference.run.events, run.run.events, "events differ at {tag}");
            assert_eq!(reference.run.metrics, run.run.metrics, "merged metrics differ at {tag}");
            assert_eq!(reference.run.series, run.run.series, "gauge series differ at {tag}");
            assert_eq!(reference.run.shards, run.run.shards, "shard summaries differ at {tag}");
            assert_eq!(
                (
                    reference.run.collateral_resets,
                    reference.run.tcbs_evicted,
                    reference.run.resync_storms
                ),
                (run.run.collateral_resets, run.run.tcbs_evicted, run.run.resync_storms),
                "censor counters differ at {tag}"
            );
            assert_eq!(run.run.order_violations, 0, "ordering regressions at {tag}");
            assert_eq!(
                run.domain_stats.iter().map(|d| d.events).sum::<u64>(),
                run.run.events,
                "domain events must partition the total at {tag}"
            );
        }
    }
}
