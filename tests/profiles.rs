//! Scriptable censor profiles: slot configs compiled per device from the
//! builtin GFW profiles must reproduce the cached builtin configs
//! byte-for-byte, the turkmenistan profile must behave like a genuinely
//! different censor and keep the runtime invariants, and per-device
//! heterogeneity must never cost worker-count determinism.

use intang_core::StrategyKind;
use intang_experiments::runner::{sweep_with_threads, SweepConfig};
use intang_experiments::scenario::Scenario;
use intang_gfw::CensorProfile;
use intang_telemetry::Counter;

fn builtin(name: &str) -> CensorProfile {
    CensorProfile::builtin(name).unwrap_or_else(|| panic!("`{name}` is a builtin profile"))
}

#[test]
fn profile_driven_sweeps_reproduce_builtin_sweeps_at_1_2_8_workers() {
    // Compiling gfw_prior + gfw_evolved once per device into every site's
    // slots is invisible — rows, events, merged metrics and per-trial
    // diagnoses byte-identical to the cached builtin configs, at every
    // worker count.
    let prior = builtin("gfw_prior");
    let evolved = builtin("gfw_evolved");
    let cached = Scenario::smoke(7);
    let per_device = Scenario::smoke(7).with_profiles(&prior, &evolved).expect("profiles compile");
    let cfg = SweepConfig::new(Some(StrategyKind::ImprovedTeardown), true, 3, 1312);
    let reference = sweep_with_threads(&cached, &cfg, 1);
    for workers in [1usize, 2, 8] {
        let run = sweep_with_threads(&per_device, &cfg, workers);
        assert_eq!(reference.rows, run.rows, "rows differ at {workers} workers");
        assert_eq!(reference.events, run.events, "events differ at {workers} workers");
        assert_eq!(reference.metrics, run.metrics, "metrics differ at {workers} workers");
        assert_eq!(reference.diagnoses, run.diagnoses, "diagnoses differ at {workers} workers");
    }
}

#[test]
fn adaptive_profile_sweeps_match_builtin_too() {
    // Adaptive mode exercises the strategy-selection history as well.
    let prior = builtin("gfw_prior");
    let evolved = builtin("gfw_evolved");
    let cfg = SweepConfig::new(None, true, 2, 99);
    let a = sweep_with_threads(&Scenario::smoke(3), &cfg, 2);
    let b = sweep_with_threads(&Scenario::smoke(3).with_profiles(&prior, &evolved).unwrap(), &cfg, 2);
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.metrics, b.metrics);
}

/// Compact, order-stable rendering of a sweep's outcome grid.
fn grid(rows: &[(String, intang_experiments::runner::Aggregate)]) -> String {
    rows.iter()
        .map(|(n, a)| format!("{n}={}/{}/{}", a.success, a.failure1, a.failure2))
        .collect::<Vec<_>>()
        .join(" ")
}

#[test]
fn turkmenistan_outcome_grid_is_distinct_deterministic_and_blockpage_driven() {
    let tk = builtin("turkmenistan");
    let scenario = Scenario::smoke(7).with_custom_censor(&tk).expect("profile compiles");
    // No evasion, keyword on: every fetch provokes the censor.
    let cfg = SweepConfig::new(Some(StrategyKind::NoStrategy), true, 3, 1312);
    let reference = sweep_with_threads(&scenario, &cfg, 1);

    // Distinct from the GFW models on the same paper scenario...
    let gfw = sweep_with_threads(&Scenario::smoke(7), &cfg, 1);
    assert_ne!(grid(&reference.rows), grid(&gfw.rows), "turkmenistan must not mimic the GFW grid");

    // ...blockpage-driven, with no type-2 blacklist machinery...
    assert!(
        reference.metrics.counter(Counter::GfwBlockpagesInjected) > 0,
        "blockpages must fire"
    );
    assert_eq!(
        reference.metrics.counter(Counter::GfwForgedSynacks),
        0,
        "no forged SYN/ACKs without type-2"
    );
    assert_eq!(
        reference.metrics.counter(Counter::GfwTcbResyncs),
        0,
        "the prior-generation machine never resynchronizes"
    );
    assert!(
        reference.metrics.counter(Counter::GfwProfileTurkmenistanDevices) > 0,
        "trials must be tagged with the turkmenistan device counter"
    );
    assert_eq!(reference.metrics.counter(Counter::GfwProfileEvolvedDevices), 0);

    // ...and byte-identical at every worker count.
    for workers in [2usize, 8] {
        let run = sweep_with_threads(&scenario, &cfg, workers);
        assert_eq!(reference.rows, run.rows, "rows differ at {workers} workers");
        assert_eq!(reference.metrics, run.metrics, "metrics differ at {workers} workers");
        assert_eq!(reference.diagnoses, run.diagnoses, "diagnoses differ at {workers} workers");
    }
}

#[test]
fn turkmenistan_sweeps_keep_every_runtime_invariant() {
    // The blockpage injector under the invariant checker, switched on for
    // this thread and so for every sweep worker: each cell checked, none
    // with a violation, with and without an evasion strategy.
    let scenario = Scenario::smoke(2017)
        .with_custom_censor(&builtin("turkmenistan"))
        .expect("profile compiles");
    let cells = (scenario.vantage_points.len() * scenario.websites.len()) as u64;
    for strategy in [StrategyKind::NoStrategy, StrategyKind::ImprovedTeardown] {
        let cfg = SweepConfig::new(Some(strategy), true, 3, 2017);
        let prev = intang_simcheck::set_thread(Some(true));
        let run = sweep_with_threads(&scenario, &cfg, 2);
        intang_simcheck::set_thread(prev);
        assert!(
            run.metrics.counter(Counter::GfwBlockpagesInjected) > 0,
            "{strategy:?}: blockpages fire"
        );
        assert_eq!(run.checked_cells, cells, "{strategy:?}");
        assert_eq!(run.violations, 0, "{strategy:?}");
    }
}

#[test]
fn heterogeneous_profiles_keep_worker_count_determinism() {
    // Seeded per-device perturbation draws from the site identity, never
    // from execution order — so a jittered fleet still replays
    // byte-identically at any worker count.
    let mut evolved = builtin("gfw_evolved");
    evolved.het_blacklist_jitter = 0.2;
    evolved.het_resync_jitter = 0.05;
    let prior = builtin("gfw_prior");
    let scenario = Scenario::smoke(7).with_profiles(&prior, &evolved).expect("profiles compile");
    let cfg = SweepConfig::new(Some(StrategyKind::ImprovedTeardown), true, 3, 1312);
    let reference = sweep_with_threads(&scenario, &cfg, 1);
    for workers in [2usize, 8] {
        let run = sweep_with_threads(&scenario, &cfg, workers);
        assert_eq!(reference.rows, run.rows, "rows differ at {workers} workers");
        assert_eq!(reference.metrics, run.metrics, "metrics differ at {workers} workers");
    }
    // And the same scenario rebuilt from scratch replays exactly.
    let rebuilt = Scenario::smoke(7).with_profiles(&prior, &evolved).unwrap();
    let again = sweep_with_threads(&rebuilt, &cfg, 4);
    assert_eq!(reference.rows, again.rows);
    assert_eq!(reference.metrics, again.metrics);
}

#[test]
fn metropolis_censor_profile_and_middlebox_knobs_hold_their_contracts() {
    use intang_experiments::metropolis::{middlebox_interference_diagnoses, run_metropolis_domains, MetroParams};
    // Turkmenistan metropolis: blockpages at 1k-flow scale, byte-identical
    // across the domain split.
    let mut p = MetroParams::new(1_000, 41);
    p.shards = 4;
    p.censor = Some(builtin("turkmenistan").compile().expect("profile compiles"));
    let reference = run_metropolis_domains(&p, 1, 1);
    assert!(
        reference.run.metrics.counter(Counter::GfwBlockpagesInjected) > 0,
        "metropolis turkmenistan must inject blockpages"
    );
    assert_eq!(reference.run.metrics.counter(Counter::GfwProfileTurkmenistanDevices), 1);
    let par = run_metropolis_domains(&p, 4, 4);
    assert_eq!(reference.run.counts, par.run.counts);
    assert_eq!(reference.run.metrics, par.run.metrics);

    // Middlebox knob composes with a profile censor and stays
    // deterministic across the domain split. (The nonzero-interference
    // regression at 1k flows runs against the stock censor in
    // `metropolis::tests::middlebox_hop_interferes_at_scale_...`.)
    p.middlebox = true;
    let mb = run_metropolis_domains(&p, 2, 2);
    let serial = run_metropolis_domains(&p, 1, 1);
    assert_eq!(serial.run.counts, mb.run.counts);
    assert_eq!(serial.run.metrics, mb.run.metrics);
    assert_eq!(
        middlebox_interference_diagnoses(&serial.run),
        middlebox_interference_diagnoses(&mb.run)
    );

    // And with the stock censor at the same seed, the seqfw does bite.
    p.censor = None;
    let stock = run_metropolis_domains(&p, 2, 2);
    assert!(
        stock.run.metrics.counter(Counter::MiddleboxSeqfwBlocked) > 0,
        "stock censor + seqfw must block at 1k flows"
    );
}
