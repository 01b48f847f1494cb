//! Golden-trace regression tests: one canonical trial per strategy family,
//! rendered as the causal lineage of the trial's final packet event and
//! compared byte-for-byte against a checked-in snapshot.
//!
//! These pin the *mechanism*, not just the outcome: if a refactor changes
//! which packets a strategy emits, in what order, or how the censor reacts
//! to them, the lineage changes even when the trial still "succeeds".
//!
//! To regenerate after an intentional behaviour change:
//!
//! ```text
//! INTANG_BLESS=1 cargo test --test golden_traces
//! ```
//!
//! then review the diff under `tests/golden/` like any other code change.
//! `INTANG_BLESS` takes only unset, `0` or `1`; any other value fails the
//! test rather than silently comparing.
//!
//! One more case pins the science rather than one mechanism: every
//! harness's `--quick` output, concatenated exactly as `all --quick`
//! prints it, against `tests/golden/all_quick.txt`.

use intang_core::{Discrepancy, StrategyKind};
use intang_experiments::args::CommonArgs;
use intang_experiments::exps;
use intang_experiments::scenario::{Scenario, Website};
use intang_experiments::trial::{build_http_sim, TrialSpec};
use intang_netsim::Instant;
use std::path::PathBuf;

/// A benign, fully deterministic path: evolved censor only, no client- or
/// server-side middlebox interference, zero natural loss, no route change.
fn benign_site() -> (Scenario, Website) {
    let s = Scenario::smoke(11);
    let mut site = s.websites[0].clone();
    site.old_device = false;
    site.evolved_device = true;
    site.server_seqfw = false;
    site.server_conntrack = false;
    site.path_drops_noflag = false;
    site.flaky_server = false;
    site.loss = 0.0;
    site.rst_resync_prob = 0.2;
    (s, site)
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

/// Run the canonical trial for `kind` and render the last trace event's
/// causal chain.
fn render_trial(kind: StrategyKind) -> String {
    let (s, site) = benign_site();
    let mut spec = TrialSpec::new(&s.vantage_points[0], &site, Some(kind), true, 42);
    spec.route_change_prob = 0.0;
    let (mut sim, parts) = build_http_sim(&spec);
    sim.trace.enable();
    sim.run_until(Instant(25_000_000));
    let last = sim.trace.events().last().expect("trial produced trace events").id;
    let got_response = parts.report.borrow().response.is_some();
    let resets = {
        let st = parts.intang.stats();
        st.type1_resets_seen + st.type2_resets_seen
    };
    format!(
        "strategy: {kind:?}\nresponse: {got_response}\nresets_seen: {resets}\nlineage of final event:\n{}",
        sim.trace.render_lineage(last)
    )
}

fn check(name: &str, kind: StrategyKind) {
    compare(name, &render_trial(kind));
}

/// Byte-compare `rendered` with the snapshot `name`, or rewrite the
/// snapshot under `INTANG_BLESS=1`.
fn compare(name: &str, rendered: &str) {
    let path = golden_path(name);
    if intang_telemetry::knobs::flag("INTANG_BLESS").unwrap_or_else(|msg| panic!("{msg}")) {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create tests/golden");
        std::fs::write(&path, rendered).expect("write golden snapshot");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run INTANG_BLESS=1 cargo test --test golden_traces",
            path.display()
        )
    });
    assert_eq!(
        rendered, want,
        "golden trace '{name}' drifted; if intentional, regenerate with INTANG_BLESS=1 cargo test --test golden_traces"
    );
}

#[test]
fn golden_no_strategy() {
    check("no_strategy", StrategyKind::NoStrategy);
}

#[test]
fn golden_tcb_creation_syn() {
    check("tcb_creation_syn", StrategyKind::TcbCreationSyn(Discrepancy::SmallTtl));
}

#[test]
fn golden_in_order_overlap() {
    check("in_order_overlap", StrategyKind::InOrderOverlap(Discrepancy::SmallTtl));
}

#[test]
fn golden_teardown_rst() {
    check("teardown_rst", StrategyKind::TeardownRst(Discrepancy::SmallTtl));
}

#[test]
fn golden_improved_teardown() {
    check("improved_teardown", StrategyKind::ImprovedTeardown);
}

#[test]
fn golden_tcb_creation_resync_desync() {
    check("tcb_creation_resync_desync", StrategyKind::TcbCreationResyncDesync);
}

#[test]
fn golden_teardown_tcb_reversal() {
    check("teardown_tcb_reversal", StrategyKind::TeardownTcbReversal);
}

#[test]
fn golden_out_of_order_ip_frag() {
    check("out_of_order_ip_frag", StrategyKind::OutOfOrderIpFrag);
}

/// Metropolis golden: a 16-flow shared world whose final activity is a
/// collateral reset — flow 13 carries the keyword and poisons
/// (client 0, site 0); flow 15, benign on the same pair, starts last and
/// dies by blacklist. The snapshot pins the cross-flow causal chain: the
/// lineage of the run's final packet event threads from flow 15's own
/// traffic through the censor's blacklist volley.
#[test]
fn golden_metropolis_collateral() {
    use intang_apps::metro::{FlowOutcome, FlowSpec};
    use intang_experiments::metropolis::{build_metropolis_domain, MetroParams, MetroWorld};
    use intang_netsim::Duration;
    use std::net::Ipv4Addr;
    use std::sync::Arc;

    // (start_us, client_idx, site_idx, keyword)
    let placement: [(u64, u32, u32, bool); 16] = [
        (0, 1, 0, false),
        (1_000, 1, 1, false),
        (2_000, 1, 0, false),
        (3_000, 1, 1, false),
        (4_000, 1, 0, false),
        (5_000, 1, 1, false),
        (6_000, 1, 0, false),
        (7_000, 1, 1, false),
        (8_000, 1, 0, false),
        (9_000, 1, 1, false),
        (10_000, 1, 0, false),
        (11_000, 1, 1, false),
        (12_000, 1, 0, false),
        (20_000, 0, 0, true),   // detected: blacklists (client 0, site 0)
        (250_000, 1, 1, false), // unrelated late flow, untouched
        (300_000, 0, 0, false), // collateral: benign on the poisoned pair
    ];
    // One global censor, built as the serial (single-domain) world.
    let world = MetroWorld::new(
        Arc::new([Ipv4Addr::new(10, 1, 0, 1), Ipv4Addr::new(10, 1, 0, 2)]),
        Arc::new([Ipv4Addr::new(203, 0, 113, 1), Ipv4Addr::new(203, 0, 113, 2)]),
        placement
            .iter()
            .enumerate()
            .map(|(id, &(start, client, site, keyword))| FlowSpec {
                start: Instant(start),
                client,
                site,
                isn: 0x2000_0000 + id as u32,
                keyword,
                request_delay: Duration::ZERO,
            })
            .collect(),
        Arc::new([StrategyKind::NoStrategy; 16]),
        1,
    );
    let mut p = MetroParams::new(16, 16);
    p.shards = 1;
    p.horizon = Instant(1_000_000);
    let (mut sim, parts) = build_metropolis_domain(&p, &world, 1, 0);
    sim.trace.enable();
    sim.run_until(p.horizon);

    let last = sim.trace.events().last().expect("metropolis produced trace events").id;
    let results = parts.metro.results();
    let ok = results.iter().filter(|r| r.outcome == FlowOutcome::Success).count();
    let reset = results.iter().filter(|r| r.outcome == FlowOutcome::Reset).count();
    let stalled = results.iter().filter(|r| r.outcome == FlowOutcome::Stalled).count();
    let rendered = format!(
        "flows: 16\noutcomes: ok={ok} reset={reset} stalled={stalled}\ncollateral_resets: {}\nvictim outcome: {:?}\nlineage of final event:\n{}",
        parts.gfw.blacklist_collateral_resets(),
        results[15].outcome,
        sim.trace.render_lineage(last)
    );
    compare("metropolis_16", &rendered);
}

/// The whole evaluation at `--quick`: every harness in `exps::ALL`, each
/// output followed by a newline, which is byte for byte what `all --quick`
/// writes to stdout.
#[test]
fn golden_all_quick() {
    let args = CommonArgs::parse_from(["--quick".to_string()]).expect("--quick parses");
    let mut out = String::new();
    for (_, run) in exps::ALL {
        out.push_str(&run(&args));
        out.push('\n');
    }
    compare("all_quick", &out);
}
