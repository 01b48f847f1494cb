//! §8 — the arms race: harden the censor with the validations it does not
//! perform today (checksum, MD5 option, ACK number, timestamps) and
//! measure which evasion strategies survive.
//!
//! The paper's prediction: field-validation countermeasures are cheap for
//! the censor but do not close the topology-based channel — TTL-scoped
//! insertion packets survive every one of them, because the censor cannot
//! know where the path ends (§8 "one can also leverage GFW's agnostic
//! nature to network topology").

use crate::args::CommonArgs;
use crate::report::{pct, Table};
use crate::scenario::{CensorModel, Scenario, Website};
use crate::trial::{run_http_trial, Outcome, TrialSpec};
use intang_core::{Discrepancy, StrategyKind};
use intang_gfw::{CensorProfile, GfwConfig};

/// Every censor the strategy grid runs against. The §8 regimes edit the
/// site's own censor config; the profile-compiled censors follow: the
/// evolved profile must behave like the builtin evolved device, and the
/// turkmenistan profile (type-1 + blockpage, no resync machinery) is a
/// strictly weaker adversary for the TTL-scoped family.
fn regimes(site: &Website) -> Vec<(&'static str, GfwConfig)> {
    let today = site.gfw_configs().remove(0);
    let harden = |edit: fn(&mut GfwConfig)| {
        let mut cfg = today.clone();
        edit(&mut cfg);
        cfg
    };
    let compiled = |p: CensorProfile| p.compile().expect("builtin profiles compile");
    vec![
        ("today's GFW (no validation)", today.clone()),
        ("+ checksum validation", harden(|c| c.validate_checksum = true)),
        ("+ MD5 option rejection", harden(|c| c.check_md5 = true)),
        ("+ ACK validation", harden(|c| c.check_ack = true)),
        ("+ timestamp (PAWS) check", harden(|c| c.check_timestamp = true)),
        (
            "all four at once",
            harden(|c| {
                c.validate_checksum = true;
                c.check_md5 = true;
                c.check_ack = true;
                c.check_timestamp = true;
            }),
        ),
        ("gfw_evolved profile, no validation", compiled(CensorProfile::gfw_evolved())),
        ("turkmenistan profile, no validation", compiled(CensorProfile::turkmenistan())),
    ]
}

fn strategies() -> Vec<(&'static str, StrategyKind)> {
    vec![
        ("in-order/bad-csum", StrategyKind::InOrderOverlap(Discrepancy::BadChecksum)),
        ("in-order/bad-ACK", StrategyKind::InOrderOverlap(Discrepancy::BadAck)),
        ("in-order/TTL", StrategyKind::InOrderOverlap(Discrepancy::SmallTtl)),
        ("improved teardown (TTL)", StrategyKind::ImprovedTeardown),
        ("resync+desync (TTL)", StrategyKind::TcbCreationResyncDesync),
    ]
}

pub fn run(args: &CommonArgs) -> String {
    let scenario = Scenario::paper_inside(args.seed);
    let trials = args.trials_or(6);
    // A middlebox-benign evolved-only path isolates the censor-side effect.
    let mut site = scenario.websites[0].clone();
    site.old_device = false;
    site.evolved_device = true;
    site.server_seqfw = false;
    site.server_conntrack = false;
    site.flaky_server = false;
    site.path_drops_noflag = false;
    site.loss = 0.0;
    let vp = &scenario.vantage_points[0];

    let header: Vec<&str> = std::iter::once("Censor regime")
        .chain(strategies().iter().map(|(n, _)| *n))
        .collect();
    let mut t = Table::new(
        &format!("§8 arms race — strategy survival under censor hardening ({trials} trials/cell)"),
        &header,
    );
    for (regime_name, cfg) in regimes(&site) {
        let mut row = vec![regime_name.to_string()];
        let mut hsite = site.clone();
        hsite.censor = CensorModel::Custom(cfg);
        for (_, kind) in strategies() {
            let mut ok = 0;
            for tr in 0..trials {
                let mut spec = TrialSpec::new(vp, &hsite, Some(kind), true, args.seed ^ 0xace ^ u64::from(tr));
                spec.route_change_prob = 0.0;
                if run_http_trial(&spec).outcome == Outcome::Success {
                    ok += 1;
                }
            }
            row.push(pct(f64::from(ok) / f64::from(trials)));
        }
        t.row(row);
    }
    let mut out = t.render();
    out.push_str(
        "\nField-validation countermeasures kill exactly the strategy built on\n\
         the validated field; the TTL-scoped strategies survive all of them —\n\
         closing that channel would require the censor to learn per-path\n\
         topology, the escalation §8 argues is qualitatively more expensive.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hardening_kills_matching_strategy_but_not_ttl() {
        let out = run(&CommonArgs::parse_from(vec!["--trials".into(), "4".into()]).unwrap());
        let line = |prefix: &str| -> Vec<f64> {
            out.lines()
                .find(|l| l.starts_with(prefix))
                .unwrap_or_else(|| panic!("{prefix} row missing:\n{out}"))
                .split_whitespace()
                .filter(|w| w.ends_with('%'))
                .map(|w| w.trim_end_matches('%').parse().unwrap())
                .collect()
        };
        // Columns: bad-csum, bad-ACK, TTL, improved-teardown, resync+desync.
        let baseline = line("today's GFW");
        assert!(baseline.iter().all(|r| *r >= 75.0), "all work today: {baseline:?}");
        let csum = line("+ checksum validation");
        assert!(csum[0] <= 25.0, "checksum validation kills bad-csum junk: {csum:?}");
        assert!(csum[2] >= 75.0, "TTL survives: {csum:?}");
        let ack = line("+ ACK validation");
        assert!(ack[1] <= 25.0, "ACK validation kills bad-ACK junk: {ack:?}");
        let all = line("all four at once");
        assert!(all[0] <= 25.0 && all[1] <= 25.0);
        assert!(
            all[2] >= 75.0 && all[3] >= 75.0 && all[4] >= 75.0,
            "TTL-scoped family survives everything: {all:?}"
        );
        // The profile-compiled rows run the same machinery: the evolved
        // profile keeps the full strategy grid alive, and turkmenistan —
        // no resync, no type-2 volley — cannot beat the TTL family either.
        let profile = line("gfw_evolved profile");
        assert!(profile.iter().all(|r| *r >= 75.0), "evolved profile matches builtin: {profile:?}");
        let tk = line("turkmenistan profile");
        assert!(
            tk[2] >= 75.0 && tk[3] >= 75.0 && tk[4] >= 75.0,
            "TTL-scoped family beats the blockpage censor: {tk:?}"
        );
    }
}
