//! Table 6: TCP DNS censorship evasion via INTANG's forwarder, per
//! resolver, with and without the Tianjin vantage point.

use crate::args::CommonArgs;
use crate::report::{pct, Table};
use crate::scenario::VantagePoint;
use crate::trial_dns::{run_dns_trial, DnsOutcome, DnsTrialSpec, DYN1, DYN2};

/// The engaged-NAT probability on the Tianjin home path (the paper leaves
/// the Tianjin anomaly unexplained; see EXPERIMENTS.md).
pub const TIANJIN_NAT_PROB: f64 = 0.65;

#[derive(Debug, PartialEq)]
pub struct Table6Row {
    pub resolver_name: &'static str,
    pub success_except_tj: f64,
    pub success_all: f64,
    pub tj_success: f64,
}

/// Both resolvers' rows, each swept on `workers` executor threads with
/// one unit per vantage point; the rows do not depend on `workers`.
pub fn run_rows(trials: u32, seed: u64, workers: usize) -> Vec<Table6Row> {
    let vps = VantagePoint::inside_china();
    [("Dyn 1", DYN1), ("Dyn 2", DYN2)]
        .into_iter()
        .enumerate()
        .map(|(ri, (resolver_name, resolver))| {
            let mut resolved = vec![0u32; vps.len()];
            crate::executor::run_units(
                vps.len(),
                workers,
                intang_telemetry::knobs::current(),
                |vi| {
                    let vp = &vps[vi];
                    let nat_prob = if vp.name == "unicom-tj" { TIANJIN_NAT_PROB } else { 0.0 };
                    let mut ok = 0u32;
                    for t in 0..trials {
                        let s = seed ^ ((ri as u64) << 48) ^ ((vi as u64) << 32) ^ u64::from(t);
                        let spec = DnsTrialSpec {
                            vp,
                            resolver,
                            use_intang: true,
                            seed: s,
                            nat_prob,
                        };
                        if run_dns_trial(&spec) == DnsOutcome::Resolved {
                            ok += 1;
                        }
                    }
                    ok
                },
                |vi, ok| resolved[vi] = ok,
            );
            let total: u32 = resolved.iter().sum();
            let tj_ok = vps
                .iter()
                .zip(&resolved)
                .find(|(vp, _)| vp.name == "unicom-tj")
                .map_or(0, |(_, ok)| *ok);
            let n_all = trials * vps.len() as u32;
            let n_except = trials * (vps.len() as u32 - 1);
            Table6Row {
                resolver_name,
                success_except_tj: f64::from(total - tj_ok) / f64::from(n_except),
                success_all: f64::from(total) / f64::from(n_all),
                tj_success: f64::from(tj_ok) / f64::from(trials),
            }
        })
        .collect()
}

pub fn run(args: &CommonArgs) -> String {
    let trials = args.trials_or(30);
    // Paper: Dyn1 98.6 / 92.7, Dyn2 99.6 / 93.1; Tianjin alone 38% and 24%.
    let paper = [(0.986, 0.927), (0.996, 0.931)];
    let mut t = Table::new(
        &format!(
            "Table 6 — TCP DNS evasion, {} queries of a censored domain per vantage point (paper in parentheses)",
            trials
        ),
        &["DNS resolver", "IP", "except Tianjin", "All", "Tianjin alone"],
    );
    for (row, (p_ex, p_all)) in run_rows(trials, args.seed, crate::runner::worker_count()).into_iter().zip(paper) {
        t.row(vec![
            row.resolver_name.to_string(),
            if row.resolver_name == "Dyn 1" {
                DYN1.to_string()
            } else {
                DYN2.to_string()
            },
            format!("{} ({})", pct(row.success_except_tj), pct(p_ex)),
            format!("{} ({})", pct(row.success_all), pct(p_all)),
            pct(row.tj_success),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let rows = run_rows(6, 321, 2);
        for r in &rows {
            assert!(
                r.success_except_tj > 0.9,
                "{}: non-Tianjin success {}",
                r.resolver_name,
                r.success_except_tj
            );
            assert!(
                r.tj_success < 0.7,
                "{}: Tianjin is the outlier, got {}",
                r.resolver_name,
                r.tj_success
            );
            assert!(r.success_all < r.success_except_tj + 1e-9);
        }
    }

    #[test]
    fn rows_are_identical_at_any_worker_count() {
        assert_eq!(run_rows(3, 99, 1), run_rows(3, 99, 8));
    }
}
