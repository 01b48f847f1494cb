//! §7.3 — Tor bridge blocking / rescue and the OpenVPN regimes.

use crate::args::CommonArgs;
use crate::report::Table;
use crate::scenario::VantagePoint;
use crate::trial_tor::{run_tor_trial, run_vpn_trial, TorOutcome, TorTrialSpec, VpnOutcome, VpnTrialSpec};

pub fn run(args: &CommonArgs) -> String {
    let trials = args.trials_or(5);
    let vps = VantagePoint::inside_china();
    let mut t = Table::new(
        &format!(
            "§7.3 Tor — {} sessions per cell (paper: 4 northern vantage points unfiltered; others probed+IP-blocked; INTANG rescues 100%)",
            trials
        ),
        &["Vantage point", "City", "Tor-filtered path", "Plain Tor", "Tor + INTANG"],
    );
    let mut plain_blocked = 0;
    let mut intang_ok = 0;
    let mut filtered_cells = 0;
    for (vi, vp) in vps.iter().enumerate() {
        // Working, blocked and disrupted sessions without and with INTANG.
        let [plain, protected] = [(false, 0), (true, 0x99)].map(|(use_intang, salt)| {
            let mut tally = (0, 0, 0);
            for tr in 0..trials {
                let seed = args.seed ^ ((vi as u64) << 32) ^ u64::from(tr) ^ salt;
                let spec = TorTrialSpec {
                    vp,
                    use_intang,
                    seed,
                    cells: 3,
                };
                match run_tor_trial(&spec).0 {
                    TorOutcome::Working => tally.0 += 1,
                    TorOutcome::IpBlocked => tally.1 += 1,
                    TorOutcome::Disrupted => tally.2 += 1,
                }
            }
            tally
        });
        if vp.tor_filtered {
            filtered_cells += 1;
            plain_blocked += u32::from(plain.1 > 0);
            intang_ok += u32::from(protected.0 == trials);
        }
        t.row(vec![
            vp.name.to_string(),
            vp.city.to_string(),
            if vp.tor_filtered { "yes".into() } else { "no".into() },
            format!("{}W/{}B/{}D", plain.0, plain.1, plain.2),
            format!("{}W/{}B/{}D", protected.0, protected.1, protected.2),
        ]);
    }
    let mut out = t.render();
    out.push_str(&format!(
        "\nFiltered paths: {}/{} saw their bridge IP-blocked without INTANG; {}/{} ran clean with INTANG.\n",
        plain_blocked, filtered_cells, intang_ok, filtered_cells
    ));

    // VPN regimes.
    let mut tv = Table::new(
        "§7.3 VPN — OpenVPN-over-TCP under both censor regimes",
        &["Regime", "Plain OpenVPN", "OpenVPN + INTANG"],
    );
    let vp = &vps[0];
    let vpn = |vpn_dpi, use_intang, seed| {
        let spec = VpnTrialSpec {
            vp,
            vpn_dpi,
            use_intang,
            seed,
        };
        match run_vpn_trial(&spec) {
            VpnOutcome::TunnelUp => "tunnel up",
            VpnOutcome::ResetDuringHandshake => "RESET during handshake",
            VpnOutcome::Failed => "failed",
        }
        .to_string()
    };
    let s = args.seed;
    tv.row(vec!["Nov 2016 (DPI resets on)".into(), vpn(true, false, s), vpn(true, true, s ^ 1)]);
    tv.row(vec![
        "2017 replay (DPI resets off)".into(),
        vpn(false, false, s ^ 2),
        vpn(false, true, s ^ 3),
    ]);
    out.push('\n');
    out.push_str(&tv.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tor_geography_and_rescue_shape() {
        let args = CommonArgs::parse_from(vec!["--trials".to_string(), "2".to_string()]).unwrap();
        let out = run(&args);
        // Unfiltered northern points run plain Tor fine.
        for name in ["aliyun-bj", "aliyun-qd", "qcloud-bj", "qcloud-zjk"] {
            let line = out.lines().find(|l| l.starts_with(name)).unwrap();
            assert!(line.contains("no"), "{line}");
            assert!(line.contains("2W/0B/0D"), "plain Tor works from {name}: {line}");
        }
        // INTANG rescues (nearly) every filtered path; QCloud's occasional
        // RST-dropping middlebox (Table 2) can eat a whole insertion volley.
        let clean: u32 = out
            .lines()
            .find(|l| l.contains("ran clean with INTANG"))
            .and_then(|l| l.split("; ").nth(1))
            .and_then(|s| s.split('/').next())
            .and_then(|s| s.parse().ok())
            .unwrap();
        assert!(clean >= 6, "{out}");
        // VPN: DPI regime resets plain, INTANG keeps it up; off-regime both up.
        assert!(out.contains("RESET during handshake"));
        let vpn_up = out.matches("tunnel up").count();
        assert_eq!(vpn_up, 3, "{out}");
    }
}
