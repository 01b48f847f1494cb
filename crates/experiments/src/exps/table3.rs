//! Table 3: candidate insertion packets derived by the differential
//! "ignore path" oracle, annotated with the §5.3 cross-validations.

use crate::args::CommonArgs;
use crate::oracle::{derive_table3, StateContext};
use crate::report::Table;
use intang_gfw::GfwConfig;
use intang_tcpstack::StackProfile;

pub fn run(_args: &CommonArgs) -> String {
    let censor = GfwConfig::evolved();
    let findings = derive_table3(&StackProfile::linux_4_4(), &censor);

    let mut t = Table::new(
        "Table 3 — discrepancies between GFW and server (Linux 4.4) on ignoring packets",
        &[
            "TCP State",
            "GFW State",
            "TCP Flags",
            "Condition",
            "Middlebox-dropped-by",
            "Old-kernel caveats",
        ],
    );
    for f in &findings {
        let mut row = f.render_row().to_vec();
        row.push(if f.dropped_by.is_empty() {
            "-".into()
        } else {
            f.dropped_by.join(",")
        });
        row.push(if f.version_caveats.is_empty() {
            "-".into()
        } else {
            f.version_caveats.join("; ")
        });
        t.row(row);
    }

    let mut out = t.render();
    out.push_str("\nCross-validation sweep (server versions x candidate classes):\n");
    for profile in StackProfile::all() {
        let findings = derive_table3(&profile, &censor);
        let established = findings.iter().filter(|f| f.states.contains(&StateContext::Established)).count();
        out.push_str(&format!(
            "  {:<14} -> {} usable insertion-packet classes ({} in ESTABLISHED)\n",
            profile.version.to_string(),
            findings.len(),
            established
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_rows_cover_any_state() {
        let out = run(&CommonArgs::parse_from(Vec::new()).unwrap());
        assert!(out.contains("IP total length > actual length"));
        assert!(out.contains("TCP Header Length < 20"));
        assert!(out.contains("TCP checksum incorrect"));
        assert!(out.contains("Linux 2.4.37   -> 8 usable insertion-packet classes (5 in ESTABLISHED)"));
    }
}
