//! One module per reproduced artifact; each exposes `run(&CommonArgs) ->
//! String` so the `all` binary and integration tests can drive them.

use crate::args::CommonArgs;

pub mod ablations;
pub mod arms_race;
pub mod convergence;
pub mod device_types;
pub mod fault_matrix;
pub mod figures;
pub mod hypotheses;
pub mod reset_fingerprint;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod tor_vpn;

/// One harness: the artifact's text for the given flags.
pub type Harness = fn(&CommonArgs) -> String;

/// Every harness as `(name, run)`, in the order `all` prints them.
pub const ALL: &[(&str, Harness)] = &[
    ("table1", table1::run),
    ("table2", table2::run),
    ("table3", table3::run),
    ("table4", table4::run),
    ("table5", table5::run),
    ("table6", table6::run),
    ("hypotheses", hypotheses::run),
    ("figures", figures::run),
    ("tor_vpn", tor_vpn::run),
    ("reset_fingerprint", reset_fingerprint::run),
    ("ablations", ablations::run),
    ("arms_race", arms_race::run),
    ("device_types", device_types::run),
    ("convergence", convergence::run),
    ("fault_matrix", fault_matrix::run),
];
