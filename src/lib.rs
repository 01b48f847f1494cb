//! # ysinm — "Your State is Not Mine" reproduction workspace
//!
//! Umbrella crate re-exporting the full reproduction of Wang et al.,
//! *Your State is Not Mine: A Closer Look at Evading Stateful Internet
//! Censorship* (IMC 2017). See README.md for the architecture tour and
//! EXPERIMENTS.md for the paper-vs-measured record.

pub use intang_apps as apps;
pub use intang_core as intang;
pub use intang_experiments as experiments;
pub use intang_gfw as gfw;
pub use intang_middlebox as middlebox;
pub use intang_netsim as netsim;
pub use intang_packet as packet;
pub use intang_tcpstack as tcpstack;
