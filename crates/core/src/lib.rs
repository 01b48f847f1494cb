//! # intang-core — INTANG
//!
//! The paper's contribution: a client-side, measurement-driven censorship
//! evasion engine (§6). It runs as an interception shim on the client host
//! (the simulator's stand-in for netfilter-queue + raw sockets) and
//! implements:
//!
//! * every **evasion strategy** the paper measures — the existing ones of
//!   §3.2 (TCB creation with SYN, out-of-order and in-order data
//!   overlapping, TCB teardown with RST / RST-ACK / FIN), the improved
//!   variants of §7.1, the new strategies of §5.2 (Resync+Desync, TCB
//!   Reversal) and the combined strategies of Fig. 3 / Fig. 4;
//! * **insertion-packet crafting** under the Table 5 policy (TTL, MD5
//!   option, bad ACK, old timestamp, bad checksum, no-flag), with
//!   configurable redundancy (×3 with 20 ms gaps, §3.4);
//! * **hop-count estimation** à la tcptraceroute for TTL-scoped insertion
//!   packets (δ = 2 heuristic, §7.1);
//! * a **two-level cache** (transient LRU in front of a TTL key-value
//!   store — the paper's in-memory LRU + Redis, §6);
//! * **adaptive strategy selection** from per-destination historical
//!   outcomes (the "INTANG performance" row of Table 4);
//! * the **DNS-over-TCP forwarder** that converts UDP DNS queries into
//!   evasion-protected TCP queries against a clean resolver (§6, Table 6).

pub mod cache;
pub mod dns_forwarder;
pub mod engine;
pub mod insertion;
pub mod measure;
pub mod select;
pub mod strategies;
pub mod strategy;
pub mod ttl;

pub use engine::{IntangConfig, IntangElement, IntangHandle, IntangStats};
pub use insertion::{Discrepancy, InsertionKind};
pub use strategy::{StrategyId, StrategyKind};
