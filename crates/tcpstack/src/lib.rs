//! # intang-tcpstack
//!
//! A complete, deterministic TCP endpoint whose packet-disposition behavior
//! is parameterized by a **version profile** modeling the Linux kernels the
//! paper analyzes (§5.3): 4.4, 4.0, 3.14, 2.6.34, 2.4.37 and the pre-3.8
//! behavior referenced in §3.4.
//!
//! The paper's "ignore path" methodology identifies all the points where a
//! server's TCP implementation *ignores* a received packet while the GFW
//! *accepts* it — each such discrepancy is a candidate insertion packet
//! (Table 3). This stack makes every one of those paths explicit: whenever
//! a packet is discarded, an [`ignore::IgnoreEvent`] records which path
//! fired, so tests can see why. The Table 3 oracle in `intang-experiments`
//! (`oracle`) drives this stack into SYN_RECV or ESTABLISHED, fires each
//! candidate packet at it, and reads the disposition off the socket.
//!
//! Scope notes (in the smoltcp spirit of documenting omissions): no
//! congestion control, no SACK, no delayed ACK, no window scaling — none of
//! which affect the censorship mechanics under study. Retransmission is a
//! plain doubling RTO. Everything else needed by the paper is here:
//! three-way handshakes, the full state machine, in-order and out-of-order
//! reassembly with explicit overlap policies, RFC 5961 challenge ACKs,
//! RFC 2385 MD5 option rejection, PAWS, and version-specific handling of
//! flag-less and ACK-less segments.

pub mod endpoint;
pub mod ignore;
mod pool;
pub mod profile;
pub mod reasm;
pub mod socket;

pub use endpoint::{QuietEndpoint, SocketHandle, TcpEndpoint};
pub use ignore::{IgnoreEvent, IgnoreReason};
pub use profile::{LinuxVersion, RstPolicy, StackProfile, SynInEstablished};
pub use socket::{Socket, TcpState};
