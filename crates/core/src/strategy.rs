//! The strategy framework: per-flow state, interception verdicts, and the
//! strategy catalogue.
//!
//! INTANG dictates "specific interception points and the corresponding
//! actions to take at each point" (§6). The shim calls a strategy at two
//! points — the initial SYN and the first payload (the request) — which is
//! where every strategy in the paper acts. The returning SYN/ACK only
//! updates [`FlowState`] (`synack_seen`, `server_isn`).

use crate::insertion::Discrepancy;
use intang_netsim::{Duration, Instant, SimRng};
use intang_packet::{FourTuple, TcpRepr, Wire};
use std::net::Ipv4Addr;

/// Identifiers for every strategy the paper measures, in Table 1 / Table 4
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    NoStrategy,
    /// §3.2 TCB creation: fake SYN before the real handshake.
    TcbCreationSyn(Discrepancy),
    /// §3.2 out-of-order data overlapping via IP fragments.
    OutOfOrderIpFrag,
    /// §3.2 out-of-order data overlapping via TCP segments.
    OutOfOrderTcpSeg,
    /// §3.2 in-order data overlapping (prefill with junk).
    InOrderOverlap(Discrepancy),
    /// §3.2 TCB teardown with RST / RST-ACK / FIN.
    TeardownRst(Discrepancy),
    TeardownRstAck(Discrepancy),
    TeardownFin(Discrepancy),
    /// §7.1 improved teardown: RST + desynchronization packet.
    ImprovedTeardown,
    /// §7.1 improved in-order overlap: Table 5-safe insertion packets.
    ImprovedInOrderOverlap,
    /// §5.2 Resync+Desync (combined with TCB creation, Fig. 3).
    TcbCreationResyncDesync,
    /// §5.2 TCB reversal (combined with TCB teardown, Fig. 4).
    TeardownTcbReversal,
    /// The West Chamber Project's approach (§2.2/§9, development ceased
    /// 2011): tear the censor's TCB down *from both directions* with a
    /// client-side RST and a spoofed server-side RST. Kept as a historical
    /// baseline; the paper found it no longer effective.
    WestChamber,
}

impl StrategyKind {
    /// Short stable id (cache keys, reports).
    pub fn id(self) -> StrategyId {
        StrategyId(match self {
            StrategyKind::NoStrategy => 0,
            StrategyKind::TcbCreationSyn(Discrepancy::SmallTtl) => 1,
            StrategyKind::TcbCreationSyn(_) => 2,
            StrategyKind::OutOfOrderIpFrag => 3,
            StrategyKind::OutOfOrderTcpSeg => 4,
            StrategyKind::InOrderOverlap(Discrepancy::SmallTtl) => 5,
            StrategyKind::InOrderOverlap(Discrepancy::BadAck) => 6,
            StrategyKind::InOrderOverlap(Discrepancy::BadChecksum) => 7,
            StrategyKind::InOrderOverlap(_) => 8,
            StrategyKind::TeardownRst(Discrepancy::SmallTtl) => 9,
            StrategyKind::TeardownRst(_) => 10,
            StrategyKind::TeardownRstAck(Discrepancy::SmallTtl) => 11,
            StrategyKind::TeardownRstAck(_) => 12,
            StrategyKind::TeardownFin(Discrepancy::SmallTtl) => 13,
            StrategyKind::TeardownFin(_) => 14,
            StrategyKind::ImprovedTeardown => 15,
            StrategyKind::ImprovedInOrderOverlap => 16,
            StrategyKind::TcbCreationResyncDesync => 17,
            StrategyKind::TeardownTcbReversal => 18,
            StrategyKind::WestChamber => 19,
        })
    }

    pub fn label(self) -> String {
        match self {
            StrategyKind::NoStrategy => "no-strategy".into(),
            StrategyKind::TcbCreationSyn(d) => format!("tcb-creation-syn/{d:?}"),
            StrategyKind::OutOfOrderIpFrag => "ooo-ip-frag".into(),
            StrategyKind::OutOfOrderTcpSeg => "ooo-tcp-seg".into(),
            StrategyKind::InOrderOverlap(d) => format!("in-order-overlap/{d:?}"),
            StrategyKind::TeardownRst(d) => format!("teardown-rst/{d:?}"),
            StrategyKind::TeardownRstAck(d) => format!("teardown-rstack/{d:?}"),
            StrategyKind::TeardownFin(d) => format!("teardown-fin/{d:?}"),
            StrategyKind::ImprovedTeardown => "improved-teardown".into(),
            StrategyKind::ImprovedInOrderOverlap => "improved-in-order-overlap".into(),
            StrategyKind::TcbCreationResyncDesync => "tcb-creation+resync-desync".into(),
            StrategyKind::TeardownTcbReversal => "teardown+tcb-reversal".into(),
            StrategyKind::WestChamber => "west-chamber".into(),
        }
    }

    /// Inverse of [`StrategyKind::id`] for the persisted history format.
    pub fn from_id(id: StrategyId) -> Option<StrategyKind> {
        use Discrepancy::*;
        Some(match id.0 {
            0 => StrategyKind::NoStrategy,
            1 => StrategyKind::TcbCreationSyn(SmallTtl),
            2 => StrategyKind::TcbCreationSyn(BadChecksum),
            3 => StrategyKind::OutOfOrderIpFrag,
            4 => StrategyKind::OutOfOrderTcpSeg,
            5 => StrategyKind::InOrderOverlap(SmallTtl),
            6 => StrategyKind::InOrderOverlap(BadAck),
            7 => StrategyKind::InOrderOverlap(BadChecksum),
            8 => StrategyKind::InOrderOverlap(NoFlag),
            9 => StrategyKind::TeardownRst(SmallTtl),
            10 => StrategyKind::TeardownRst(BadChecksum),
            11 => StrategyKind::TeardownRstAck(SmallTtl),
            12 => StrategyKind::TeardownRstAck(BadChecksum),
            13 => StrategyKind::TeardownFin(SmallTtl),
            14 => StrategyKind::TeardownFin(BadChecksum),
            15 => StrategyKind::ImprovedTeardown,
            16 => StrategyKind::ImprovedInOrderOverlap,
            17 => StrategyKind::TcbCreationResyncDesync,
            18 => StrategyKind::TeardownTcbReversal,
            19 => StrategyKind::WestChamber,
            _ => return None,
        })
    }

    /// The four new/improved strategies INTANG's adaptive mode rotates
    /// through (§7.1), in priority order.
    pub fn adaptive_pool() -> [StrategyKind; 4] {
        [
            StrategyKind::ImprovedTeardown,
            StrategyKind::TeardownTcbReversal,
            StrategyKind::TcbCreationResyncDesync,
            StrategyKind::ImprovedInOrderOverlap,
        ]
    }
}

/// Compact numeric strategy id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StrategyId(pub u8);

/// What the shim should do with the intercepted packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Forward unchanged, immediately.
    Forward,
    /// Forward after a delay (lets injected insertion packets win the race).
    ForwardDelayed(Duration),
    /// Drop the original (the strategy sent a transformed version itself).
    Replace,
}

/// Per-flow knowledge the shim tracks by watching the handshake.
#[derive(Debug)]
pub struct FlowState {
    pub tuple: FourTuple,
    pub client_isn: Option<u32>,
    pub server_isn: Option<u32>,
    pub synack_seen: bool,
    pub first_payload_sent: bool,
    /// Sequence number of the first payload segment: retransmissions of it
    /// are re-intercepted and get the same strategy treatment (netfilter
    /// sees every copy).
    pub first_payload_seq: Option<u32>,
    /// Estimated hop count to the server (whole path), if measured.
    pub hops: Option<u8>,
    /// Prefer TTL-scoped insertion packets when a hop estimate exists.
    /// Disabled on paths where the censor sits within a couple of hops of
    /// the server (inbound China paths, §7.1), where TTL scoping cannot be
    /// made safe and the MD5/timestamp discrepancies are used instead.
    pub prefer_ttl: bool,
    /// Resets observed on this flow (GFW fingerprints).
    pub resets_seen: u32,
    /// Server payload bytes seen flowing back after the request.
    pub response_bytes: u64,
    /// The outcome was already pushed into the selection history.
    pub outcome_recorded: bool,
    /// Times this flow's protection was re-applied to a retransmission
    /// (bounded by `RobustnessConfig::max_reprotects` when robustness mode
    /// is on; unbounded otherwise).
    pub reprotect_count: u32,
    pub strategy: StrategyKind,
}

impl FlowState {
    pub fn new(tuple: FourTuple, strategy: StrategyKind) -> FlowState {
        FlowState {
            tuple,
            client_isn: None,
            server_isn: None,
            synack_seen: false,
            first_payload_sent: false,
            first_payload_seq: None,
            hops: None,
            prefer_ttl: true,
            resets_seen: 0,
            response_bytes: 0,
            outcome_recorded: false,
            reprotect_count: 0,
            strategy,
        }
    }

    /// TTL that should pass the censor but die before the server
    /// (hops − δ, §7.1).
    pub fn insertion_ttl(&self, delta: u8) -> Option<u8> {
        self.hops.map(|h| h.saturating_sub(delta).max(1))
    }
}

/// Side-effect collector handed to strategies.
pub struct ShimCtx<'a> {
    pub now: Instant,
    pub rng: &'a mut SimRng,
    pub client: Ipv4Addr,
    /// Insertion redundancy: each injected packet is sent this many times,
    /// 20 ms apart (§3.4).
    pub redundancy: u32,
    /// (wire, extra delay) pairs to emit toward the server.
    pub injections: Vec<(Wire, Duration)>,
}

impl<'a> ShimCtx<'a> {
    pub fn new(now: Instant, rng: &'a mut SimRng, client: Ipv4Addr, redundancy: u32) -> ShimCtx<'a> {
        ShimCtx {
            now,
            rng,
            client,
            redundancy,
            injections: Vec::new(),
        }
    }

    /// Inject an insertion packet (with redundancy) at `base_delay`.
    pub fn inject(&mut self, wire: Wire, base_delay: Duration) {
        for i in 0..self.redundancy.max(1) {
            self.injections
                .push((wire.clone(), base_delay + Duration::from_millis(20) * u64::from(i)));
        }
    }

    /// Inject exactly once (used for packets that must not repeat).
    pub fn inject_once(&mut self, wire: Wire, base_delay: Duration) {
        self.injections.push((wire, base_delay));
    }

    /// Delay that guarantees the original follows all redundant copies.
    pub fn after_redundancy(&self) -> Duration {
        Duration::from_millis(20) * u64::from(self.redundancy.max(1) - 1) + Duration::from_millis(10)
    }
}

/// A strategy reacts to the shim's interception points.
pub trait Strategy {
    fn kind(&self) -> StrategyKind;

    /// The flow's first SYN is leaving the client.
    fn on_syn(&mut self, _ctx: &mut ShimCtx<'_>, _flow: &mut FlowState, _seg: &TcpRepr) -> Verdict {
        Verdict::Forward
    }

    /// The first payload-bearing segment (the request) is leaving.
    fn on_first_payload(&mut self, _ctx: &mut ShimCtx<'_>, _flow: &mut FlowState, _seg: &TcpRepr) -> Verdict {
        Verdict::Forward
    }
}

/// The do-nothing baseline.
pub struct NoStrategy;

impl Strategy for NoStrategy {
    fn kind(&self) -> StrategyKind {
        StrategyKind::NoStrategy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique() {
        use Discrepancy::*;
        let all = [
            StrategyKind::NoStrategy,
            StrategyKind::TcbCreationSyn(SmallTtl),
            StrategyKind::TcbCreationSyn(BadChecksum),
            StrategyKind::OutOfOrderIpFrag,
            StrategyKind::OutOfOrderTcpSeg,
            StrategyKind::InOrderOverlap(SmallTtl),
            StrategyKind::InOrderOverlap(BadAck),
            StrategyKind::InOrderOverlap(BadChecksum),
            StrategyKind::InOrderOverlap(NoFlag),
            StrategyKind::TeardownRst(SmallTtl),
            StrategyKind::TeardownRst(BadChecksum),
            StrategyKind::TeardownRstAck(SmallTtl),
            StrategyKind::TeardownRstAck(BadChecksum),
            StrategyKind::TeardownFin(SmallTtl),
            StrategyKind::TeardownFin(BadChecksum),
            StrategyKind::ImprovedTeardown,
            StrategyKind::ImprovedInOrderOverlap,
            StrategyKind::TcbCreationResyncDesync,
            StrategyKind::TeardownTcbReversal,
        ];
        let mut ids: Vec<_> = all.iter().map(|k| k.id()).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), all.len());
    }

    #[test]
    fn redundancy_spacing_is_twenty_ms() {
        let mut rng = SimRng::seed_from(1);
        let mut ctx = ShimCtx::new(Instant::ZERO, &mut rng, Ipv4Addr::new(10, 0, 0, 1), 3);
        ctx.inject(vec![1, 2, 3].into(), Duration::ZERO);
        let delays: Vec<u64> = ctx.injections.iter().map(|(_, d)| d.micros()).collect();
        assert_eq!(delays, vec![0, 20_000, 40_000]);
        assert_eq!(ctx.after_redundancy(), Duration::from_millis(50));
    }

    #[test]
    fn insertion_ttl_applies_delta() {
        let tuple = FourTuple::new(Ipv4Addr::new(10, 0, 0, 1), 1, Ipv4Addr::new(1, 1, 1, 1), 80);
        let mut f = FlowState::new(tuple, StrategyKind::NoStrategy);
        assert_eq!(f.insertion_ttl(2), None);
        f.hops = Some(14);
        assert_eq!(f.insertion_ttl(2), Some(12));
        f.hops = Some(2);
        assert_eq!(f.insertion_ttl(2), Some(1), "clamped to at least 1");
    }
}
