//! The INTANG engine: a netsim element sitting immediately next to the
//! client host (the simulator's netfilter-queue stand-in). It intercepts
//! every egress and ingress packet, applies the active strategy's actions,
//! runs hop measurements, forwards DNS, classifies incoming resets, and
//! feeds outcomes back into the per-destination history.

use crate::cache::TwoLevelCache;
use crate::dns_forwarder::DnsForwarder;
use crate::measure::{classify_flags, ResetSignature};
use crate::select::History;
use crate::strategies;
use crate::strategy::{FlowState, ShimCtx, StrategyKind, Verdict};
use crate::ttl::HopEstimator;
use intang_netsim::{Ctx, Direction, Duration, Element, Instant};
use intang_packet::{FourTuple, FxHashMap, IpProtocol, Ipv4Packet, TcpPacket, TcpRepr, Wire};
use intang_telemetry::{span, Counter, GaugeId, GaugeSample, MetricsSheet, SpanId};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

const TOKEN_MEASURE: u64 = 1;
const TOKEN_FWD: u64 = 2;

/// Cached hop estimates live this long (the paper's cache entries expire
/// to track route changes).
const HOPS_CACHE_TTL_US: u64 = 120 * 1_000_000;

/// Robustness mode: re-protections allowed per flow; beyond this the
/// retransmission is forwarded unprotected (retry abandoned — better a
/// censored attempt than an insertion storm on a collapsed path).
const MAX_REPROTECTS: u32 = 4;

/// Robustness mode: linear backoff, so re-protection `n` delays its
/// insertions by `n ×` this, giving a congested path room before the next
/// volley.
const REPROTECT_BACKOFF: Duration = Duration::from_millis(15);

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct IntangConfig {
    /// Fixed strategy, or `None` for adaptive selection over
    /// [`StrategyKind::adaptive_pool`] (the "INTANG performance" mode).
    pub strategy: Option<StrategyKind>,
    /// Copies per insertion packet, 20 ms apart (§3.4 uses 3).
    pub redundancy: u32,
    /// δ subtracted from the hop estimate for TTL-scoped insertions (§7.1).
    pub delta: u8,
    /// Iteratively adapt δ per destination from observed outcomes (§7.1:
    /// "INTANG can iteratively change this to converge to a good value"):
    /// a failure *with* censor resets means the insertion died before the
    /// censor (δ too large → decrease); a silent failure means it may have
    /// hit the server or a server-side middlebox (δ too small → increase).
    pub adaptive_delta: bool,
    /// Measure hop counts with a probe burst before the first connection
    /// to a new destination.
    pub measure_hops: bool,
    /// Prefer TTL-scoped insertions when a hop estimate exists (§7.1: on
    /// inbound paths where censor and server are within a few hops, TTL
    /// scoping is hopeless and INTANG leans on MD5/timestamp/bad-checksum
    /// discrepancies instead).
    pub prefer_ttl: bool,
    pub max_probe_ttl: u8,
    /// Forward UDP DNS over TCP to this clean resolver (§6).
    pub dns_forward: Option<Ipv4Addr>,
    /// Robustness mode for hostile paths (fault-injection runs set this):
    /// re-protect a retransmitted SYN or request, bounded and backed off
    /// (`MAX_REPROTECTS`, `REPROTECT_BACKOFF`), and re-probe a
    /// destination's hop count after a pre-request censor reset. `false`
    /// keeps the legacy behavior exactly — unbounded request
    /// re-protection, no SYN re-protection, no backoff, no re-probe — so
    /// fault-free runs are byte-identical.
    pub robust: bool,
    /// Number of independent draw/learning lanes. 1 (the default) is the
    /// exact legacy shim: strategy randomness from the simulation RNG, δ
    /// overrides shared per destination. Values > 1 give each address-pair
    /// lane ([`intang_packet::pair_shard`]) its own RNG stream and scope
    /// the §7.1 δ learning to `(lane, destination)` — the shim-side half
    /// of the sharded state that lets a metropolis world split into
    /// parallel event domains byte-identically.
    pub state_shards: u32,
    /// Base seed for the per-lane RNG streams (used when
    /// `state_shards > 1`).
    pub shard_seed: u64,
}

impl Default for IntangConfig {
    fn default() -> Self {
        IntangConfig {
            strategy: None,
            redundancy: 3,
            delta: 2,
            adaptive_delta: true,
            measure_hops: true,
            prefer_ttl: true,
            max_probe_ttl: 24,
            dns_forward: None,
            robust: false,
            state_shards: 1,
            shard_seed: 0,
        }
    }
}

impl IntangConfig {
    pub fn fixed(kind: StrategyKind) -> IntangConfig {
        IntangConfig {
            strategy: Some(kind),
            ..IntangConfig::default()
        }
    }
}

/// Observable engine counters.
#[derive(Debug, Default, Clone)]
pub struct IntangStats {
    pub insertions_sent: u64,
    pub probes_sent: u64,
    pub type1_resets_seen: u64,
    pub type2_resets_seen: u64,
    /// Censor-signature resets on tracked flows before the first request
    /// payload went out (the §5 "reset before request" window).
    pub resets_pre_request: u64,
    /// Censor-signature resets on tracked flows after the request.
    pub resets_post_request: u64,
    pub flows: u64,
    pub successes: u64,
    pub failures: u64,
    /// Robustness mode: retransmissions whose protection was re-applied.
    pub reprotects: u64,
    /// Robustness mode: retransmissions forwarded unprotected because the
    /// flow exhausted its re-protection budget.
    pub retries_abandoned: u64,
    /// Hop-estimate invalidations (route-change notifications and
    /// reset-triggered re-probes).
    pub ttl_reprobes: u64,
}

struct Shim {
    cfg: IntangConfig,
    flows: FxHashMap<FourTuple, FlowState>,
    estimator: HopEstimator,
    hops_cache: TwoLevelCache<Ipv4Addr, u8>,
    history: Rc<RefCell<History>>,
    fwd: Option<DnsForwarder>,
    stats: IntangStats,
    /// Per-lane RNG streams when `cfg.state_shards > 1`; empty in the
    /// legacy single-lane shim (draws come from the simulation RNG).
    shard_rngs: Vec<intang_netsim::SimRng>,
    /// Per-`(lane, destination)` δ overrides learned by the §7.1
    /// iteration. The lane is always 0 in the legacy shim, so the scoping
    /// is invisible there.
    delta_overrides: FxHashMap<(u32, Ipv4Addr), u8>,
    /// Per-flow strategy presets registered before the flow's first SYN
    /// (metropolis load generators draw a strategy per flow). Consumed on
    /// flow creation; `cfg.strategy` / the adaptive history otherwise.
    strategy_presets: FxHashMap<FourTuple, StrategyKind>,
    /// Scratch repr reused by `process_egress` (no steady-state parse
    /// allocations).
    rx_seg: TcpRepr,
}

/// The element.
pub struct IntangElement {
    shim: Rc<RefCell<Shim>>,
}

/// Inspection handle shared with tests and experiment harnesses.
#[derive(Clone)]
pub struct IntangHandle {
    shim: Rc<RefCell<Shim>>,
}

impl IntangElement {
    pub fn new(client: Ipv4Addr, cfg: IntangConfig) -> (IntangElement, IntangHandle) {
        IntangElement::with_history(client, cfg, Rc::new(RefCell::new(History::new())))
    }

    /// Share a [`History`] across engines (successive trials toward the
    /// same servers — how the adaptive mode converges).
    pub fn with_history(client: Ipv4Addr, cfg: IntangConfig, history: Rc<RefCell<History>>) -> (IntangElement, IntangHandle) {
        let fwd = cfg.dns_forward.map(|resolver| DnsForwarder::new(client, resolver));
        let shard_rngs = if cfg.state_shards > 1 {
            (0..cfg.state_shards)
                .map(|i| intang_netsim::SimRng::seed_from(intang_netsim::rng::lane_seed(cfg.shard_seed, i)))
                .collect()
        } else {
            Vec::new()
        };
        let shim = Rc::new(RefCell::new(Shim {
            cfg,
            flows: FxHashMap::default(),
            estimator: HopEstimator::new(),
            hops_cache: TwoLevelCache::new(64),
            history,
            fwd,
            stats: IntangStats::default(),
            shard_rngs,
            delta_overrides: FxHashMap::default(),
            strategy_presets: FxHashMap::default(),
            rx_seg: TcpRepr::new(0, 0),
        }));
        (IntangElement { shim: shim.clone() }, IntangHandle { shim })
    }
}

impl IntangHandle {
    pub fn stats(&self) -> IntangStats {
        self.shim.borrow().stats.clone()
    }

    pub fn hops_to(&self, server: Ipv4Addr) -> Option<u8> {
        // Inspection accessor: read as of "the beginning of time" so that
        // any entry that was ever written is visible regardless of expiry.
        let mut s = self.shim.borrow_mut();
        s.hops_cache.get(&server, 0)
    }

    /// Drop one flow's strategy state (and any unconsumed preset), and
    /// return the resets the shim saw on the flow ([`FlowState`]'s
    /// `resets_seen`; 0 for a flow it never tracked). Called by metropolis
    /// load generators when a flow retires: the count is part of the
    /// flow's outcome evidence, and without the drop a million-flow run
    /// would hold per-flow state for every flow ever spawned.
    pub fn retire_flow(&self, tuple: FourTuple) -> u64 {
        let mut s = self.shim.borrow_mut();
        s.strategy_presets.remove(&tuple);
        s.flows.remove(&tuple).map_or(0, |flow| u64::from(flow.resets_seen))
    }

    /// Pre-register the strategy one specific flow will use, overriding
    /// `cfg.strategy` and the adaptive history for that flow only. Must be
    /// called before the flow's first SYN crosses the shim; the preset is
    /// consumed at flow creation.
    pub fn preset_strategy(&self, tuple: FourTuple, kind: StrategyKind) {
        self.shim.borrow_mut().strategy_presets.insert(tuple, kind);
    }

    /// Pre-seed a hop estimate (used by tests and by experiments that model
    /// a warmed-up cache).
    pub fn seed_hops(&self, server: Ipv4Addr, hops: u8) {
        let mut s = self.shim.borrow_mut();
        s.hops_cache.put(server, hops, 0, u64::MAX / 2);
    }

    /// The learned per-destination δ in the legacy single-lane shim.
    pub fn delta_for(&self, server: Ipv4Addr) -> Option<u8> {
        self.shim.borrow().delta_overrides.get(&(0, server)).copied()
    }

    /// A route change was observed (e.g. a fault-plan route flap): every
    /// cached TTL distance is now suspect, so drop the whole hop cache. The
    /// next flow per destination re-probes (§7.1: "routes are dynamic and
    /// could change unexpectedly", invalidating measured TTLs).
    pub fn notify_route_change(&self) {
        let mut s = self.shim.borrow_mut();
        s.hops_cache.clear();
        s.stats.ttl_reprobes += 1;
    }
}

impl Element for IntangElement {
    fn name(&self) -> &str {
        "INTANG"
    }

    fn export_metrics(&self, m: &mut MetricsSheet) {
        let s = &self.shim.borrow().stats;
        m.add(Counter::IntangInsertionsSent, s.insertions_sent);
        m.add(Counter::IntangProbesSent, s.probes_sent);
        m.add(Counter::IntangType1ResetsSeen, s.type1_resets_seen);
        m.add(Counter::IntangType2ResetsSeen, s.type2_resets_seen);
        m.add(Counter::IntangResetsPreRequest, s.resets_pre_request);
        m.add(Counter::IntangResetsPostRequest, s.resets_post_request);
        m.add(Counter::IntangFlows, s.flows);
        m.add(Counter::IntangReprotects, s.reprotects);
        m.add(Counter::IntangRetriesAbandoned, s.retries_abandoned);
        m.add(Counter::IntangTtlReprobes, s.ttl_reprobes);
    }

    fn sample_gauges(&self, g: &mut GaugeSample) {
        g.add(GaugeId::IntangFlows, self.shim.borrow().flows.len() as u64);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, dir: Direction, wire: Wire) {
        let _s = span(SpanId::Intang);
        let mut shim = self.shim.borrow_mut();
        match dir {
            Direction::ToServer => shim.process_egress(ctx, wire),
            Direction::ToClient => shim.process_ingress(ctx, wire),
        }
        shim.arm_timers(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let _s = span(SpanId::Intang);
        let mut shim = self.shim.borrow_mut();
        match token {
            TOKEN_MEASURE => {
                let done = shim.estimator.finalize_due(ctx.now);
                for (server, hops, held) in done {
                    shim.hops_cache.put(server, hops, ctx.now.micros(), HOPS_CACHE_TTL_US);
                    for wire in held {
                        shim.process_egress(ctx, wire);
                    }
                }
            }
            TOKEN_FWD => {
                if let Some(fwd) = shim.fwd.as_mut() {
                    fwd.on_timer(ctx.now.micros());
                }
                shim.pump_forwarder(ctx);
            }
            _ => {}
        }
        shim.arm_timers(ctx);
    }
}

impl Shim {
    /// The draw/learning lane of a `(client, server)` pair: 0 in the
    /// legacy shim, `pair_shard` otherwise — the same partition the
    /// sharded censor uses, so a lane never spans event domains.
    fn lane_of(&self, a: Ipv4Addr, b: Ipv4Addr) -> u32 {
        if self.shard_rngs.is_empty() {
            0
        } else {
            intang_packet::pair_shard(a, b, self.cfg.state_shards)
        }
    }

    fn arm_timers(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(t) = self.estimator.next_deadline() {
            ctx.set_timer(t, TOKEN_MEASURE);
        }
        if let Some(t) = self.fwd.as_ref().and_then(DnsForwarder::next_deadline) {
            ctx.set_timer(Instant(t.max(ctx.now.micros() + 1)), TOKEN_FWD);
        }
    }

    /// Route the forwarder's queued output onto the wire: its TCP segments
    /// go through the normal egress pipeline (so strategies protect them),
    /// its synthesized UDP responses go back to the client.
    fn pump_forwarder(&mut self, ctx: &mut Ctx<'_>) {
        let Some(fwd) = self.fwd.as_mut() else { return };
        let (tcp_out, udp_out) = fwd.pump(ctx.now.micros());
        for w in udp_out {
            ctx.send(Direction::ToClient, w);
        }
        for w in tcp_out {
            self.process_egress(ctx, w);
        }
    }

    // ------------------------------------------------------------------
    // Egress: the strategy pipeline.
    // ------------------------------------------------------------------
    fn process_egress(&mut self, ctx: &mut Ctx<'_>, wire: Wire) {
        // DNS forwarding first: UDP queries become TCP flows.
        if self.fwd.is_some() {
            let intercepted = self
                .fwd
                .as_mut()
                .expect("checked above")
                .intercept_udp_query(&wire, ctx.now.micros());
            if intercepted {
                self.pump_forwarder(ctx);
                return;
            }
        }

        let Ok(ip) = Ipv4Packet::new_checked(&wire[..]) else {
            ctx.send(Direction::ToServer, wire);
            return;
        };
        if ip.protocol() != IpProtocol::Tcp || ip.is_fragment() {
            ctx.send(Direction::ToServer, wire);
            return;
        }
        let Ok(tcp) = TcpPacket::new_checked(ip.payload()) else {
            ctx.send(Direction::ToServer, wire);
            return;
        };
        let server = ip.dst_addr();
        let tuple = FourTuple::new(ip.src_addr(), tcp.src_port(), server, tcp.dst_port());
        // Scratch-parse (no steady-state allocation); the repr is moved out
        // and back so `&seg` can ride along `&mut self` through the
        // strategy calls.
        let mut seg = std::mem::replace(&mut self.rx_seg, TcpRepr::new(0, 0));
        TcpRepr::parse_into(&tcp, &mut seg);
        self.egress_segment(ctx, wire, &seg, tuple, server);
        self.rx_seg = seg;
    }

    /// The strategy pipeline for one parsed client->server TCP segment.
    fn egress_segment(&mut self, ctx: &mut Ctx<'_>, wire: Wire, seg: &TcpRepr, tuple: FourTuple, server: Ipv4Addr) {
        let lane = self.lane_of(tuple.src, server);
        // New flow bookkeeping: choose a strategy on the first SYN.
        if !self.flows.contains_key(&tuple) && seg.flags.syn() && !seg.flags.ack() {
            let kind = self
                .strategy_presets
                .remove(&tuple)
                .or(self.cfg.strategy)
                .unwrap_or_else(|| self.history.borrow().choose(server, &StrategyKind::adaptive_pool()));
            let delta = self.delta_overrides.get(&(lane, server)).copied().unwrap_or(self.cfg.delta);
            let mut flow = FlowState::new(tuple, kind, delta);
            flow.prefer_ttl = self.cfg.prefer_ttl;
            self.flows.insert(tuple, flow);
            self.stats.flows += 1;
        }

        // Hop measurement gate: flows whose strategy wants TTL scoping wait
        // for an estimate.
        if self.cfg.measure_hops && self.flows.contains_key(&tuple) {
            let have = self.flows.get(&tuple).expect("checked").hops.is_some();
            if !have {
                if let Some(h) = self.hops_cache.get(&server, ctx.now.micros()) {
                    self.flows.get_mut(&tuple).expect("checked").hops = Some(h);
                } else if self.estimator.is_measuring(server) {
                    self.estimator.hold(server, wire);
                    return;
                } else {
                    let probes = self
                        .estimator
                        .start(tuple.src, server, seg.dst_port, ctx.now, self.cfg.max_probe_ttl, wire);
                    self.stats.probes_sent += probes.len() as u64;
                    for p in probes {
                        ctx.send(Direction::ToServer, p);
                    }
                    return;
                }
            }
        }

        let Some(flow) = self.flows.get_mut(&tuple) else {
            // Untracked traffic (probe RST cleanups, mid-flow packets from
            // before the shim attached): pass through.
            ctx.send(Direction::ToServer, wire);
            return;
        };

        let robust = self.cfg.robust;
        // Extra delay applied to this round of insertions (robustness-mode
        // linear backoff on re-protected retransmissions; ZERO otherwise).
        let mut backoff_extra = Duration::ZERO;
        let (verdict, injections) = {
            let rng = if self.shard_rngs.is_empty() {
                &mut *ctx.rng
            } else {
                &mut self.shard_rngs[lane as usize]
            };
            let mut sctx = ShimCtx::new(rng, self.cfg.redundancy);
            let verdict = if seg.flags.syn() && !seg.flags.ack() && flow.client_isn.is_none() {
                flow.client_isn = Some(seg.seq);
                strategies::on_syn(&mut sctx, flow, seg)
            } else if robust && seg.flags.syn() && !seg.flags.ack() && flow.client_isn == Some(seg.seq) {
                // Robustness: the client stack retransmitted its SYN, so the
                // insertions sent alongside the original likely died on the
                // same loss burst — re-protect, within budget.
                if flow.reprotect_count < MAX_REPROTECTS {
                    flow.reprotect_count += 1;
                    self.stats.reprotects += 1;
                    backoff_extra = REPROTECT_BACKOFF * u64::from(flow.reprotect_count);
                    strategies::on_syn(&mut sctx, flow, seg)
                } else {
                    self.stats.retries_abandoned += 1;
                    Verdict::Forward
                }
            } else if !seg.payload.is_empty() && (!flow.first_payload_sent || flow.first_payload_seq == Some(seg.seq)) {
                // First request — or an RTO retransmission of it, which the
                // shim re-protects like the original (bounded and backed off
                // in robustness mode, unbounded otherwise).
                let retransmission = flow.first_payload_sent;
                if retransmission && robust && flow.reprotect_count >= MAX_REPROTECTS {
                    self.stats.retries_abandoned += 1;
                    Verdict::Forward
                } else {
                    if retransmission && robust {
                        flow.reprotect_count += 1;
                        self.stats.reprotects += 1;
                        backoff_extra = REPROTECT_BACKOFF * u64::from(flow.reprotect_count);
                    }
                    flow.first_payload_sent = true;
                    flow.first_payload_seq = Some(seg.seq);
                    strategies::on_first_payload(&mut sctx, flow, seg)
                }
            } else {
                Verdict::Forward
            };
            (verdict, sctx.injections)
        };
        self.stats.insertions_sent += injections.len() as u64;
        for (w, d) in injections {
            ctx.send_delayed(Direction::ToServer, w, d + backoff_extra);
        }
        match verdict {
            Verdict::Forward => ctx.send(Direction::ToServer, wire),
            Verdict::ForwardDelayed(d) => ctx.send_delayed(Direction::ToServer, wire, d),
            Verdict::Replace => {}
        }
    }

    // ------------------------------------------------------------------
    // Ingress: measurement, classification, forwarder routing.
    // ------------------------------------------------------------------
    fn process_ingress(&mut self, ctx: &mut Ctx<'_>, wire: Wire) {
        let Ok(ip) = Ipv4Packet::new_checked(&wire[..]) else {
            ctx.send(Direction::ToClient, wire);
            return;
        };
        match ip.protocol() {
            IpProtocol::Icmp => {
                if self.estimator.on_icmp(&wire) {
                    return; // consumed by the measurement
                }
                ctx.send(Direction::ToClient, wire);
            }
            IpProtocol::Tcp => {
                let Ok(tcp) = TcpPacket::new_checked(ip.payload()) else {
                    ctx.send(Direction::ToClient, wire);
                    return;
                };
                let dst_port = tcp.dst_port();
                // Probe SYN/ACKs refine hop estimates (and pass through; the
                // client stack answers them with an RST, cleaning up the
                // server's half-open socket).
                if tcp.flags().syn() && tcp.flags().ack() {
                    self.estimator.on_probe_synack(ip.src_addr(), dst_port);
                }
                // Forwarder flows are terminated here, not at the client.
                if DnsForwarder::owns_port(dst_port) {
                    if let Some(fwd) = self.fwd.as_mut() {
                        fwd.on_tcp_ingress(wire, ctx.now.micros());
                        self.pump_forwarder(ctx);
                        return;
                    }
                }
                // Flow bookkeeping + reset classification.
                let tuple = FourTuple::new(ip.dst_addr(), dst_port, ip.src_addr(), tcp.src_port());
                let seg_flags = tcp.flags();
                let payload_len = tcp.payload().len() as u64;
                if let Some(sig) = classify_flags(seg_flags) {
                    match sig {
                        ResetSignature::Type1Rst => self.stats.type1_resets_seen += 1,
                        ResetSignature::Type2RstAck => self.stats.type2_resets_seen += 1,
                    }
                }
                let lane = self.lane_of(tuple.src, tuple.dst);
                let mut reprobe: Option<Ipv4Addr> = None;
                if let Some(flow) = self.flows.get_mut(&tuple) {
                    if seg_flags.syn() && seg_flags.ack() {
                        flow.synack_seen = true;
                        flow.server_isn = Some(tcp.seq_number());
                    }
                    if classify_flags(seg_flags).is_some() {
                        flow.resets_seen += 1;
                        if flow.first_payload_sent {
                            self.stats.resets_post_request += 1;
                        } else {
                            self.stats.resets_pre_request += 1;
                            // Robustness: a pre-request censor reset means
                            // the TTL-scoped insertion died short of the
                            // censor — after a route flap that is the
                            // signature of a stale hop estimate, so drop it
                            // and re-measure on the next flow.
                            if self.cfg.robust && flow.hops.is_some() {
                                reprobe = Some(tuple.dst);
                            }
                        }
                        if !flow.outcome_recorded && flow.first_payload_sent {
                            flow.outcome_recorded = true;
                            self.stats.failures += 1;
                            self.history.borrow_mut().record(tuple.dst, flow.strategy, false);
                            // §7.1 δ iteration: censor resets arrived, so
                            // the TTL-scoped insertion likely expired short
                            // of the censor — let it travel one hop farther
                            // next time.
                            if self.cfg.adaptive_delta && self.cfg.prefer_ttl && flow.hops.is_some() {
                                let d = self.delta_overrides.entry((lane, tuple.dst)).or_insert(self.cfg.delta);
                                *d = d.saturating_sub(1);
                            }
                        }
                    } else if payload_len > 0 {
                        flow.response_bytes += payload_len;
                        if !flow.outcome_recorded && flow.first_payload_sent {
                            flow.outcome_recorded = true;
                            self.stats.successes += 1;
                            self.history.borrow_mut().record(tuple.dst, flow.strategy, true);
                        }
                    }
                }
                if let Some(dst) = reprobe {
                    self.hops_cache.invalidate(&dst);
                    self.stats.ttl_reprobes += 1;
                }
                ctx.send(Direction::ToClient, wire);
            }
            _ => ctx.send(Direction::ToClient, wire),
        }
    }
}
