//! The censor tap: a netsim [`Element`] that observes every packet crossing
//! its position, maintains censor TCBs, runs DPI, and injects resets,
//! forged SYN/ACKs, DNS poison and active probes.
//!
//! Being **on-path**, it always forwards the original packet unmodified.
//! The single exception is IP-level blocking of confirmed Tor bridges,
//! which in reality is enforced by in-path border devices; we document and
//! model that as a drop at the tap.

use crate::blacklist::Blacklist;
use crate::config::{EvictionPolicy, GfwConfig, GfwGeneration};
use crate::dpi::{Automaton, DetectionKind};
use crate::probe::ActiveProber;
use crate::reset::ResetInjector;
use crate::tcb::{CensorState, CensorTcb};
use intang_netsim::{Ctx, Direction, Duration, Element, Instant};
use intang_packet::frag::Reassembler;
use intang_packet::{dns, udp, FourTuple, FxHashMap, IpProtocol, Ipv4Packet, Ipv4Repr, TcpPacket, TcpRepr, Wire};
use intang_telemetry::{span, Counter, GaugeId, GaugeSample, MetricsSheet, SpanId};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::sync::Arc;

/// The address DNS poisoning answers with (a well-known bogus resolver
/// target drawn from the GFW's observed poison pool).
pub const POISON_ADDR: Ipv4Addr = Ipv4Addr::new(243, 185, 187, 39);

/// Observable counters and logs, shared with tests via [`GfwHandle`].
#[derive(Debug, Default)]
pub struct GfwStats {
    pub detections: Vec<(Instant, DetectionKind, FourTuple)>,
    /// TCBs created (from SYN or, evolved model, from SYN/ACK).
    pub tcbs_created: u64,
    /// TCBs torn down by RST/FIN processing.
    pub tcbs_removed: u64,
    /// TCBs evicted because the table hit capacity (§2.1 cost pressure).
    pub tcbs_evicted: u64,
    /// Transitions into the resync state (§4 evolved behaviors).
    pub tcb_resyncs: u64,
    pub resets_injected: u64,
    /// Of `resets_injected`: resets fired by the type-1 device.
    pub type1_resets_injected: u64,
    /// Of `resets_injected`: resets fired by the type-2 device.
    pub type2_resets_injected: u64,
    pub forged_synacks: u64,
    /// Spoofed HTTP blockpages injected on detection (profile-driven
    /// censors with `inject_blockpage`; the GFW models never do this).
    pub blockpages_injected: u64,
    pub dns_poisoned: u64,
    /// IP pairs added to the §2.1 blacklist.
    pub blacklist_inserts: u64,
    pub blacklist_hits: u64,
    /// Of the blacklist hits that drew a disruption volley: hits by a flow
    /// *other* than the one whose detection inserted the pair — an
    /// innocent neighbor reset by someone else's keyword (§2.1 collateral).
    pub blacklist_collateral_resets: u64,
    /// Resync-storm episodes: `resync_storm_threshold` TCB
    /// resynchronizations within one `resync_storm_window`.
    pub resync_storms: u64,
    pub probes_launched: u64,
    pub ip_blocked_drops: u64,
    /// Payload bytes run through the DPI automaton.
    pub dpi_bytes_scanned: u64,
    /// Chaos gates (fault injection): reset volleys withheld because the
    /// per-vantage-point injection rate said no.
    pub injections_suppressed: u64,
    /// Chaos gates: volleys withheld because the device instance flapped.
    pub device_flaps: u64,
    /// Blacklist insertions whose duration was jittered.
    pub blacklist_jitter_draws: u64,
}

/// One censor-state lane: the slice of device state that couples flows to
/// each other. With `GfwConfig::state_shards == 1` there is exactly one
/// lane and the device behaves byte-for-byte like the historical global
/// implementation. With more, every packet is routed to the lane of its
/// address pair ([`intang_packet::pair_shard`]), so flows in different
/// lanes share *nothing* mutable — the property that lets a sharded world
/// be split into parallel event domains without changing any emitted byte.
struct CensorLane {
    /// `None` in the single-lane legacy device: every stochastic draw
    /// comes from the simulation RNG, exactly as before sharding existed.
    /// `Some` in sharded mode: a private stream seeded from
    /// `(shard_seed, lane index)`, invariant under domain grouping.
    rng: Option<intang_netsim::SimRng>,
    injector: ResetInjector,
    /// Eviction order: `(key, stamp)` pairs, oldest candidate at the
    /// front. Under FIFO eviction only insertions push entries; under LRU
    /// every touch pushes a fresh stamp and stale entries (whose stamp no
    /// longer matches the TCB's `touched`) are skipped lazily at eviction
    /// time and swept by the compaction in [`GfwCore::touch_tcb`].
    tcb_order: std::collections::VecDeque<(FourTuple, u64)>,
    /// Monotonic stamp source for `tcb_order` entries.
    touch_seq: u64,
    /// Timestamps of recent resync transitions (the storm window).
    resync_window: std::collections::VecDeque<Instant>,
    /// Path-sticky draw (§4/§8: per client-server pair and period, the
    /// RST→resync behavior is consistent): decided on first RST.
    rst_resync_sticky: Option<bool>,
    rst_resync_hs_sticky: Option<bool>,
    /// TCBs in the (shared) table whose pair hashes to this lane.
    tcb_count: usize,
    /// This lane's share of `max_tcbs`: the table capacity is partitioned
    /// deterministically, `total/n + (i < total % n)`, never rebalanced —
    /// reconciling a global budget across parallel domains would cost a
    /// barrier per eviction and break byte-identity.
    quota: usize,
}

impl Default for CensorLane {
    fn default() -> CensorLane {
        CensorLane {
            rng: None,
            injector: ResetInjector::new(),
            tcb_order: std::collections::VecDeque::new(),
            touch_seq: 0,
            resync_window: std::collections::VecDeque::new(),
            rst_resync_sticky: None,
            rst_resync_hs_sticky: None,
            tcb_count: 0,
            quota: usize::MAX,
        }
    }
}

/// Pick the RNG a lane draws from: its private stream when sharded, the
/// simulation RNG in the legacy single-lane device.
#[inline]
fn lane_rng<'a>(rng: &'a mut Option<intang_netsim::SimRng>, ctx: &'a mut Ctx<'_>) -> &'a mut intang_netsim::SimRng {
    match rng {
        Some(r) => r,
        None => ctx.rng,
    }
}

struct GfwCore {
    cfg: GfwConfig,
    aut: Arc<Automaton>,
    /// Simcheck shadow domain for this device's TCB table (0 when checking
    /// is disabled).
    sc_domain: u64,
    tcbs: FxHashMap<FourTuple, CensorTcb>,
    /// Censor-state lanes; index = `pair_shard(src, dst, lanes.len())`.
    lanes: Vec<CensorLane>,
    blacklist: Blacklist,
    prober: ActiveProber,
    ip_reasm: Reassembler,
    stats: GfwStats,
}

/// The censor tap element. Clone-cheap handles ([`GfwHandle`]) give tests
/// and experiments read access to the shared core.
pub struct GfwElement {
    core: Rc<RefCell<GfwCore>>,
    label: String,
}

/// Read/inspection handle onto a [`GfwElement`]'s core.
#[derive(Clone)]
pub struct GfwHandle {
    core: Rc<RefCell<GfwCore>>,
}

impl GfwElement {
    pub fn new(cfg: GfwConfig) -> (GfwElement, GfwHandle) {
        GfwElement::labeled(cfg, "GFW")
    }

    pub fn labeled(cfg: GfwConfig, label: &str) -> (GfwElement, GfwHandle) {
        // The paper-default rule database compiles to the same automaton
        // every time; reuse the process-wide shared copy instead of
        // rebuilding it per element (one build per trial adds up fast in a
        // sweep). Custom rule sets still get their own build. `Arc::ptr_eq`
        // catches every config built from `GfwConfig::evolved`/`old` without
        // touching the rules; the deep comparison (against the shared static,
        // not a fresh copy) covers `with_rules` callers that happen to pass
        // the paper set.
        let shared = crate::dpi::shared_paper_rules();
        let aut = if Arc::ptr_eq(&cfg.rules, &shared) || *cfg.rules == *shared {
            crate::dpi::shared_paper_default()
        } else {
            Arc::new(Automaton::build(&cfg.rules))
        };
        GfwElement::with_automaton(cfg, aut, label)
    }

    /// Build with a pre-compiled automaton, sharing it across elements (and
    /// threads — the automaton is immutable after construction).
    pub fn with_automaton(cfg: GfwConfig, aut: Arc<Automaton>, label: &str) -> (GfwElement, GfwHandle) {
        let ip_reasm = Reassembler::new(cfg.ip_frag_overlap);
        let shards = cfg.state_shards.max(1) as usize;
        let lanes = (0..shards)
            .map(|i| CensorLane {
                rng: (shards > 1).then(|| intang_netsim::SimRng::seed_from(intang_netsim::rng::lane_seed(cfg.shard_seed, i as u32))),
                quota: if shards == 1 {
                    cfg.max_tcbs
                } else {
                    (cfg.max_tcbs / shards + usize::from(i < cfg.max_tcbs % shards)).max(1)
                },
                ..CensorLane::default()
            })
            .collect();
        let core = Rc::new(RefCell::new(GfwCore {
            cfg,
            aut,
            sc_domain: intang_simcheck::new_tcb_domain(),
            tcbs: FxHashMap::default(),
            lanes,
            blacklist: Blacklist::new(),
            prober: ActiveProber::new(),
            ip_reasm,
            stats: GfwStats::default(),
        }));
        (
            GfwElement {
                core: core.clone(),
                label: label.to_string(),
            },
            GfwHandle { core },
        )
    }
}

impl GfwHandle {
    pub fn detections(&self) -> Vec<(Instant, DetectionKind, FourTuple)> {
        self.core.borrow().stats.detections.clone()
    }

    pub fn detected_any(&self) -> bool {
        !self.core.borrow().stats.detections.is_empty()
    }

    pub fn resets_injected(&self) -> u64 {
        self.core.borrow().stats.resets_injected
    }

    pub fn type1_resets_injected(&self) -> u64 {
        self.core.borrow().stats.type1_resets_injected
    }

    pub fn type2_resets_injected(&self) -> u64 {
        self.core.borrow().stats.type2_resets_injected
    }

    pub fn tcb_resyncs(&self) -> u64 {
        self.core.borrow().stats.tcb_resyncs
    }

    pub fn dpi_bytes_scanned(&self) -> u64 {
        self.core.borrow().stats.dpi_bytes_scanned
    }

    pub fn forged_synacks(&self) -> u64 {
        self.core.borrow().stats.forged_synacks
    }

    /// Spoofed HTTP blockpages injected (profile-driven censors only).
    pub fn blockpages_injected(&self) -> u64 {
        self.core.borrow().stats.blockpages_injected
    }

    pub fn dns_poisoned(&self) -> u64 {
        self.core.borrow().stats.dns_poisoned
    }

    pub fn blacklist_hits(&self) -> u64 {
        self.core.borrow().stats.blacklist_hits
    }

    /// Blacklist volleys that landed on a flow other than the pair's
    /// original offender.
    pub fn blacklist_collateral_resets(&self) -> u64 {
        self.core.borrow().stats.blacklist_collateral_resets
    }

    pub fn probes_launched(&self) -> u64 {
        self.core.borrow().stats.probes_launched
    }

    pub fn ip_blocked(&self, ip: Ipv4Addr) -> bool {
        self.core.borrow().prober.is_blocked(ip)
    }

    /// The censor's tracking state for a flow, if a TCB exists.
    pub fn tcb_state(&self, tuple: FourTuple) -> Option<CensorState> {
        self.core.borrow().tcbs.get(&tuple.canonical()).map(|t| t.state)
    }

    pub fn has_tcb(&self, tuple: FourTuple) -> bool {
        self.core.borrow().tcbs.contains_key(&tuple.canonical())
    }

    /// The censor's believed client for a flow (detects TCB reversal).
    pub fn believed_client(&self, tuple: FourTuple) -> Option<(Ipv4Addr, u16)> {
        self.core.borrow().tcbs.get(&tuple.canonical()).map(|t| t.client)
    }

    pub fn tcb_count(&self) -> usize {
        self.core.borrow().tcbs.len()
    }

    /// Force the sticky RST behavior for deterministic tests.
    pub fn force_rst_resync(&self, resync: bool) {
        let mut core = self.core.borrow_mut();
        for lane in &mut core.lanes {
            lane.rst_resync_sticky = Some(resync);
            lane.rst_resync_hs_sticky = Some(resync);
        }
    }

    /// Which censor profile this device was compiled from.
    pub fn profile_tag(&self) -> crate::config::ProfileTag {
        self.core.borrow().cfg.profile_tag
    }
}

impl Element for GfwElement {
    fn name(&self) -> &str {
        &self.label
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, dir: Direction, wire: Wire) {
        let _s = span(SpanId::Gfw);
        let mut core = self.core.borrow_mut();

        // IP-level blocking of confirmed Tor bridges (documented in-path
        // exception to the on-path model).
        if let Ok(ip) = Ipv4Packet::new_checked(&wire[..]) {
            if core.prober.is_blocked(ip.src_addr()) || core.prober.is_blocked(ip.dst_addr()) {
                core.stats.ip_blocked_drops += 1;
                return; // dropped
            }
        }

        // On-path: forward the original packet untouched, then analyze a copy.
        ctx.send(dir, wire.clone());
        core.analyze(ctx, dir, wire);
    }

    fn export_metrics(&self, m: &mut MetricsSheet) {
        let core = self.core.borrow();
        let s = &core.stats;
        m.add(Counter::GfwTcbsCreated, s.tcbs_created);
        m.add(Counter::GfwTcbsRemoved, s.tcbs_removed);
        m.add(Counter::GfwTcbsEvicted, s.tcbs_evicted);
        m.add(Counter::GfwTcbResyncs, s.tcb_resyncs);
        m.add(Counter::GfwDetections, s.detections.len() as u64);
        m.add(Counter::GfwType1ResetsInjected, s.type1_resets_injected);
        m.add(Counter::GfwType2ResetsInjected, s.type2_resets_injected);
        m.add(Counter::GfwForgedSynacks, s.forged_synacks);
        m.add(Counter::GfwDnsPoisoned, s.dns_poisoned);
        m.add(Counter::GfwBlacklistInserts, s.blacklist_inserts);
        m.add(Counter::GfwBlacklistHits, s.blacklist_hits);
        m.add(Counter::GfwBlacklistCollateralResets, s.blacklist_collateral_resets);
        m.add(Counter::GfwResyncStorms, s.resync_storms);
        m.add(Counter::GfwProbesLaunched, s.probes_launched);
        m.add(Counter::GfwIpBlockedDrops, s.ip_blocked_drops);
        m.add(Counter::GfwDpiBytesScanned, s.dpi_bytes_scanned);
        m.add(Counter::GfwInjectionsSuppressed, s.injections_suppressed);
        m.add(Counter::GfwDeviceFlaps, s.device_flaps);
        m.add(Counter::GfwBlacklistJitterApplied, s.blacklist_jitter_draws);
        m.add(Counter::GfwBlockpagesInjected, s.blockpages_injected);
    }

    fn sample_gauges(&self, g: &mut GaugeSample) {
        let core = self.core.borrow();
        let id = if core.cfg.generation == GfwGeneration::Evolved {
            GaugeId::GfwTcbsEvolved
        } else {
            GaugeId::GfwTcbsOld
        };
        g.add(id, core.tcbs.len() as u64);
        g.add(GaugeId::GfwBlacklist, core.blacklist.len() as u64);
    }
}

impl GfwCore {
    fn analyze(&mut self, ctx: &mut Ctx<'_>, dir: Direction, wire: Wire) {
        // The censor reassembles IP fragments itself (first-wins, §3.2).
        let Some(wire) = self.ip_reasm.push(wire) else { return };
        // The cached header index: the forwarded copy shares this buffer, so
        // the downstream endpoint's parse hits the same memoized view.
        let Some(hdr) = wire.headers() else { return };
        if self.cfg.validate_ip_total_len && !Ipv4Packet::new_unchecked(&wire[..]).total_len_consistent() {
            return;
        }
        match hdr.protocol {
            IpProtocol::Udp => self.analyze_udp(ctx, dir, &Ipv4Packet::new_unchecked(&wire[..])),
            IpProtocol::Tcp => self.analyze_tcp(ctx, dir, &wire, &hdr),
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // UDP: DNS poisoning (§2.1).
    // ------------------------------------------------------------------
    fn analyze_udp(&mut self, ctx: &mut Ctx<'_>, dir: Direction, ip: &Ipv4Packet<&[u8]>) {
        if !self.cfg.dns_poison || dir != Direction::ToServer {
            return;
        }
        let Ok(u) = udp::UdpPacket::new_checked(ip.payload()) else { return };
        if u.dst_port() != 53 {
            return;
        }
        let Ok(query) = dns::DnsMessage::decode(u.payload()) else { return };
        if query.is_response {
            return;
        }
        let Some(name) = query.first_name() else { return };
        self.stats.dpi_bytes_scanned += name.len() as u64;
        let domain_hit = {
            let _s = span(SpanId::DpiScan);
            self.aut.scan(name.as_bytes()).contains(&DetectionKind::Domain)
        };
        if !domain_hit {
            return;
        }
        // Inject a forged response "from" the resolver with a bogus A record.
        let forged = dns::DnsMessage::answer_a(&query, POISON_ADDR, 300);
        let resp = udp::UdpRepr::new(53, u.src_port(), forged.encode());
        let ipr = Ipv4Repr::new(ip.dst_addr(), ip.src_addr(), IpProtocol::Udp);
        let wire = Wire::from_vec(ipr.emit(&resp.emit(ip.dst_addr(), ip.src_addr())));
        self.stats.dns_poisoned += 1;
        self.stats.detections.push((
            ctx.now,
            DetectionKind::Domain,
            FourTuple::new(ip.src_addr(), u.src_port(), ip.dst_addr(), 53),
        ));
        ctx.send_delayed(Direction::ToClient, wire, self.cfg.reaction_delay);
    }

    // ------------------------------------------------------------------
    // TCP: TCB lifecycle, DPI, resets.
    // ------------------------------------------------------------------
    fn analyze_tcp(&mut self, ctx: &mut Ctx<'_>, dir: Direction, wire: &Wire, hdr: &intang_packet::HeaderIndex) {
        let Some(seg) = hdr.tcp().copied() else { return };
        let l4 = &wire[usize::from(hdr.ip_payload_start)..usize::from(hdr.ip_payload_end)];
        // Discrepancy checks the real GFW does NOT perform (all default-off).
        if self.cfg.validate_checksum && !TcpPacket::new_unchecked(l4).verify_checksum(hdr.src, hdr.dst) {
            return;
        }
        if self.cfg.check_md5
            && TcpPacket::new_unchecked(l4)
                .options()
                .iter()
                .any(|o| matches!(o, intang_packet::TcpOption::Md5Sig(_)))
        {
            return;
        }
        let src = (hdr.src, seg.src_port);
        let dst = (hdr.dst, seg.dst_port);

        // Route packets addressed to our probers into the probe logic. The
        // prober wants a full repr; this path is rare enough to pay for one.
        if self.prober.owns(dst.0) {
            let repr = TcpRepr::parse(&TcpPacket::new_unchecked(l4));
            for inj in self.prober.on_packet_to_prober(src, dst, &repr) {
                ctx.send_delayed(Direction::ToServer, inj, self.cfg.reaction_delay);
            }
            return;
        }

        // Everything past this point touches cross-flow censor state, all
        // of it owned by the packet's lane. The lane moves out of `self`
        // for the duration so lane and table can be borrowed together (the
        // default placeholder is never observable: analysis runs to
        // completion before any re-entry).
        let lane_idx = if self.lanes.len() == 1 {
            0
        } else {
            intang_packet::pair_shard(hdr.src, hdr.dst, self.lanes.len() as u32) as usize
        };
        let mut lane = std::mem::take(&mut self.lanes[lane_idx]);
        self.analyze_tcp_lane(ctx, &mut lane, dir, wire, hdr, seg);
        self.lanes[lane_idx] = lane;
    }

    /// The lane-scoped tail of TCP analysis: blacklist volleys, TCB
    /// lifecycle, DPI, detection actions.
    fn analyze_tcp_lane(
        &mut self,
        ctx: &mut Ctx<'_>,
        lane: &mut CensorLane,
        dir: Direction,
        wire: &Wire,
        hdr: &intang_packet::HeaderIndex,
        seg: intang_packet::TcpIndex,
    ) {
        let l4 = &wire[usize::from(hdr.ip_payload_start)..usize::from(hdr.ip_payload_end)];
        let payload = &wire[usize::from(seg.payload_start)..usize::from(seg.payload_end)];
        let src = (hdr.src, seg.src_port);
        let dst = (hdr.dst, seg.dst_port);
        let tuple = FourTuple::new(src.0, src.1, dst.0, dst.1);
        let key = tuple.canonical();

        // Blacklisted pair: sustained disruption (§2.1). Volleys drawn by
        // a flow other than the pair's original offender are collateral —
        // the cross-flow coupling a shared blacklist creates.
        if let Some(collateral) = self.blacklist.hit(src.0, dst.0, ctx.now, Some(tuple)) {
            self.stats.blacklist_hits += 1;
            if seg.flags.syn() && !seg.flags.ack() && self.cfg.type2 {
                let CensorLane { rng, injector, .. } = &mut *lane;
                let forged = injector.forged_synack(lane_rng(rng, ctx), dst, src, seg.seq.wrapping_add(1));
                self.stats.forged_synacks += 1;
                ctx.send_delayed(dir.reversed(), forged, self.cfg.reaction_delay);
                if collateral {
                    self.stats.blacklist_collateral_resets += 1;
                }
            } else if !seg.flags.rst() {
                self.inject_pair_resets(ctx, lane, dir, src, dst, (seg.seq, seg.ack));
                if collateral {
                    self.stats.blacklist_collateral_resets += 1;
                }
            }
            // Tracking continues below; repeated detections extend the list.
        }

        // ---- TCB lifecycle -------------------------------------------------
        let evolved = self.cfg.generation == GfwGeneration::Evolved;

        if !self.tcbs.contains_key(&key) {
            if seg.flags.syn() && !seg.flags.ack() {
                let mut tcb = CensorTcb::from_syn(src, dst, seg.seq, self.cfg.segment_overlap);
                tcb.overloaded = lane_rng(&mut lane.rng, ctx).chance(self.cfg.overload_miss_prob);
                self.insert_tcb(lane, key, tcb);
            } else if seg.flags.syn() && seg.flags.ack() && evolved {
                // Hypothesized New Behavior 1: TCB from a SYN/ACK. The
                // source is assumed to be the server.
                let mut tcb = CensorTcb::from_synack(src, dst, seg.seq, seg.ack, self.cfg.segment_overlap);
                tcb.overloaded = lane_rng(&mut lane.rng, ctx).chance(self.cfg.overload_miss_prob);
                self.insert_tcb(lane, key, tcb);
            }
            return;
        }

        // Work on the existing TCB.
        if self.cfg.eviction == EvictionPolicy::Lru {
            self.touch_tcb(lane, key);
        }
        let mut remove = false;
        let mut resynced = false;
        let mut detections: Vec<DetectionKind> = Vec::new();
        {
            let tcb = self.tcbs.get_mut(&key).expect("checked above");
            let from_client = tcb.is_client(src.0, src.1);

            if seg.flags.rst() {
                // Hypothesized New Behavior 3: RST may resync instead of
                // tearing down; sticky per pair/period.
                let resync = if evolved {
                    let prob = if tcb.in_handshake {
                        self.cfg.rst_resync_prob_handshake
                    } else {
                        self.cfg.rst_resync_prob
                    };
                    let CensorLane {
                        rng,
                        rst_resync_sticky,
                        rst_resync_hs_sticky,
                        ..
                    } = &mut *lane;
                    let slot = if tcb.in_handshake {
                        rst_resync_hs_sticky
                    } else {
                        rst_resync_sticky
                    };
                    *slot.get_or_insert_with(|| lane_rng(rng, ctx).chance(prob))
                } else {
                    false
                };
                if resync {
                    if tcb.state != CensorState::Resync {
                        self.stats.tcb_resyncs += 1;
                        resynced = true;
                    }
                    tcb.state = CensorState::Resync;
                    intang_simcheck::tcb_resync(self.sc_domain, key, intang_simcheck::ResyncTrigger::Rst);
                } else {
                    remove = true;
                }
            } else if seg.flags.fin() && self.cfg.generation == GfwGeneration::Old {
                // Prior Assumption 3: FIN tears the TCB down. The evolved
                // model ignores FIN (§4).
                remove = true;
            } else if seg.flags.syn() && tcb.created_by_synack {
                // Reversal TCBs ignore all handshake packets (§5.2).
            } else if seg.flags.syn() && !seg.flags.ack() {
                if from_client {
                    // An identical duplicate (same ISN) is a plain
                    // retransmission, not a "multiple SYNs" signal — the
                    // paper's resync probes vary the sequence number.
                    if seg.seq != tcb.client_isn {
                        tcb.syn_count += 1;
                        if evolved && tcb.syn_count > 1 {
                            // Hypothesized New Behavior 2(a).
                            if tcb.state != CensorState::Resync {
                                self.stats.tcb_resyncs += 1;
                                resynced = true;
                            }
                            tcb.state = CensorState::Resync;
                            intang_simcheck::tcb_resync(self.sc_domain, key, intang_simcheck::ResyncTrigger::MultipleSyn);
                        }
                        // Prior model: later SYNs are ignored, the first
                        // sequence number stands (Prior Assumption 2).
                    }
                }
            } else if seg.flags.syn() && seg.flags.ack() {
                if !from_client {
                    let retransmission = tcb.last_synack == Some((seg.seq, seg.ack));
                    if retransmission {
                        // SYN/ACK retransmissions don't perturb the TCB.
                    } else if tcb.state == CensorState::Resync {
                        // §4: a server SYN/ACK resolves resynchronization.
                        tcb.resync_to(seg.ack);
                        intang_simcheck::tcb_resync(self.sc_domain, key, intang_simcheck::ResyncTrigger::ServerSynAck);
                        tcb.synack_count = 1;
                        tcb.server_next = seg.seq.wrapping_add(1);
                        tcb.last_synack = Some((seg.seq, seg.ack));
                    } else {
                        tcb.synack_count += 1;
                        tcb.server_next = seg.seq.wrapping_add(1);
                        tcb.last_synack = Some((seg.seq, seg.ack));
                        if evolved && (tcb.synack_count > 1 || seg.ack != tcb.client_isn.wrapping_add(1)) {
                            // Hypothesized New Behavior 2(b)/(c).
                            if tcb.state != CensorState::Resync {
                                self.stats.tcb_resyncs += 1;
                                resynced = true;
                            }
                            tcb.state = CensorState::Resync;
                            intang_simcheck::tcb_resync(self.sc_domain, key, intang_simcheck::ResyncTrigger::SynAckMismatch);
                        } else if evolved {
                            // The evolved censor anchors the client stream
                            // at the SYN/ACK's ACK (§5.2).
                            tcb.resync_to(seg.ack);
                        }
                        // Prior model: the first SYN's sequence stands.
                    }
                }
            } else {
                // Data / pure ACK.
                if from_client {
                    // §8 hardened-censor checks (all off on the real GFW):
                    // a wrong (future) ACK number or a PAWS-stale timestamp
                    // makes the hardened censor ignore the segment like a
                    // server would.
                    if self.cfg.check_ack
                        && seg.flags.ack()
                        && tcb.server_next != 0
                        && intang_packet::tcp::seq::gt(seg.ack, tcb.server_next)
                    {
                        return;
                    }
                    let tsval = TcpPacket::new_unchecked(l4).options().iter().find_map(|o| match o {
                        intang_packet::TcpOption::Timestamps { tsval, .. } => Some(*tsval),
                        _ => None,
                    });
                    if self.cfg.check_timestamp {
                        if let (Some(recent), Some(tsval)) = (tcb.ts_recent, tsval) {
                            if recent.wrapping_sub(tsval) < 0x8000_0000 && recent != tsval {
                                return;
                            }
                        }
                    }
                    if let Some(tsval) = tsval {
                        let newer = tcb.ts_recent.is_none_or(|r| tsval.wrapping_sub(r) < 0x8000_0000);
                        if newer {
                            tcb.ts_recent = Some(tsval);
                        }
                    }
                    if seg.flags.ack() {
                        tcb.in_handshake = false;
                    }
                    if !payload.is_empty() {
                        if tcb.state == CensorState::Resync {
                            // §4: the next client data packet re-anchors.
                            tcb.resync_to(seg.seq);
                            intang_simcheck::tcb_resync(self.sc_domain, key, intang_simcheck::ResyncTrigger::ClientData);
                        }
                        self.stats.dpi_bytes_scanned += payload.len() as u64;
                        let _s = span(SpanId::DpiScan);
                        detections = tcb.feed_client_data(&self.aut, seg.seq, payload, self.cfg.type1, self.cfg.type2);
                    }
                } else {
                    // Server→client data: never a resync trigger (§4).
                    let end = seg.seq.wrapping_add(payload.len() as u32);
                    if intang_packet::tcp::seq::gt(end, tcb.server_next) {
                        tcb.server_next = end;
                    }
                    if self.cfg.censor_responses && !payload.is_empty() {
                        self.stats.dpi_bytes_scanned += payload.len() as u64;
                        let _s = span(SpanId::DpiScan);
                        detections = tcb.feed_server_data(&self.aut, payload);
                    }
                }
            }
        }

        if resynced {
            self.note_resync(lane, ctx.now);
        }
        if remove {
            self.tcbs.remove(&key);
            lane.tcb_count -= 1;
            self.stats.tcbs_removed += 1;
            intang_simcheck::tcb_removed(self.sc_domain, key);
            return;
        }
        if !detections.is_empty() {
            self.act_on_detections(ctx, lane, key, detections);
        }
    }

    /// Record one resync transition into the lane's storm window; when the
    /// window fills to the configured threshold, count a storm and clear it
    /// (so a sustained burst counts once per threshold-batch).
    fn note_resync(&mut self, lane: &mut CensorLane, now: Instant) {
        let threshold = self.cfg.resync_storm_threshold;
        if threshold == 0 {
            return;
        }
        let cutoff = now.micros().saturating_sub(self.cfg.resync_storm_window.micros());
        while lane.resync_window.front().is_some_and(|t| t.micros() < cutoff) {
            lane.resync_window.pop_front();
        }
        lane.resync_window.push_back(now);
        if lane.resync_window.len() >= threshold {
            self.stats.resync_storms += 1;
            lane.resync_window.clear();
        }
    }

    /// LRU bookkeeping: stamp the TCB and append a fresh eviction-order
    /// entry; the entry it supersedes goes stale and is skipped at
    /// eviction time. Compaction keeps the lazy deque from growing without
    /// bound on long runs.
    fn touch_tcb(&mut self, lane: &mut CensorLane, key: FourTuple) {
        lane.touch_seq += 1;
        let Some(tcb) = self.tcbs.get_mut(&key) else { return };
        tcb.touched = lane.touch_seq;
        lane.tcb_order.push_back((key, lane.touch_seq));
        if lane.tcb_order.len() > lane.tcb_count * 4 + 16 {
            // Drop stale entries (stamp no longer current), keeping the
            // relative order of the fresh ones.
            let tcbs = &self.tcbs;
            lane.tcb_order.retain(|(k, stamp)| tcbs.get(k).is_some_and(|t| t.touched == *stamp));
        }
    }

    /// Insert a TCB, evicting per the configured policy when the lane's
    /// share of the table is full: FIFO pops the oldest insertion, LRU pops
    /// the stalest touch.
    fn insert_tcb(&mut self, lane: &mut CensorLane, key: FourTuple, tcb: CensorTcb) {
        while lane.tcb_count >= lane.quota {
            let Some((victim, stamp)) = lane.tcb_order.pop_front() else { break };
            // Stale entries: the key was touched more recently (LRU), or
            // its TCB was already torn down. Skip without counting.
            if self.tcbs.get(&victim).is_some_and(|t| t.touched == stamp) {
                self.tcbs.remove(&victim);
                lane.tcb_count -= 1;
                self.stats.tcbs_evicted += 1;
                intang_simcheck::tcb_removed(self.sc_domain, victim);
            }
        }
        lane.touch_seq += 1;
        let mut tcb = tcb;
        tcb.touched = lane.touch_seq;
        self.tcbs.insert(key, tcb);
        lane.tcb_count += 1;
        lane.tcb_order.push_back((key, lane.touch_seq));
        self.stats.tcbs_created += 1;
        intang_simcheck::tcb_created(self.sc_domain, key);
    }

    fn act_on_detections(&mut self, ctx: &mut Ctx<'_>, lane: &mut CensorLane, key: FourTuple, kinds: Vec<DetectionKind>) {
        intang_simcheck::tcb_detection(self.sc_domain, key);
        let (client, server, client_next, server_next, already) = {
            let tcb = self.tcbs.get(&key).expect("tcb present");
            (tcb.client, tcb.server, tcb.client_next(), tcb.server_next, tcb.detected)
        };
        for kind in kinds {
            self.stats
                .detections
                .push((ctx.now, kind, FourTuple::new(client.0, client.1, server.0, server.1)));
            match kind {
                DetectionKind::HttpKeyword | DetectionKind::Domain => {
                    if !already {
                        // Blockpage censors (Turkmenistan, per Nourin et
                        // al.) answer the forbidden request in-band before
                        // the reset volley: same reaction delay, queued
                        // first, so at the shared timestamp the spoofed
                        // response precedes the resets.
                        if self.cfg.inject_blockpage && self.chaos_volley_fires(ctx, lane) {
                            let w = lane.injector.blockpage(server, client, server_next, client_next);
                            ctx.send_delayed(Direction::ToClient, w, self.cfg.reaction_delay);
                            self.stats.blockpages_injected += 1;
                        }
                        self.inject_detection_resets(ctx, lane, client, server, client_next, server_next);
                        if self.cfg.type2 {
                            let duration = self.chaos_blacklist_duration(ctx, lane);
                            let origin = FourTuple::new(client.0, client.1, server.0, server.1);
                            self.blacklist.add(client.0, server.0, ctx.now, duration, origin);
                            self.stats.blacklist_inserts += 1;
                        }
                        self.tcbs.get_mut(&key).expect("tcb present").detected = true;
                    }
                }
                DetectionKind::TorHandshake => {
                    if self.cfg.tor_filter && self.cfg.active_probing {
                        if let Some(syn) = self.prober.on_tor_fingerprint(server) {
                            self.stats.probes_launched += 1;
                            // Probes launch shortly after the fingerprint.
                            ctx.send_delayed(Direction::ToServer, syn, Duration::from_millis(50));
                        }
                    }
                }
                DetectionKind::VpnHandshake => {
                    if self.cfg.vpn_dpi && !already {
                        self.inject_detection_resets(ctx, lane, client, server, client_next, server_next);
                        self.tcbs.get_mut(&key).expect("tcb present").detected = true;
                    }
                }
            }
        }
    }

    /// Chaos gate for one device instance's injection volley. With the
    /// inert defaults (`chaos_device_flap_prob` 0.0, `chaos_rst_inject_prob`
    /// 1.0) both `chance` calls short-circuit without drawing randomness,
    /// so fault-free runs stay byte-identical. Per Ensafi et al., both the
    /// flap and the injection rate are drawn per volley: the same vantage
    /// point sees the censor react inconsistently over time.
    fn chaos_volley_fires(&mut self, ctx: &mut Ctx<'_>, lane: &mut CensorLane) -> bool {
        if lane_rng(&mut lane.rng, ctx).chance(self.cfg.chaos_device_flap_prob) {
            self.stats.device_flaps += 1;
            self.stats.injections_suppressed += 1;
            return false;
        }
        if !lane_rng(&mut lane.rng, ctx).chance(self.cfg.chaos_rst_inject_prob) {
            self.stats.injections_suppressed += 1;
            return false;
        }
        true
    }

    /// Blacklist duration with chaos jitter applied (inert at 0.0).
    fn chaos_blacklist_duration(&mut self, ctx: &mut Ctx<'_>, lane: &mut CensorLane) -> Duration {
        let j = self.cfg.chaos_blacklist_jitter;
        if j <= 0.0 {
            return self.cfg.blacklist_duration;
        }
        let base = self.cfg.blacklist_duration.micros();
        let span = (base as f64 * j.min(1.0)) as u64;
        self.stats.blacklist_jitter_draws += 1;
        Duration::from_micros(lane_rng(&mut lane.rng, ctx).range_u64(base.saturating_sub(span), base + span + 1))
    }

    /// The full §2.1 reset volley, both directions.
    fn inject_detection_resets(
        &mut self,
        ctx: &mut Ctx<'_>,
        lane: &mut CensorLane,
        client: (Ipv4Addr, u16),
        server: (Ipv4Addr, u16),
        client_next: u32,
        server_next: u32,
    ) {
        let d = self.cfg.reaction_delay;
        if self.cfg.type1 && self.chaos_volley_fires(ctx, lane) {
            // One RST each way, spoofed from the opposite endpoint.
            let CensorLane { rng, injector, .. } = &mut *lane;
            let r = lane_rng(rng, ctx);
            let to_client = injector.type1(r, server, client, server_next);
            let to_server = injector.type1(r, client, server, client_next);
            ctx.send_delayed(Direction::ToClient, to_client, d);
            ctx.send_delayed(Direction::ToServer, to_server, d);
            self.stats.resets_injected += 2;
            self.stats.type1_resets_injected += 2;
        }
        if self.cfg.type2 && self.chaos_volley_fires(ctx, lane) {
            for w in lane.injector.type2(server, client, server_next, client_next) {
                ctx.send_delayed(Direction::ToClient, w, d);
                self.stats.resets_injected += 1;
                self.stats.type2_resets_injected += 1;
            }
            for w in lane.injector.type2(client, server, client_next, server_next) {
                ctx.send_delayed(Direction::ToServer, w, d);
                self.stats.resets_injected += 1;
                self.stats.type2_resets_injected += 1;
            }
        }
    }

    /// Resets fired at arbitrary packets during the blacklist period.
    /// `seq_ack` is the observed packet's `(seq, ack)` pair.
    fn inject_pair_resets(
        &mut self,
        ctx: &mut Ctx<'_>,
        lane: &mut CensorLane,
        dir: Direction,
        src: (Ipv4Addr, u16),
        dst: (Ipv4Addr, u16),
        seq_ack: (u32, u32),
    ) {
        let (seq, ack) = seq_ack;
        let d = self.cfg.reaction_delay;
        if self.cfg.type1 && self.chaos_volley_fires(ctx, lane) {
            let CensorLane { rng, injector, .. } = &mut *lane;
            let w = injector.type1(lane_rng(rng, ctx), dst, src, ack);
            ctx.send_delayed(dir.reversed(), w, d);
            self.stats.resets_injected += 1;
            self.stats.type1_resets_injected += 1;
        }
        if self.cfg.type2 && self.chaos_volley_fires(ctx, lane) {
            // Reset the sender of the observed packet (spoofed from its peer).
            for w in lane.injector.type2(dst, src, ack, seq) {
                ctx.send_delayed(dir.reversed(), w, d);
                self.stats.resets_injected += 1;
                self.stats.type2_resets_injected += 1;
            }
        }
    }
}
