//! # intang-simcheck
//!
//! A zero-cost-when-disabled runtime invariant layer for the simulation.
//! The paper's conclusions hang on packet-level fidelity — checksum-valid
//! forged resets (§4), TCB teardown/resync legality (Table 3), in-order
//! reassembly — yet none of those properties were *checked* at runtime
//! before this crate existed. When enabled, every hop through the simulator
//! asserts:
//!
//! - **wire integrity** — IPv4 header and TCP checksums valid on every
//!   emitted packet, with an explicit allow-list for packets that are
//!   *deliberately* corrupt (the bad-checksum insertion discrepancy of
//!   Table 5);
//! - **header-index agreement** — the memoized [`intang_packet::Wire`]
//!   header cache matches a fresh parse of the raw bytes;
//! - **packet conservation** — per-simulation, every transmission ends in
//!   exactly one outcome (delivered, lost, TTL-expired, MTU-dropped, or
//!   off the edge of the world);
//! - **event-queue monotonicity** — simulated time never runs backwards;
//! - **GFW TCB legality** — no DPI hit or resync against a connection
//!   whose TCB was already torn down, no double-create;
//! - **reassembly sanity** — `head()` never regresses and buffered
//!   segments stay disjoint and ahead of the head.
//!
//! Enablement is a process-wide env var (`INTANG_SIMCHECK=1`) or a
//! thread-local override ([`set_thread`], the `simcheck` field of
//! `intang_telemetry::RunKnobs`), which the experiments executor installs
//! in every worker thread.
//! Consumers on hot paths cache [`enabled`] as a `bool` at construction
//! time, so the disabled-mode cost is a single field read per hop.
//!
//! Violations are collected in a capped thread-local sink (no panics, no
//! I/O, no RNG draws — checking must never perturb the simulation) and
//! drained by the sweep runner, which hands them to the shrinker in
//! `intang-experiments` to produce a minimal repro artifact.

use std::cell::RefCell;
use std::fmt;

use intang_packet::{FourTuple, FxHashMap, FxHashSet, IpProtocol, Ipv4Packet, TcpPacket};

/// The invariant families a violation can belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// An emitted packet had an invalid IPv4 or TCP checksum that was not
    /// registered as a deliberate bad-checksum insertion.
    WireIntegrity,
    /// A `Wire`'s memoized header index disagreed with a fresh parse.
    HeaderIndex,
    /// Transmission outcome counters failed to reconcile.
    Conservation,
    /// The event queue yielded an event earlier than the current clock.
    TimeMonotonicity,
    /// The censor acted on a TCB that the shadow tracker says is dead.
    TcbLegality,
    /// A reassembly buffer regressed its head or held overlapping segments.
    Reassembly,
    /// A multi-flow run processed one flow's events out of (time, seq)
    /// order, or touched a flow after it retired.
    FlowOrder,
}

impl Family {
    /// Stable snake_case name, used in repro artifacts.
    pub fn name(self) -> &'static str {
        match self {
            Family::WireIntegrity => "wire_integrity",
            Family::HeaderIndex => "header_index",
            Family::Conservation => "conservation",
            Family::TimeMonotonicity => "time_monotonicity",
            Family::TcbLegality => "tcb_legality",
            Family::Reassembly => "reassembly",
            Family::FlowOrder => "flow_order",
        }
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded invariant violation.
#[derive(Debug, Clone)]
pub struct Violation {
    pub family: Family,
    pub detail: String,
    /// Seed of the trial that was running, if the runner announced one.
    pub trial_seed: Option<u64>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.family, self.detail)
    }
}

/// Why the censor moved a TCB into (or out of) the resync state. The
/// variants mirror the Table 3 trigger list; passing one documents at the
/// call site which paper rule authorized the transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResyncTrigger {
    /// An on-path RST/RST-ACK made the censor doubt its state (Table 3 r1).
    Rst,
    /// A second SYN with a different ISN (Table 3 r2).
    MultipleSyn,
    /// A SYN/ACK disagreeing with the recorded handshake (Table 3 r3).
    SynAckMismatch,
    /// Resync resolved by anchoring on a server SYN/ACK.
    ServerSynAck,
    /// Resync resolved by anchoring on the next client data packet.
    ClientData,
}

impl ResyncTrigger {
    pub fn name(self) -> &'static str {
        match self {
            ResyncTrigger::Rst => "rst",
            ResyncTrigger::MultipleSyn => "multiple_syn",
            ResyncTrigger::SynAckMismatch => "synack_mismatch",
            ResyncTrigger::ServerSynAck => "server_synack",
            ResyncTrigger::ClientData => "client_data",
        }
    }
}

/// Cap on stored violations per thread; past this we count but drop
/// details so a hot loop cannot balloon memory.
const SINK_CAP: usize = 64;
/// Cap on registered expected-bad-checksum packets per trial.
const EXPECT_CAP: usize = 4096;

/// Key identifying a deliberately-corrupt packet in a TTL-invariant way:
/// the bad-checksum discrepancy writes a *constant* checksum field value,
/// and per-hop TTL rewrites touch only the IP header, so
/// (flow, seq, checksum-field) survives the whole path.
type BadKey = (FourTuple, u32, u16);

#[derive(Default)]
struct Sink {
    trial_seed: Option<u64>,
    violations: Vec<Violation>,
    /// Total violations reported since the last drain, including ones
    /// dropped past `SINK_CAP`.
    total: u64,
    expected_bad: FxHashSet<BadKey>,
    /// Test-only corruption hook: when non-zero, the Nth checked TCP
    /// transmission of each trial gets its checksum flipped by the
    /// simulator (see [`corruption_due`]). Sticky across trials so the
    /// shrinker's replays reproduce the fault.
    corrupt_nth: u64,
    transmit_count: u64,
    /// Shadow of live censor TCBs, keyed by (device domain, flow): several
    /// censor devices can sit on one path, each with its own TCB table, so
    /// the flow alone does not identify a TCB.
    tcb_live: FxHashSet<(u64, FourTuple)>,
    /// Domains handed out this trial (deterministic: devices are
    /// constructed in path order, and [`begin_trial`] resets the counter).
    next_domain: u64,
    /// Multi-flow shadow: last (time µs, shard event seq) seen per flow id.
    flow_last: FxHashMap<u64, (u64, u64)>,
    /// Flow ids that already recorded their final outcome.
    flow_retired: FxHashSet<u64>,
}

thread_local! {
    static SINK: RefCell<Sink> = RefCell::new(Sink::default());
}

/// Is checking enabled on this thread? Thread-local knobs first, env var
/// (`INTANG_SIMCHECK=1`) otherwise. Hot paths should cache this at
/// construction time rather than calling it per packet.
pub fn enabled() -> bool {
    intang_telemetry::knobs::current().simcheck
}

/// Override enablement for the current thread (`Some(true)`/`Some(false)`),
/// or fall back to the env var (`None`). Returns the previous override so
/// callers can restore it. Must be called *before* constructing the
/// simulations it should affect — they cache the flag.
pub fn set_thread(on: Option<bool>) -> Option<bool> {
    intang_telemetry::knobs::set_field(on, |k| &mut k.simcheck)
}

/// Announce the start of a trial: records the seed for violation
/// attribution and resets per-trial state (expected-bad registry, TCB
/// shadow, corruption counter). Does *not* drain recorded violations —
/// use [`take_violations`] for that.
pub fn begin_trial(seed: u64) {
    if !enabled() {
        return;
    }
    SINK.with(|s| {
        let mut s = s.borrow_mut();
        s.trial_seed = Some(seed);
        s.expected_bad.clear();
        s.tcb_live.clear();
        s.next_domain = 0;
        s.transmit_count = 0;
        s.flow_last.clear();
        s.flow_retired.clear();
    });
}

/// Record a violation. The detail closure only runs when checking is
/// enabled and the sink has room, so call sites can format lazily.
pub fn report(family: Family, detail: impl FnOnce() -> String) {
    if !enabled() {
        return;
    }
    SINK.with(|s| {
        let mut s = s.borrow_mut();
        s.total += 1;
        if s.violations.len() < SINK_CAP {
            let seed = s.trial_seed;
            let v = Violation {
                family,
                detail: detail(),
                trial_seed: seed,
            };
            s.violations.push(v);
        }
    });
}

/// Number of violations reported since the last drain (including any
/// dropped past the storage cap).
pub fn violation_total() -> u64 {
    SINK.with(|s| s.borrow().total)
}

/// Drain recorded violations and reset the counter.
pub fn take_violations() -> Vec<Violation> {
    SINK.with(|s| {
        let mut s = s.borrow_mut();
        s.total = 0;
        std::mem::take(&mut s.violations)
    })
}

// ---------------------------------------------------------------------------
// Wire integrity
// ---------------------------------------------------------------------------

fn bad_key(ip: &Ipv4Packet<&[u8]>, tcp: &TcpPacket<&[u8]>) -> BadKey {
    let ft = FourTuple::new(ip.src_addr(), tcp.src_port(), ip.dst_addr(), tcp.dst_port());
    (ft, tcp.seq_number(), tcp.checksum_field())
}

/// Register an emitted packet as *deliberately* checksum-corrupt (the
/// bad-checksum insertion discrepancy), so [`check_wire`] will not flag
/// it. No-op when checking is disabled, so production call sites pay
/// nothing in normal runs.
pub fn expect_bad_checksum(bytes: &[u8]) {
    if !enabled() {
        return;
    }
    let Ok(ip) = Ipv4Packet::new_checked(bytes) else { return };
    if ip.is_fragment() || ip.protocol() != IpProtocol::Tcp {
        return;
    }
    let Ok(tcp) = TcpPacket::new_checked(ip.payload()) else { return };
    let key = bad_key(&ip, &tcp);
    SINK.with(|s| {
        let mut s = s.borrow_mut();
        if s.expected_bad.len() < EXPECT_CAP {
            s.expected_bad.insert(key);
        }
    });
}

fn is_expected_bad(ip: &Ipv4Packet<&[u8]>, tcp: &TcpPacket<&[u8]>) -> bool {
    let key = bad_key(ip, tcp);
    SINK.with(|s| s.borrow().expected_bad.contains(&key))
}

/// Verify IPv4 header and TCP checksums of an emitted packet. Fragments
/// are checked for IP header integrity only (their TCP checksum is only
/// meaningful after reassembly); unparseable buffers are skipped — the
/// simulator forwards them as opaque bytes.
pub fn check_wire(bytes: &[u8], context: &str) {
    if !enabled() {
        return;
    }
    let Ok(ip) = Ipv4Packet::new_checked(bytes) else { return };
    if !ip.verify_header_checksum() {
        report(Family::WireIntegrity, || {
            format!("{context}: invalid IPv4 header checksum on {}", intang_packet::summarize(bytes))
        });
    }
    if ip.is_fragment() || ip.protocol() != IpProtocol::Tcp || !ip.total_len_consistent() {
        return;
    }
    let Ok(tcp) = TcpPacket::new_checked(ip.payload()) else { return };
    if !tcp.verify_checksum(ip.src_addr(), ip.dst_addr()) && !is_expected_bad(&ip, &tcp) {
        report(Family::WireIntegrity, || {
            format!(
                "{context}: stale TCP checksum {:#06x} on {}",
                tcp.checksum_field(),
                intang_packet::summarize(bytes)
            )
        });
    }
}

// ---------------------------------------------------------------------------
// Test-only corruption hook
// ---------------------------------------------------------------------------

/// Arm the corruption hook: the `nth` (1-based) TCP transmission checked
/// in each subsequent trial gets its TCP checksum flipped by the
/// simulator *before* the wire-integrity check runs, so the check — and
/// downstream, the shrinker — can be exercised against a known fault.
/// Sticky across [`begin_trial`] calls (the per-trial counter resets, the
/// arming does not) so shrinker replays reproduce it. Test-only.
pub fn arm_corruption(nth: u64) {
    SINK.with(|s| s.borrow_mut().corrupt_nth = nth);
}

/// Disarm the corruption hook.
pub fn disarm_corruption() {
    SINK.with(|s| {
        let mut s = s.borrow_mut();
        s.corrupt_nth = 0;
        s.transmit_count = 0;
    });
}

/// Called by the simulator once per checked TCP transmission (only when
/// checking is enabled); returns true when this is the armed Nth packet
/// of the trial and should be corrupted.
pub fn corruption_due() -> bool {
    SINK.with(|s| {
        let mut s = s.borrow_mut();
        if s.corrupt_nth == 0 {
            return false;
        }
        s.transmit_count += 1;
        s.transmit_count == s.corrupt_nth
    })
}

// ---------------------------------------------------------------------------
// GFW TCB legality shadow tracker
// ---------------------------------------------------------------------------

/// Claim a shadow domain for one censor device's TCB table. Devices are
/// constructed in path order before the trial runs, so the ids are
/// deterministic across replays; [`begin_trial`] resets the allocator.
/// Returns 0 when checking is disabled (the hooks no-op then anyway).
pub fn new_tcb_domain() -> u64 {
    if !enabled() {
        return 0;
    }
    SINK.with(|s| {
        let mut s = s.borrow_mut();
        s.next_domain += 1;
        s.next_domain
    })
}

/// The censor device `domain` created a TCB for this flow. Flags a
/// double-create.
pub fn tcb_created(domain: u64, key: FourTuple) {
    if !enabled() {
        return;
    }
    let key = key.canonical();
    let dup = SINK.with(|s| !s.borrow_mut().tcb_live.insert((domain, key)));
    if dup {
        report(Family::TcbLegality, || {
            format!("duplicate TCB create in device domain {domain} for {key:?}")
        });
    }
}

/// The censor device `domain` removed (tore down or evicted) a TCB. Flags
/// a removal of a TCB the shadow tracker never saw created (or saw removed
/// already).
pub fn tcb_removed(domain: u64, key: FourTuple) {
    if !enabled() {
        return;
    }
    let key = key.canonical();
    let live = SINK.with(|s| s.borrow_mut().tcb_live.remove(&(domain, key)));
    if !live {
        report(Family::TcbLegality, || {
            format!("TCB removed but not live in device domain {domain}: {key:?}")
        });
    }
}

/// The censor device `domain` entered or resolved the resync state for a
/// flow. Legal only while the TCB is live (Table 3 triggers all presuppose
/// a tracked connection).
pub fn tcb_resync(domain: u64, key: FourTuple, trigger: ResyncTrigger) {
    if !enabled() {
        return;
    }
    let key = key.canonical();
    let live = SINK.with(|s| s.borrow().tcb_live.contains(&(domain, key)));
    if !live {
        report(Family::TcbLegality, || {
            format!("resync ({}) on dead TCB {key:?} in device domain {domain}", trigger.name())
        });
    }
}

/// The censor device `domain`'s DPI produced a detection for a flow. A hit
/// after teardown means the censor is acting on state it claims not to
/// have.
pub fn tcb_detection(domain: u64, key: FourTuple) {
    if !enabled() {
        return;
    }
    let key = key.canonical();
    let live = SINK.with(|s| s.borrow().tcb_live.contains(&(domain, key)));
    if !live {
        report(Family::TcbLegality, || {
            format!("DPI hit after TCB teardown in device domain {domain}: {key:?}")
        });
    }
}

// ---------------------------------------------------------------------------
// Multi-flow (metropolis) shadow: per-flow event order + flow conservation
// ---------------------------------------------------------------------------

/// A load-generator flow processed one event at `(at_micros, seq)`, where
/// `seq` is the owning shard's monotonically increasing event counter.
/// Flags (time, seq) going backwards within the flow — the multi-flow
/// extension of event-queue monotonicity — and any event landing on a flow
/// that already retired (acting on dead per-flow state, the flow-level
/// analog of TCB legality).
pub fn flow_event(flow: u64, at_micros: u64, seq: u64) {
    if !enabled() {
        return;
    }
    enum Bad {
        Order((u64, u64)),
        Retired,
    }
    let bad = SINK.with(|s| {
        let mut s = s.borrow_mut();
        if s.flow_retired.contains(&flow) {
            return Some(Bad::Retired);
        }
        match s.flow_last.insert(flow, (at_micros, seq)) {
            Some(prev) if prev > (at_micros, seq) => Some(Bad::Order(prev)),
            _ => None,
        }
    });
    match bad {
        Some(Bad::Order((pt, ps))) => report(Family::FlowOrder, || {
            format!("flow {flow}: event at ({at_micros}µs, seq {seq}) after ({pt}µs, seq {ps})")
        }),
        Some(Bad::Retired) => report(Family::FlowOrder, || {
            format!("flow {flow}: event at ({at_micros}µs, seq {seq}) after the flow retired")
        }),
        None => {}
    }
}

/// A flow recorded its final outcome. Flags a double-retire and a retire
/// of a flow that never processed an event — the per-flow analog of packet
/// conservation: every spawned flow ends in exactly one outcome.
pub fn flow_retired(flow: u64) {
    if !enabled() {
        return;
    }
    enum Bad {
        Double,
        NeverSeen,
    }
    let bad = SINK.with(|s| {
        let mut s = s.borrow_mut();
        if !s.flow_retired.insert(flow) {
            Some(Bad::Double)
        } else if !s.flow_last.contains_key(&flow) {
            Some(Bad::NeverSeen)
        } else {
            None
        }
    });
    match bad {
        Some(Bad::Double) => report(Family::Conservation, || format!("flow {flow}: retired twice")),
        Some(Bad::NeverSeen) => report(Family::Conservation, || {
            format!("flow {flow}: retired without ever processing an event")
        }),
        None => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn ft() -> FourTuple {
        FourTuple::new(Ipv4Addr::new(10, 0, 0, 1), 1234, Ipv4Addr::new(10, 9, 0, 1), 80)
    }

    #[test]
    fn disabled_by_default_and_reporting_is_noop() {
        assert!(!enabled());
        report(Family::WireIntegrity, || unreachable!("detail must not run"));
        assert_eq!(violation_total(), 0);
    }

    #[test]
    fn set_thread_and_sink() {
        let prev = set_thread(Some(true));
        begin_trial(7);
        report(Family::Conservation, || "off by one".into());
        assert_eq!(violation_total(), 1);
        let vs = take_violations();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].family, Family::Conservation);
        assert_eq!(vs[0].trial_seed, Some(7));
        assert_eq!(violation_total(), 0);
        set_thread(prev);
    }

    #[test]
    fn sink_caps_but_keeps_counting() {
        let prev = set_thread(Some(true));
        take_violations();
        for _ in 0..(SINK_CAP + 10) {
            report(Family::Reassembly, || "x".into());
        }
        assert_eq!(violation_total(), (SINK_CAP + 10) as u64);
        assert_eq!(take_violations().len(), SINK_CAP);
        set_thread(prev);
    }

    #[test]
    fn tcb_shadow_flags_illegal_transitions() {
        let prev = set_thread(Some(true));
        begin_trial(1);
        take_violations();
        let d = new_tcb_domain();
        tcb_created(d, ft());
        tcb_detection(d, ft());
        assert_eq!(violation_total(), 0, "live TCB actions are legal");
        tcb_removed(d, ft());
        tcb_detection(d, ft());
        tcb_resync(d, ft(), ResyncTrigger::Rst);
        tcb_removed(d, ft());
        let vs = take_violations();
        assert_eq!(vs.len(), 3);
        assert!(vs.iter().all(|v| v.family == Family::TcbLegality));
        set_thread(prev);
    }

    #[test]
    fn tcb_shadow_canonicalizes_direction() {
        let prev = set_thread(Some(true));
        begin_trial(2);
        take_violations();
        let d = new_tcb_domain();
        tcb_created(d, ft());
        tcb_detection(d, ft().reversed());
        assert_eq!(violation_total(), 0);
        tcb_removed(d, ft().reversed());
        assert_eq!(violation_total(), 0);
        set_thread(prev);
    }

    #[test]
    fn tcb_domains_keep_devices_apart() {
        // Two censor devices on one path each track the same flow; the
        // shadow must not call the second create a duplicate.
        let prev = set_thread(Some(true));
        begin_trial(3);
        take_violations();
        let (d1, d2) = (new_tcb_domain(), new_tcb_domain());
        assert_ne!(d1, d2);
        tcb_created(d1, ft());
        tcb_created(d2, ft());
        tcb_removed(d1, ft());
        tcb_detection(d2, ft());
        assert_eq!(violation_total(), 0, "distinct domains never alias");
        tcb_detection(d1, ft());
        assert_eq!(take_violations().len(), 1, "the torn-down domain still flags");
        begin_trial(4);
        assert_eq!(new_tcb_domain(), 1, "begin_trial resets the allocator");
        set_thread(prev);
    }

    #[test]
    fn flow_shadow_orders_and_conserves() {
        let prev = set_thread(Some(true));
        begin_trial(5);
        take_violations();
        // In-order events on two interleaved flows are legal.
        flow_event(1, 100, 1);
        flow_event(2, 100, 2);
        flow_event(1, 100, 3);
        flow_event(1, 250, 4);
        assert_eq!(violation_total(), 0);
        // Same time, smaller shard seq: out of order within the flow.
        flow_event(1, 250, 3);
        let vs = take_violations();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].family, Family::FlowOrder);
        // One retire is conservation-legal; the second is not, and events
        // after retirement flag too.
        flow_retired(1);
        assert_eq!(violation_total(), 0);
        flow_retired(1);
        flow_event(1, 300, 10);
        let vs = take_violations();
        assert_eq!(vs.len(), 2);
        assert_eq!(vs[0].family, Family::Conservation);
        assert_eq!(vs[1].family, Family::FlowOrder);
        // Retiring a flow that never ran violates conservation.
        flow_retired(99);
        assert_eq!(take_violations()[0].family, Family::Conservation);
        set_thread(prev);
    }
}
