//! Metropolis: one shared world hosting very many concurrent client flows.
//!
//! The classic trial topology (one client host, one server host, one fetch)
//! scales to the paper's *population* questions — blacklist collateral
//! damage, censor TCB eviction under load, resynchronization storms — by
//! replacing the two hosts with two multiplexing elements:
//!
//! * [`MetroClients`] (leftmost): hosts every client flow. Per-flow state
//!   (a dedicated [`TcpEndpoint`], an `HttpFetch`, outcome slot) lives
//!   in **shards** — flow-keyed hash maps partitioned by
//!   [`intang_packet::pair_shard`] of the flow's *address pair* (never the
//!   ports, see [`shard_of`]) — the same partition key the sharded censor
//!   and shim lanes use, so a shard's flows and the cross-flow state they
//!   touch are causally closed. That closure is what lets
//!   [`MetroClients::for_domain`] split the shards across independent
//!   **event domains** (one [`Simulation`] per worker thread) without
//!   changing a single emitted byte.
//! * [`MetroServers`] (rightmost): hosts every origin site. One small
//!   endpoint and one `HttpServe` per *connection*, created on the first
//!   SYN and reaped as soon as the request is answered and every socket has
//!   settled (a TTL timer remains as a backstop for conversations that
//!   never complete), so the steady-state cost of finished flows is zero.
//!
//! Both elements only host the two HTTP machines of [`crate::http`], the
//! same ones a per-trial host runs, and a flow's outcome comes from the
//! same definition as a trial's: [`TrialOutcome::of_fetch`] over (response
//! complete, resets seen), resets first. A flow's evidence is its socket's
//! reset plus the resets the INTANG shim saw on it, and it ends when the
//! flow retires (on its fetch's end, or at the horizon); a trial's evidence
//! runs to its horizon.
//!
//! Everything in between — the INTANG shim, middleboxes, the GFW tap — is
//! the ordinary single-flow path, now observing (and entangling) all flows
//! at once through the censor's shared TCB table and blacklist (or its
//! per-lane partitions when the censor runs sharded).
//!
//! Determinism: flows spawn from a pre-generated, start-sorted spec list
//! via per-shard chained timers (never by iterating a hash map), per-flow
//! timers are keyed by flow id, and the end-of-run sweep walks each shard's
//! flow ids in spec order. Shard assignment is a pure function of the flow
//! key, so any shard count partitions the *same* per-flow results, and any
//! grouping of shards into domains replays each shard's exact serial event
//! stream.

use crate::http::{FetchEnd, HttpFetch, HttpServe, Reply};
use intang_netsim::{Ctx, Direction, Duration, Element, Instant, Simulation};
use intang_packet::http::{HttpRequest, HttpResponse};
use intang_packet::{FourTuple, FxHashMap, Ipv4Packet, TcpPacket, Wire};
use intang_tcpstack::{StackProfile, TcpEndpoint};
use intang_telemetry::{span, Counter, GaugeId, GaugeSample, HistId, MetricsSheet, SpanId, TrialOutcome};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// Every metropolis site serves plain HTTP.
pub const METRO_PORT: u16 = 80;
/// First source port assigned per client address; the per-address budget
/// (`65535 - METRO_BASE_PORT`) caps concurrent+finished flows per address.
pub const METRO_BASE_PORT: u16 = 40_000;

/// Timer-token namespaces live in bits 32+; the low 32 bits carry the
/// argument. Kind 1: per-flow TCP/retransmit clock (`| flow_id`).
const CLIENT_TCP_BASE: u64 = 1 << 32;
/// Kind 2: per-shard chained spawn cursor (`| shard`).
const SPAWN_BASE: u64 = 2 << 32;
/// Kind 3: per-shard end-of-run sweep (`| shard`) — marks every still-live
/// flow of that shard stalled.
const FINISH_BASE: u64 = 3 << 32;

/// One planned flow. Specs are generated up front by the load generator
/// (seeded arrival process) and must be sorted by `start`.
#[derive(Debug, Clone, Copy)]
pub struct FlowSpec {
    pub start: Instant,
    /// Index into the client address pool.
    pub client: u32,
    /// Index into the site address pool.
    pub site: u32,
    /// The flow's initial sequence number draw.
    pub isn: u32,
    /// Request carries the sensitive keyword.
    pub keyword: bool,
    /// Idle time between ESTABLISHED and sending the request (capacity
    /// tests use this to age a TCB toward eviction).
    pub request_delay: Duration,
}

/// Terminal classification of one flow: the §3.4 taxonomy per flow,
/// decided at retirement by [`TrialOutcome::of_fetch`], the definition
/// trials use, over the flow's evidence up to that moment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowOutcome {
    /// Never reached a terminal state (only visible mid-run).
    Pending,
    /// Complete HTTP response received, and no reset seen.
    Success,
    /// Failure 2: a reset was seen, by the socket or by the shim (censor
    /// type-1/type-2, blacklist collateral, or a blockpage censor's reset
    /// after its spoofed response).
    Reset,
    /// Failure 1: no response and no reset before the socket closed or the
    /// run ended.
    Stalled,
}

impl From<TrialOutcome> for FlowOutcome {
    fn from(o: TrialOutcome) -> FlowOutcome {
        match o {
            TrialOutcome::Success => FlowOutcome::Success,
            TrialOutcome::Failure1 => FlowOutcome::Stalled,
            TrialOutcome::Failure2 => FlowOutcome::Reset,
        }
    }
}

/// Result slot for one flow, indexed by flow id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowResult {
    pub outcome: FlowOutcome,
    /// Spawn → complete-response latency (successes only, else 0).
    pub latency_us: u64,
    /// Shard this flow's state lived in.
    pub shard: u32,
}

/// Pure shard assignment: [`intang_packet::pair_shard`] of the flow's
/// address pair alone. Ports deliberately do not participate — every
/// conversation between one (client, server) pair, and therefore every
/// censor-lane and shim-lane decision it can influence, lands in the same
/// shard, which is what makes a shard safe to lift into its own event
/// domain. The assignment never depends on spawn order, map iteration
/// order, or the shard count of *other* runs.
pub fn shard_of(tuple: &FourTuple, shards: u32) -> u32 {
    intang_packet::pair_shard(tuple.src, tuple.dst, shards)
}

/// Per-flow state: its own tiny TCP endpoint plus the fetch machine.
struct FlowCell {
    tuple: FourTuple,
    ep: TcpEndpoint,
    fetch: HttpFetch,
    started: Instant,
}

/// Shared, handle-visible run state (outcome grid + interference-free
/// aggregate counters + the per-shard event ordering ledger).
pub struct MetroState {
    /// One slot per flow id; `shard` is filled at construction.
    pub results: Vec<FlowResult>,
    pub spawned: u64,
    pub succeeded: u64,
    pub reset: u64,
    pub stalled: u64,
    /// Flows spawned and not yet retired.
    pub live: u64,
    /// Per-shard monotone event sequence (feeds the simcheck FlowOrder
    /// shadow and the cheap always-on ordering check below).
    shard_seq: Vec<u64>,
    /// Last `(time, shard-seq)` observed per live flow.
    flow_last: FxHashMap<u32, (u64, u64)>,
    /// Events observed out of `(time, seq)` order within a flow — must
    /// stay zero; checked even when simcheck is off.
    pub order_violations: u64,
}

/// Cheap cloneable view of a [`MetroClients`] element's shared state.
#[derive(Clone)]
pub struct MetroHandle {
    state: Rc<RefCell<MetroState>>,
}

impl MetroHandle {
    pub fn results(&self) -> Vec<FlowResult> {
        self.state.borrow().results.clone()
    }

    pub fn live(&self) -> u64 {
        self.state.borrow().live
    }

    pub fn order_violations(&self) -> u64 {
        self.state.borrow().order_violations
    }

    /// Outcome of one flow by id.
    pub fn outcome(&self, id: u32) -> FlowOutcome {
        self.state.borrow().results[id as usize].outcome
    }
}

/// The client-side multiplexer element (leftmost, egress `ToServer`).
pub struct MetroClients {
    specs: Vec<FlowSpec>,
    /// Flow id → four-tuple (derived once: per-client port counters in
    /// spec order).
    tuples: Vec<FourTuple>,
    /// Flow id → shard index (pure [`shard_of`] of the tuple).
    shard_idx: Vec<u32>,
    /// Sharded per-flow engine state, keyed by flow id inside each shard.
    shards: Vec<FxHashMap<u32, FlowCell>>,
    /// Ingress demux: `(client addr, src port)` → live flow id.
    route: FxHashMap<(Ipv4Addr, u16), u32>,
    /// Flow ids per shard, in spec (start) order: both the spawn cursor
    /// chain and the end-of-run sweep walk these, never hash maps.
    shard_flow_ids: Vec<Vec<u32>>,
    /// Next position in `shard_flow_ids[s]` that shard's spawn timer will
    /// realize.
    cursors: Vec<usize>,
    /// Shards this instance actually runs. The serial world owns them all;
    /// an event domain owns the subset `shard % domains == domain` and
    /// never spawns (or routes, or times) anyone else's flows.
    owned: Vec<bool>,
    state: Rc<RefCell<MetroState>>,
    profile: StackProfile,
    req_keyword: Rc<Vec<u8>>,
    req_benign: Rc<Vec<u8>>,
    tx_scratch: Vec<Wire>,
    /// Invoked once per retired flow; returns the resets the shim saw on
    /// it (the experiment wires this to `IntangHandle::retire_flow`, so
    /// shim-side per-flow state dies with the flow and its reset count
    /// joins the flow's evidence).
    on_retire: Option<Box<dyn Fn(FourTuple) -> u64>>,
    /// `intang_simcheck::enabled()` cached at construction.
    sc: bool,
}

impl MetroClients {
    /// Build the element. `specs` must be sorted by `start`; source ports
    /// are assigned per client address in spec order starting at
    /// [`METRO_BASE_PORT`] (panics if an address would exhaust its range).
    pub fn new(clients: Vec<Ipv4Addr>, sites: Vec<Ipv4Addr>, specs: Vec<FlowSpec>, shards: u32) -> (MetroClients, MetroHandle) {
        Self::for_domain(clients, sites, specs, shards, 1, 0)
    }

    /// Build the element for one event domain of a `domains`-way split of
    /// the shards: this instance owns (spawns, pumps, retires) only the
    /// flows whose shard satisfies `shard % domains == domain`. Tuples,
    /// shard indices and the result grid still cover *all* flows — slots
    /// of flows owned elsewhere stay [`FlowOutcome::Pending`] — so
    /// per-domain result vectors scatter-merge by owned slot into exactly
    /// the serial grid. `for_domain(.., 1, 0)` *is* the serial element.
    pub fn for_domain(
        clients: Vec<Ipv4Addr>,
        sites: Vec<Ipv4Addr>,
        specs: Vec<FlowSpec>,
        shards: u32,
        domains: u32,
        domain: u32,
    ) -> (MetroClients, MetroHandle) {
        assert!(!clients.is_empty() && !sites.is_empty());
        assert!(specs.windows(2).all(|w| w[0].start <= w[1].start), "specs must be start-sorted");
        assert!(domains >= 1 && domain < domains, "domain index out of range");
        let shards = shards.max(1);
        let mut next_port = vec![METRO_BASE_PORT; clients.len()];
        let mut tuples = Vec::with_capacity(specs.len());
        let mut shard_idx = Vec::with_capacity(specs.len());
        let mut results = Vec::with_capacity(specs.len());
        let mut shard_flow_ids: Vec<Vec<u32>> = vec![Vec::new(); shards as usize];
        for (id, spec) in specs.iter().enumerate() {
            let addr = clients[spec.client as usize];
            let site = sites[spec.site as usize];
            let port = next_port[spec.client as usize];
            assert!(port < u16::MAX, "client {addr} exhausted its source-port range");
            next_port[spec.client as usize] = port + 1;
            let tuple = FourTuple::new(addr, port, site, METRO_PORT);
            let shard = shard_of(&tuple, shards);
            tuples.push(tuple);
            shard_idx.push(shard);
            shard_flow_ids[shard as usize].push(id as u32);
            results.push(FlowResult {
                outcome: FlowOutcome::Pending,
                latency_us: 0,
                shard,
            });
        }
        let owned: Vec<bool> = (0..shards).map(|s| s % domains == domain).collect();
        let state = Rc::new(RefCell::new(MetroState {
            results,
            spawned: 0,
            succeeded: 0,
            reset: 0,
            stalled: 0,
            live: 0,
            shard_seq: vec![0; shards as usize],
            flow_last: FxHashMap::default(),
            order_violations: 0,
        }));
        let el = MetroClients {
            specs,
            tuples,
            shard_idx,
            shards: (0..shards).map(|_| FxHashMap::default()).collect(),
            route: FxHashMap::default(),
            shard_flow_ids,
            cursors: vec![0; shards as usize],
            owned,
            state: state.clone(),
            profile: StackProfile::linux_4_4(),
            req_keyword: Rc::new(HttpRequest::get("/search?q=ultrasurf", "metropolis.example").encode()),
            req_benign: Rc::new(HttpRequest::get("/index.html", "metropolis.example").encode()),
            tx_scratch: Vec::new(),
            on_retire: None,
            sc: intang_simcheck::enabled(),
        };
        (el, MetroHandle { state })
    }

    /// Four-tuple each flow id will use (available before the element is
    /// boxed into the simulation — experiments preset per-flow strategies
    /// against these keys).
    pub fn tuples(&self) -> &[FourTuple] {
        &self.tuples
    }

    /// Install the per-flow retirement hook (e.g. the INTANG shim's
    /// `retire_flow`), which returns the resets the shim saw on the flow.
    pub fn set_retire_hook(&mut self, f: Box<dyn Fn(FourTuple) -> u64>) {
        self.on_retire = Some(f);
    }

    /// Register each owned, non-empty shard's spawn-cursor and end-of-run
    /// timers. Call once, after the element was added at `idx`. Shards are
    /// armed in index order, so same-time spawns across shards execute in
    /// shard order — but each shard's own stream is fixed regardless, which
    /// is the property the domain split relies on.
    pub fn bootstrap(&self, sim: &mut Simulation, idx: usize, horizon: Instant) {
        for (s, ids) in self.shard_flow_ids.iter().enumerate() {
            if !self.owned[s] || ids.is_empty() {
                continue;
            }
            let first = self.specs[ids[0] as usize].start;
            sim.schedule_timer(idx, first, SPAWN_BASE | s as u64);
            sim.schedule_timer(idx, horizon, FINISH_BASE | s as u64);
        }
    }

    /// Record one flow event on the flow's shard ledger: bumps the shard
    /// sequence, checks per-flow `(time, seq)` monotonicity, and feeds the
    /// simcheck FlowOrder shadow.
    fn note_event(&mut self, id: u32, now: Instant) {
        let shard = self.shard_idx[id as usize] as usize;
        let (t, seq) = {
            let mut st = self.state.borrow_mut();
            st.shard_seq[shard] += 1;
            let seq = st.shard_seq[shard];
            let t = now.micros();
            let last = st.flow_last.entry(id).or_insert((0, 0));
            let regressed = (t, seq) < *last;
            *last = (t, seq);
            if regressed {
                st.order_violations += 1;
            }
            (t, seq)
        };
        if self.sc {
            intang_simcheck::flow_event(u64::from(id), t, seq);
        }
    }

    /// Realize every spec of one shard due at `now`, then re-arm that
    /// shard's cursor timer.
    fn spawn_due(&mut self, ctx: &mut Ctx<'_>, shard: usize) {
        while let Some(&id) = self.shard_flow_ids[shard].get(self.cursors[shard]) {
            if self.specs[id as usize].start > ctx.now {
                break;
            }
            self.cursors[shard] += 1;
            self.spawn(ctx, id);
        }
        if let Some(&id) = self.shard_flow_ids[shard].get(self.cursors[shard]) {
            ctx.set_timer(self.specs[id as usize].start, SPAWN_BASE | shard as u64);
        }
    }

    fn spawn(&mut self, ctx: &mut Ctx<'_>, id: u32) {
        let spec = self.specs[id as usize];
        let tuple = self.tuples[id as usize];
        let shard = self.shard_idx[id as usize] as usize;
        let mut ep = TcpEndpoint::new(tuple.src, self.profile);
        ep.set_isn_base(spec.isn);
        let sock = ep.connect_from(tuple.src_port, tuple.dst, tuple.dst_port, ctx.now.micros());
        let request = if spec.keyword {
            self.req_keyword.clone()
        } else {
            self.req_benign.clone()
        };
        self.route.insert((tuple.src, tuple.src_port), id);
        self.shards[shard].insert(
            id,
            FlowCell {
                tuple,
                ep,
                fetch: HttpFetch::new(sock, request, spec.request_delay),
                started: ctx.now,
            },
        );
        {
            let mut st = self.state.borrow_mut();
            st.spawned += 1;
            st.live += 1;
        }
        self.note_event(id, ctx.now);
        self.pump_flow(ctx, id);
    }

    /// Advance one flow's fetch machine, transmit, and re-arm its timer.
    fn pump_flow(&mut self, ctx: &mut Ctx<'_>, id: u32) {
        let shard = self.shard_idx[id as usize] as usize;
        let Some(cell) = self.shards[shard].get_mut(&id) else { return };
        let now = ctx.now;
        let end = cell.fetch.poll(&mut cell.ep, now);
        // When the fetch ends this is the cell's last transmit (it carries
        // a completed fetch's FIN); the cell is dropped right after.
        let mut scratch = std::mem::take(&mut self.tx_scratch);
        cell.ep.poll_transmit_into(&mut scratch);
        for w in scratch.drain(..) {
            ctx.send(Direction::ToServer, w);
        }
        self.tx_scratch = scratch;
        match end {
            Some(end) => {
                self.note_event(id, now);
                self.retire(id, end, now);
            }
            None => {
                let wake = [cell.ep.next_deadline().map(Instant), cell.fetch.wake_at()]
                    .into_iter()
                    .flatten()
                    .min();
                if let Some(at) = wake {
                    let at = at.max(Instant(now.micros() + 1));
                    ctx.set_timer(at, CLIENT_TCP_BASE | u64::from(id));
                }
            }
        }
    }

    /// Drop a flow's cell and record its outcome: the fetch's own evidence
    /// plus the resets the shim saw on the flow, through the one §3.4
    /// definition.
    fn retire(&mut self, id: u32, end: FetchEnd, now: Instant) {
        let shard = self.shard_idx[id as usize] as usize;
        let Some(cell) = self.shards[shard].remove(&id) else { return };
        self.route.remove(&(cell.tuple.src, cell.tuple.src_port));
        let shim_resets = self.on_retire.as_ref().map_or(0, |f| f(cell.tuple));
        let outcome = FlowOutcome::from(TrialOutcome::of_fetch(end.complete, shim_resets + u64::from(end.reset)));
        let latency_us = match outcome {
            FlowOutcome::Success => now.micros().saturating_sub(cell.started.micros()),
            _ => 0,
        };
        {
            let mut st = self.state.borrow_mut();
            st.live -= 1;
            match outcome {
                FlowOutcome::Success => st.succeeded += 1,
                FlowOutcome::Reset => st.reset += 1,
                FlowOutcome::Stalled => st.stalled += 1,
                FlowOutcome::Pending => {}
            }
            st.results[id as usize] = FlowResult {
                outcome,
                latency_us,
                shard: shard as u32,
            };
            st.flow_last.remove(&id);
        }
        if self.sc {
            intang_simcheck::flow_retired(u64::from(id));
        }
    }
}

impl Element for MetroClients {
    fn name(&self) -> &str {
        "metro-clients"
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _dir: Direction, wire: Wire) {
        let _s = span(SpanId::Tcpstack);
        let id = {
            let Ok(ip) = Ipv4Packet::new_checked(&wire[..]) else { return };
            let Ok(tcp) = TcpPacket::new_checked(ip.payload()) else { return };
            // Demux on the flow's own (addr, port); packets for retired
            // flows (late FIN-ACKs, censor stragglers) fall off the edge.
            match self.route.get(&(ip.dst_addr(), tcp.dst_port())) {
                Some(&id) => id,
                None => return,
            }
        };
        self.note_event(id, ctx.now);
        let shard = self.shard_idx[id as usize] as usize;
        if let Some(cell) = self.shards[shard].get_mut(&id) {
            cell.ep.on_packet(wire, ctx.now.micros());
        }
        self.pump_flow(ctx, id);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let _s = span(SpanId::Tcpstack);
        let arg = (token & 0xFFFF_FFFF) as u32;
        match token >> 32 {
            k if k == CLIENT_TCP_BASE >> 32 => {
                let id = arg;
                let shard = self.shard_idx[id as usize] as usize;
                if let Some(cell) = self.shards[shard].get_mut(&id) {
                    cell.ep.on_timer(ctx.now.micros());
                    self.note_event(id, ctx.now);
                    self.pump_flow(ctx, id);
                }
            }
            k if k == SPAWN_BASE >> 32 => self.spawn_due(ctx, arg as usize),
            k if k == FINISH_BASE >> 32 => {
                // End of the world for one shard: every still-live flow
                // retires with no response and an open socket, swept in
                // spec order — never the shard maps.
                let shard = arg as usize;
                for i in 0..self.shard_flow_ids[shard].len() {
                    let id = self.shard_flow_ids[shard][i];
                    if self.shards[shard].contains_key(&id) {
                        self.note_event(id, ctx.now);
                        self.retire(id, FetchEnd::default(), ctx.now);
                    }
                }
            }
            _ => {}
        }
    }

    fn export_metrics(&self, m: &mut MetricsSheet) {
        let st = self.state.borrow();
        m.add(Counter::MetroFlowsSpawned, st.spawned);
        m.add(Counter::MetroFlowsSucceeded, st.succeeded);
        m.add(Counter::MetroFlowsReset, st.reset);
        m.add(Counter::MetroFlowsStalled, st.stalled);
        for r in &st.results {
            if r.outcome == FlowOutcome::Success {
                m.observe(HistId::MetroFlowLatencyUs, r.latency_us);
            }
        }
    }

    fn sample_gauges(&self, g: &mut GaugeSample) {
        g.add(GaugeId::MetroLiveFlows, self.state.borrow().live);
    }
}

/// Server-cell timer kinds live in bits 52+ of the token; the low 48 bits
/// encode the `(client addr, client port)` cell key.
const SRV_KIND_TCP: u64 = 1;
const SRV_KIND_EXPIRE: u64 = 2;
const SRV_KIND_SHIFT: u64 = 52;

fn srv_token(kind: u64, key: (Ipv4Addr, u16)) -> u64 {
    (kind << SRV_KIND_SHIFT) | (u64::from(u32::from(key.0)) << 16) | u64::from(key.1)
}

fn srv_token_key(token: u64) -> (Ipv4Addr, u16) {
    let addr = Ipv4Addr::from(((token >> 16) & 0xFFFF_FFFF) as u32);
    (addr, (token & 0xFFFF) as u16)
}

/// One connection on the server side.
struct ServerCell {
    ep: TcpEndpoint,
    /// The accepted connection (`None` until the handshake completes).
    serve: Option<HttpServe>,
}

/// The origin-site multiplexer element (rightmost, egress `ToClient`).
///
/// Connections are keyed by the *peer's* `(addr, port)` — unique per flow
/// by construction — and each gets a throwaway [`TcpEndpoint`] so finished
/// flows cost nothing. A cell is reaped the moment its request has been
/// answered (or torn down) *and* every socket has settled into
/// CLOSED/TIME_WAIT ([`TcpEndpoint::all_settled`]); the expiry timer
/// (`ttl` after creation) is only the backstop for conversations
/// that never complete. Stray timers for a reaped key are no-ops.
pub struct MetroServers {
    sites: Vec<Ipv4Addr>,
    profile: StackProfile,
    cells: FxHashMap<(Ipv4Addr, u16), ServerCell>,
    reply: Reply,
    /// Hard per-cell lifetime.
    ttl: Duration,
    tx_scratch: Vec<Wire>,
}

impl MetroServers {
    pub fn new(sites: Vec<Ipv4Addr>) -> MetroServers {
        MetroServers {
            sites,
            profile: StackProfile::linux_4_4(),
            cells: FxHashMap::default(),
            reply: Reply::Canned(Rc::new(HttpResponse::ok(b"<html>metropolis says hello</html>").encode())),
            ttl: Duration::from_secs(30),
            tx_scratch: Vec::new(),
        }
    }

    fn pump_cell(&mut self, ctx: &mut Ctx<'_>, key: (Ipv4Addr, u16)) {
        let Some(cell) = self.cells.get_mut(&key) else { return };
        if cell.serve.is_none() {
            cell.serve = cell.ep.take_accepted().pop().map(HttpServe::new);
        }
        if let Some(serve) = &mut cell.serve {
            serve.poll(&mut cell.ep, &self.reply, ctx.now);
        }
        let mut scratch = std::mem::take(&mut self.tx_scratch);
        cell.ep.poll_transmit_into(&mut scratch);
        for w in scratch.drain(..) {
            ctx.send(Direction::ToClient, w);
        }
        self.tx_scratch = scratch;
        let reap = cell.serve.as_ref().is_some_and(HttpServe::is_done) && cell.ep.all_settled();
        let deadline = cell.ep.next_deadline();
        if reap {
            // Answered and fully wound down: the cell is garbage now, not
            // 30 seconds from now. Metropolis links are lossless, so no
            // late retransmit will ever want it back.
            self.cells.remove(&key);
        } else if let Some(d) = deadline {
            let at = Instant(d).max(Instant(ctx.now.micros() + 1));
            ctx.set_timer(at, srv_token(SRV_KIND_TCP, key));
        }
    }
}

impl Element for MetroServers {
    fn name(&self) -> &str {
        "metro-servers"
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _dir: Direction, wire: Wire) {
        let _s = span(SpanId::Tcpstack);
        let key = {
            let Ok(ip) = Ipv4Packet::new_checked(&wire[..]) else { return };
            let dst = ip.dst_addr();
            if !self.sites.contains(&dst) {
                return;
            }
            let Ok(tcp) = TcpPacket::new_checked(ip.payload()) else { return };
            let key = (ip.src_addr(), tcp.src_port());
            if !self.cells.contains_key(&key) {
                // Only a SYN opens a cell; stray non-SYN segments for dead
                // connections (or censor injections) are swallowed.
                if !tcp.flags().syn() {
                    return;
                }
                let mut ep = TcpEndpoint::new(dst, self.profile);
                ep.listen(METRO_PORT);
                self.cells.insert(key, ServerCell { ep, serve: None });
                ctx.set_timer(ctx.now + self.ttl, srv_token(SRV_KIND_EXPIRE, key));
            }
            key
        };
        if let Some(cell) = self.cells.get_mut(&key) {
            cell.ep.on_packet(wire, ctx.now.micros());
        }
        self.pump_cell(ctx, key);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let _s = span(SpanId::Tcpstack);
        let key = srv_token_key(token);
        match token >> SRV_KIND_SHIFT {
            SRV_KIND_TCP => {
                if let Some(cell) = self.cells.get_mut(&key) {
                    cell.ep.on_timer(ctx.now.micros());
                    self.pump_cell(ctx, key);
                }
            }
            SRV_KIND_EXPIRE => {
                self.cells.remove(&key);
            }
            _ => {}
        }
    }

    fn sample_gauges(&self, g: &mut GaugeSample) {
        g.add(GaugeId::MetroServerCells, self.cells.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple(sp: u16) -> FourTuple {
        FourTuple::new(Ipv4Addr::new(10, 0, 0, 1), sp, Ipv4Addr::new(93, 184, 216, 34), 80)
    }

    #[test]
    fn shard_assignment_is_a_pure_function_of_the_key() {
        for sp in [40_000u16, 40_001, 55_555] {
            let a = shard_of(&tuple(sp), 8);
            let b = shard_of(&tuple(sp), 8);
            assert_eq!(a, b);
            assert!(a < 8);
        }
        assert_eq!(shard_of(&tuple(1), 1), 0);
    }

    #[test]
    fn shard_ignores_ports_so_a_conversation_never_spans_domains() {
        // Every connection between one address pair — whatever its source
        // port — shares a shard with the censor-lane state it touches.
        assert_eq!(shard_of(&tuple(40_000), 8), shard_of(&tuple(51_515), 8));
    }

    #[test]
    fn shards_spread_flows() {
        let mut seen = [false; 4];
        for i in 0..200u32 {
            let t = FourTuple::new(Ipv4Addr::from(0x0A00_0100 + i), 40_000, Ipv4Addr::new(93, 184, 216, 34), 80);
            seen[shard_of(&t, 4) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "200 client addresses should touch all 4 shards");
    }

    #[test]
    fn domains_partition_shards_exhaustively() {
        let clients: Vec<Ipv4Addr> = (0..32u32).map(|i| Ipv4Addr::from(0x0A00_0100 + i)).collect();
        let sites = vec![Ipv4Addr::new(93, 184, 216, 34)];
        let specs: Vec<FlowSpec> = (0..64)
            .map(|i| FlowSpec {
                start: Instant(i * 1_000),
                client: (i % 32) as u32,
                site: 0,
                isn: 1,
                keyword: false,
                request_delay: Duration::ZERO,
            })
            .collect();
        let els: Vec<MetroClients> = (0..3)
            .map(|d| MetroClients::for_domain(clients.clone(), sites.clone(), specs.clone(), 8, 3, d).0)
            .collect();
        for s in 0..8 {
            let owners = els.iter().filter(|e| e.owned[s]).count();
            assert_eq!(owners, 1, "shard {s} must be owned by exactly one domain");
        }
        // Every domain sees the same full flow universe, partitioned the
        // same way.
        let total: usize = els[0].shard_flow_ids.iter().map(Vec::len).sum();
        assert_eq!(total, specs.len());
        for e in &els[1..] {
            assert_eq!(e.shard_flow_ids, els[0].shard_flow_ids);
            assert_eq!(e.tuples(), els[0].tuples());
        }
    }

    #[test]
    fn srv_tokens_round_trip() {
        let key = (Ipv4Addr::new(203, 0, 113, 9), 41_234u16);
        let t = srv_token(SRV_KIND_EXPIRE, key);
        assert_eq!(t >> SRV_KIND_SHIFT, SRV_KIND_EXPIRE);
        assert_eq!(srv_token_key(t), key);
    }

    #[test]
    fn port_assignment_is_per_client_and_in_spec_order() {
        let clients = vec![Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2)];
        let sites = vec![Ipv4Addr::new(93, 184, 216, 34)];
        let specs: Vec<FlowSpec> = (0..4)
            .map(|i| FlowSpec {
                start: Instant(i * 1_000),
                client: (i % 2) as u32,
                site: 0,
                isn: 1,
                keyword: false,
                request_delay: Duration::ZERO,
            })
            .collect();
        let (el, _h) = MetroClients::new(clients, sites, specs, 2);
        let t = el.tuples();
        assert_eq!(t[0].src_port, METRO_BASE_PORT);
        assert_eq!(t[1].src_port, METRO_BASE_PORT, "second client starts its own range");
        assert_eq!(t[2].src_port, METRO_BASE_PORT + 1);
        assert_eq!(t[3].src_port, METRO_BASE_PORT + 1);
        assert_ne!(t[0].src, t[1].src);
    }
}
