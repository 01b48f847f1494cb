//! Metropolis: one shared world hosting very many concurrent client flows.
//!
//! The classic trial topology (one client host, one server host, one fetch)
//! scales to the paper's *population* questions — blacklist collateral
//! damage, censor TCB eviction under load, resynchronization storms — by
//! replacing the two hosts with two multiplexing elements:
//!
//! * [`MetroClients`] (leftmost): hosts every client flow. Per-flow state
//!   (a dedicated [`TcpEndpoint`], an `HttpFetch`, outcome slot) belongs
//!   to a **shard**, picked by [`intang_packet::pair_shard`] of the flow's
//!   *address pair* (never the ports, see [`shard_of`]) — the same
//!   partition key the sharded censor and shim lanes use, so a shard's
//!   flows and the cross-flow state they touch are causally closed. That
//!   closure is what lets [`MetroClients::for_domain`] split the shards
//!   across independent **event domains** (one [`Simulation`] per worker
//!   thread) without changing a single emitted byte; each domain holds
//!   state only for the flows it owns.
//! * [`MetroServers`] (rightmost): hosts every origin site. One small
//!   endpoint and one `HttpServe` per *connection*, created on the first
//!   SYN and reaped as soon as the request is answered and every socket has
//!   settled (a TTL timer remains as a backstop for conversations that
//!   never complete), so the steady-state cost of finished flows is zero.
//!   A connection that was never served and whose endpoint went quiet
//!   waits out the backstop as a 10-byte [`QuietEndpoint`] snapshot.
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
//! timers are keyed by the flow's local id, and the end-of-run sweep walks
//! each shard's flows in spec order. Shard assignment is a pure function of
//! the flow key, so any shard count partitions the *same* per-flow
//! results, and any grouping of shards into domains replays each shard's
//! exact serial event stream.

use crate::http::{FetchEnd, HttpFetch, HttpServe, Reply};
use intang_netsim::{Ctx, Direction, Duration, Element, Instant, Simulation};
use intang_packet::http::{HttpRequest, HttpResponse};
use intang_packet::{FourTuple, FxHashMap, Ipv4Packet, TcpPacket, Wire};
use intang_tcpstack::{QuietEndpoint, StackProfile, TcpEndpoint};
use intang_telemetry::{span, Counter, GaugeId, GaugeSample, HistId, MetricsSheet, SpanId, TrialOutcome};
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::sync::Arc;

/// Every metropolis site serves plain HTTP.
pub const METRO_PORT: u16 = 80;
/// First source port assigned per client address; the per-address budget
/// (`65535 - METRO_BASE_PORT`) caps concurrent+finished flows per address.
pub const METRO_BASE_PORT: u16 = 40_000;

/// Timer-token namespaces live in bits 32+; the low 32 bits carry the
/// argument. Kind 1: per-flow TCP/retransmit clock (`| local id`).
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

/// Result slot for one flow.
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

/// Shared, handle-visible run state (the owned flows' result slots +
/// interference-free aggregate counters + the per-shard event ordering
/// ledger).
pub struct MetroState {
    /// Flow id of each owned flow, by local id (shared with the element).
    ids: Arc<[u32]>,
    /// One slot per owned flow, by local id; `shard` is filled at
    /// construction.
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
    /// Last `(time, shard-seq)` observed per live flow, by local id.
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
    /// The owned flows' result slots, by local id. Owned flows keep their
    /// flow-id order, so in the serial element (one domain owning every
    /// flow) slot `i` is flow `i`.
    pub fn results(&self) -> Vec<FlowResult> {
        self.state.borrow().results.clone()
    }

    /// Move the owned flows' result slots out once the run is over, with
    /// the flow id of each slot, so a merge can scatter them into one grid
    /// without copying.
    pub fn take_results(&self) -> (Arc<[u32]>, Vec<FlowResult>) {
        let mut st = self.state.borrow_mut();
        (st.ids.clone(), std::mem::take(&mut st.results))
    }

    pub fn live(&self) -> u64 {
        self.state.borrow().live
    }

    pub fn order_violations(&self) -> u64 {
        self.state.borrow().order_violations
    }
}

/// The client-side multiplexer element (leftmost, egress `ToServer`).
///
/// It holds per-flow state only for the flows it *owns*: every flow in the
/// serial world, or a domain's shards of them. Owned flows are numbered by
/// a **local id** (their rank among the owned flows, in flow-id order),
/// and every per-flow array and key below but `specs` is indexed by it.
pub struct MetroClients {
    /// The world's flow specs by flow id, shared by every domain.
    specs: Arc<[FlowSpec]>,
    /// Flow id of each owned flow, by local id (shared with the handle).
    ids: Arc<[u32]>,
    /// Four-tuple of each owned flow, by local id.
    tuples: Vec<FourTuple>,
    /// Live flows' engine state, keyed by local id.
    cells: FxHashMap<u32, FlowCell>,
    /// Ingress demux: `(client addr, src port)` → live local id.
    route: FxHashMap<(Ipv4Addr, u16), u32>,
    /// Local ids per shard, in spec (start) order: both the spawn cursor
    /// chain and the end-of-run sweep walk these, never hash maps. Empty
    /// for shards another domain owns.
    shard_flow_ids: Vec<Vec<u32>>,
    /// Next position in `shard_flow_ids[s]` that shard's spawn timer will
    /// realize.
    cursors: Vec<usize>,
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

/// Every flow's four-tuple and shard, in flow-id order. Source ports count
/// up per client address in spec order from [`METRO_BASE_PORT`], so a
/// flow's port depends on every earlier flow of its client, whichever
/// domain owns them (panics if an address would exhaust its range).
fn flow_keys<'a>(
    clients: &'a [Ipv4Addr],
    sites: &'a [Ipv4Addr],
    specs: &'a [FlowSpec],
    shards: u32,
) -> impl Iterator<Item = (FourTuple, u32)> + 'a {
    let mut next_port = vec![METRO_BASE_PORT; clients.len()];
    specs.iter().map(move |spec| {
        let addr = clients[spec.client as usize];
        let port = next_port[spec.client as usize];
        assert!(port < u16::MAX, "client {addr} exhausted its source-port range");
        next_port[spec.client as usize] = port + 1;
        let tuple = FourTuple::new(addr, port, sites[spec.site as usize], METRO_PORT);
        (tuple, shard_of(&tuple, shards))
    })
}

impl MetroClients {
    /// Build the element for one event domain of a `domains`-way split of
    /// the shards: this instance owns (spawns, pumps, retires) only the
    /// flows whose shard satisfies `shard % domains == domain`, and holds
    /// tuples, result slots and cells for those alone. Ports and shards
    /// cost two passes over `specs` that allocate only a per-client port
    /// counter (one counts the owned flows so every per-flow array is
    /// reserved exactly, one fills them); the specs themselves are shared,
    /// not copied. Domains' result slots scatter by flow id
    /// ([`MetroHandle::take_results`]) into exactly the serial grid, and
    /// `for_domain(.., 1, 0)` *is* the serial element. `specs` must be
    /// sorted by `start`.
    pub fn for_domain(
        clients: &[Ipv4Addr],
        sites: &[Ipv4Addr],
        specs: Arc<[FlowSpec]>,
        shards: u32,
        domains: u32,
        domain: u32,
    ) -> (MetroClients, MetroHandle) {
        assert!(!clients.is_empty() && !sites.is_empty());
        assert!(specs.windows(2).all(|w| w[0].start <= w[1].start), "specs must be start-sorted");
        assert!(domains >= 1 && domain < domains, "domain index out of range");
        let shards = shards.max(1);
        let owns = |shard: u32| shard % domains == domain;
        let mut per_shard = vec![0usize; shards as usize];
        for (_, shard) in flow_keys(clients, sites, &specs, shards) {
            per_shard[shard as usize] += usize::from(owns(shard));
        }
        let owned: usize = per_shard.iter().sum();
        let mut shard_flow_ids: Vec<Vec<u32>> = per_shard.iter().map(|&n| Vec::with_capacity(n)).collect();
        let mut ids = Vec::with_capacity(owned);
        let mut tuples = Vec::with_capacity(owned);
        let mut results = Vec::with_capacity(owned);
        for (id, (tuple, shard)) in flow_keys(clients, sites, &specs, shards).enumerate() {
            if !owns(shard) {
                continue;
            }
            shard_flow_ids[shard as usize].push(ids.len() as u32);
            ids.push(id as u32);
            tuples.push(tuple);
            results.push(FlowResult {
                outcome: FlowOutcome::Pending,
                latency_us: 0,
                shard,
            });
        }
        let ids: Arc<[u32]> = ids.into();
        let state = Rc::new(RefCell::new(MetroState {
            ids: ids.clone(),
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
            ids,
            tuples,
            cells: FxHashMap::default(),
            route: FxHashMap::default(),
            shard_flow_ids,
            cursors: vec![0; shards as usize],
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

    /// Four-tuple of each owned flow, by local id (available before the
    /// element is boxed into the simulation — experiments preset per-flow
    /// strategies against these keys).
    pub fn tuples(&self) -> &[FourTuple] {
        &self.tuples
    }

    /// Flow id of each owned flow, by local id (increasing).
    pub fn flow_ids(&self) -> &[u32] {
        &self.ids
    }

    /// The spec of the owned flow with local id `local`.
    fn spec(&self, local: u32) -> &FlowSpec {
        &self.specs[self.ids[local as usize] as usize]
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
            let Some(&first) = ids.first() else { continue };
            sim.schedule_timer(idx, self.spec(first).start, SPAWN_BASE | s as u64);
            sim.schedule_timer(idx, horizon, FINISH_BASE | s as u64);
        }
    }

    /// Record one flow event on the flow's shard ledger: bumps the shard
    /// sequence, checks per-flow `(time, seq)` monotonicity, and feeds the
    /// simcheck FlowOrder shadow.
    fn note_event(&mut self, local: u32, now: Instant) {
        let (t, seq) = {
            let mut st = self.state.borrow_mut();
            let shard = st.results[local as usize].shard as usize;
            st.shard_seq[shard] += 1;
            let seq = st.shard_seq[shard];
            let t = now.micros();
            let last = st.flow_last.entry(local).or_insert((0, 0));
            let regressed = (t, seq) < *last;
            *last = (t, seq);
            if regressed {
                st.order_violations += 1;
            }
            (t, seq)
        };
        if self.sc {
            intang_simcheck::flow_event(u64::from(self.ids[local as usize]), t, seq);
        }
    }

    /// Realize every spec of one shard due at `now`, then re-arm that
    /// shard's cursor timer.
    fn spawn_due(&mut self, ctx: &mut Ctx<'_>, shard: usize) {
        while let Some(&local) = self.shard_flow_ids[shard].get(self.cursors[shard]) {
            if self.spec(local).start > ctx.now {
                break;
            }
            self.cursors[shard] += 1;
            self.spawn(ctx, local);
        }
        if let Some(&local) = self.shard_flow_ids[shard].get(self.cursors[shard]) {
            ctx.set_timer(self.spec(local).start, SPAWN_BASE | shard as u64);
        }
    }

    fn spawn(&mut self, ctx: &mut Ctx<'_>, local: u32) {
        let spec = *self.spec(local);
        let tuple = self.tuples[local as usize];
        let mut ep = TcpEndpoint::new(tuple.src, self.profile);
        ep.set_isn_base(spec.isn);
        let sock = ep.connect_from(tuple.src_port, tuple.dst, tuple.dst_port, ctx.now.micros());
        let request = if spec.keyword {
            self.req_keyword.clone()
        } else {
            self.req_benign.clone()
        };
        self.route.insert((tuple.src, tuple.src_port), local);
        self.cells.insert(
            local,
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
        self.note_event(local, ctx.now);
        self.pump_flow(ctx, local);
    }

    /// Advance one flow's fetch machine, transmit, and re-arm its timer.
    fn pump_flow(&mut self, ctx: &mut Ctx<'_>, local: u32) {
        let Some(cell) = self.cells.get_mut(&local) else { return };
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
                self.note_event(local, now);
                self.retire(local, end, now);
            }
            None => {
                let wake = [cell.ep.next_deadline().map(Instant), cell.fetch.wake_at()]
                    .into_iter()
                    .flatten()
                    .min();
                if let Some(at) = wake {
                    let at = at.max(Instant(now.micros() + 1));
                    ctx.set_timer(at, CLIENT_TCP_BASE | u64::from(local));
                }
            }
        }
    }

    /// Drop a flow's cell and record its outcome: the fetch's own evidence
    /// plus the resets the shim saw on the flow, through the one §3.4
    /// definition.
    fn retire(&mut self, local: u32, end: FetchEnd, now: Instant) {
        let Some(cell) = self.cells.remove(&local) else { return };
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
            let slot = &mut st.results[local as usize];
            slot.outcome = outcome;
            slot.latency_us = latency_us;
            st.flow_last.remove(&local);
        }
        if self.sc {
            intang_simcheck::flow_retired(u64::from(self.ids[local as usize]));
        }
    }
}

impl Element for MetroClients {
    fn name(&self) -> &str {
        "metro-clients"
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _dir: Direction, wire: Wire) {
        let _s = span(SpanId::Tcpstack);
        let local = {
            let Ok(ip) = Ipv4Packet::new_checked(&wire[..]) else { return };
            let Ok(tcp) = TcpPacket::new_checked(ip.payload()) else { return };
            // Demux on the flow's own (addr, port); packets for retired
            // flows (late FIN-ACKs, censor stragglers) fall off the edge.
            match self.route.get(&(ip.dst_addr(), tcp.dst_port())) {
                Some(&local) => local,
                None => return,
            }
        };
        self.note_event(local, ctx.now);
        if let Some(cell) = self.cells.get_mut(&local) {
            cell.ep.on_packet(wire, ctx.now.micros());
        }
        self.pump_flow(ctx, local);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let _s = span(SpanId::Tcpstack);
        let arg = (token & 0xFFFF_FFFF) as u32;
        match token >> 32 {
            k if k == CLIENT_TCP_BASE >> 32 => {
                let local = arg;
                if let Some(cell) = self.cells.get_mut(&local) {
                    cell.ep.on_timer(ctx.now.micros());
                    self.note_event(local, ctx.now);
                    self.pump_flow(ctx, local);
                }
            }
            k if k == SPAWN_BASE >> 32 => self.spawn_due(ctx, arg as usize),
            k if k == FINISH_BASE >> 32 => {
                // End of the world for one shard: every still-live flow
                // retires with no response and an open socket, swept in
                // spec order — never the cell map.
                let shard = arg as usize;
                for i in 0..self.shard_flow_ids[shard].len() {
                    let local = self.shard_flow_ids[shard][i];
                    if self.cells.contains_key(&local) {
                        self.note_event(local, ctx.now);
                        self.retire(local, FetchEnd::default(), ctx.now);
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

/// A server cell as the cell map holds it: a live cell, boxed so that the
/// map's buckets stay small, or the snapshot of a never-served cell whose
/// endpoint went quiet.
enum ServerSlot {
    Live(Box<ServerCell>),
    Quiet(QuietEndpoint),
}

// With its 6-byte key, a map bucket takes 24 bytes; an inline cell took 376.
const _: () = assert!(std::mem::size_of::<ServerSlot>() <= 16);

impl ServerSlot {
    fn live(ep: TcpEndpoint) -> ServerSlot {
        ServerSlot::Live(Box::new(ServerCell { ep, serve: None }))
    }
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
///
/// Those backstop cells dominate: at the 100k-flow world's peak (t = 20 s,
/// the end of its spawn window) about 98% of the live cells never
/// accepted a connection: their handshake was reset, and they wait out
/// the backstop behind a CLOSED socket. They stay because a dead cell
/// still answers: a straggler segment for its flow draws an RST down the
/// endpoint's dead-port path, where a reaped cell would swallow it, so
/// reaping them early would change the world's output. Everything such a
/// cell can still do depends only on its site address and two counters, so
/// once its endpoint is quiet ([`TcpEndpoint::quiet_snapshot`]) the cell keeps only
/// that snapshot and the endpoint's buffers go back to the pools. A segment
/// for a quiet cell wakes the endpoint ([`TcpEndpoint::wake`]) and goes
/// through the one endpoint code path; the cell may go quiet again after.
/// The snapshot drops the endpoint's `StackStats` and ignore-log counts,
/// which nothing reads: this element exports no endpoint counters.
pub struct MetroServers {
    sites: Vec<Ipv4Addr>,
    profile: StackProfile,
    cells: FxHashMap<(Ipv4Addr, u16), ServerSlot>,
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
        let Some(slot) = self.cells.get_mut(&key) else { return };
        let ServerSlot::Live(cell) = slot else { return };
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
        let quiet = cell.serve.is_none().then(|| cell.ep.quiet_snapshot()).flatten();
        let deadline = cell.ep.next_deadline();
        if reap {
            // Answered and fully wound down: the cell is garbage now, not
            // 30 seconds from now. Metropolis links are lossless, so no
            // late retransmit will ever want it back.
            self.cells.remove(&key);
        } else if let Some(q) = quiet {
            // Never served and quiet (so no timer to arm): dropping the
            // endpoint hands its buffers back to the pools.
            *slot = ServerSlot::Quiet(q);
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
                self.cells.insert(key, ServerSlot::live(ep));
                ctx.set_timer(ctx.now + self.ttl, srv_token(SRV_KIND_EXPIRE, key));
            }
            key
        };
        let Some(slot) = self.cells.get_mut(&key) else { return };
        if let ServerSlot::Quiet(q) = *slot {
            *slot = ServerSlot::live(TcpEndpoint::wake(q, self.profile, METRO_PORT));
        }
        if let ServerSlot::Live(cell) = slot {
            cell.ep.on_packet(wire, ctx.now.micros());
        }
        self.pump_cell(ctx, key);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let _s = span(SpanId::Tcpstack);
        let key = srv_token_key(token);
        match token >> SRV_KIND_SHIFT {
            SRV_KIND_TCP => {
                // A quiet cell has no timer armed; this one is stale.
                if let Some(ServerSlot::Live(cell)) = self.cells.get_mut(&key) {
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
    use intang_netsim::Link;
    use intang_packet::{PacketBuilder, TcpFlags};

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
        let specs: Arc<[FlowSpec]> = (0..64)
            .map(|i| FlowSpec {
                start: Instant(i * 1_000),
                client: (i % 32) as u32,
                site: 0,
                isn: 1,
                keyword: false,
                request_delay: Duration::ZERO,
            })
            .collect();
        let (serial, _) = MetroClients::for_domain(&clients, &sites, specs.clone(), 8, 1, 0);
        assert_eq!(
            serial.flow_ids(),
            (0..64).collect::<Vec<u32>>(),
            "the serial element owns every flow"
        );
        let mut owner: Vec<Option<u32>> = vec![None; specs.len()];
        for d in 0..3 {
            let (el, metro) = MetroClients::for_domain(&clients, &sites, specs.clone(), 8, 3, d);
            assert!(el.flow_ids().windows(2).all(|w| w[0] < w[1]), "local ids keep flow-id order");
            assert_eq!(el.tuples().len(), el.flow_ids().len(), "one tuple per owned flow");
            assert_eq!(metro.results().len(), el.flow_ids().len(), "one result slot per owned flow");
            for (&id, tuple) in el.flow_ids().iter().zip(el.tuples()) {
                assert_eq!(*tuple, serial.tuples()[id as usize], "flow {id} keeps its serial four-tuple");
                assert_eq!(shard_of(tuple, 8) % 3, d, "flow {id} belongs to another domain");
                assert_eq!(owner[id as usize].replace(d), None, "flow {id} is owned twice");
            }
        }
        assert!(owner.iter().all(Option::is_some), "every flow has an owner: {owner:?}");
    }

    #[test]
    fn srv_tokens_round_trip() {
        let key = (Ipv4Addr::new(203, 0, 113, 9), 41_234u16);
        let t = srv_token(SRV_KIND_EXPIRE, key);
        assert_eq!(t >> SRV_KIND_SHIFT, SRV_KIND_EXPIRE);
        assert_eq!(srv_token_key(t), key);
    }

    /// Lends a `MetroServers` to a simulation while the test keeps a
    /// handle on its cells.
    struct SharedServers(Rc<RefCell<MetroServers>>);

    impl Element for SharedServers {
        fn name(&self) -> &str {
            "metro-servers"
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, dir: Direction, wire: Wire) {
            self.0.borrow_mut().on_packet(ctx, dir, wire);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            self.0.borrow_mut().on_timer(ctx, token);
        }
    }

    /// The client end of the path: keeps what reaches it.
    struct Recorder(Rc<RefCell<Vec<Wire>>>);

    impl Element for Recorder {
        fn name(&self) -> &str {
            "peer"
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _dir: Direction, wire: Wire) {
            self.0.borrow_mut().push(wire);
        }
    }

    /// A reset handshake leaves a quiet cell that answers a straggler as
    /// its endpoint would have, until the backstop removes it. (That the
    /// cell-map value fits 16 bytes is a `const` assertion by `ServerSlot`.)
    #[test]
    fn a_reset_handshake_leaves_a_quiet_cell_that_answers_like_its_endpoint() {
        let (client, site) = (Ipv4Addr::new(10, 1, 0, 1), Ipv4Addr::new(203, 0, 113, 1));
        let key = (client, 40_000);
        let servers = Rc::new(RefCell::new(MetroServers::new(vec![site])));
        let seen = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new(1);
        sim.add_element(Box::new(Recorder(seen.clone())));
        sim.add_link(Link::new(Duration::from_millis(1), 0));
        sim.add_element(Box::new(SharedServers(servers.clone())));
        // The same segments also go to an endpoint that never goes quiet.
        let mut reference = TcpEndpoint::new(site, StackProfile::linux_4_4());
        reference.listen(METRO_PORT);
        let segment = |flags, seq, ack| {
            PacketBuilder::tcp(client, site, key.1, METRO_PORT)
                .flags(flags)
                .seq(seq)
                .ack(ack)
                .build()
        };
        // What the servers and the reference send back for `wire` at `t`.
        let mut exchange = |sim: &mut Simulation, wire: Wire, t: u64| {
            seen.borrow_mut().clear();
            sim.inject_at(1, Direction::ToServer, wire.clone(), Instant(t));
            sim.run_until(Instant(t + 5_000));
            reference.on_packet(wire, t);
            let bytes = |ws: &[Wire]| ws.iter().map(|w| w.to_vec()).collect::<Vec<_>>();
            (bytes(&seen.borrow()), bytes(&reference.poll_transmit()))
        };
        let quiet = |servers: &Rc<RefCell<MetroServers>>| matches!(servers.borrow().cells.get(&key), Some(ServerSlot::Quiet(_)));

        let (got, want) = exchange(&mut sim, segment(TcpFlags::SYN, 1_000, 0), 0);
        assert_eq!((got.len(), &got), (1, &want), "one SYN/ACK, as the endpoint sends it");
        assert!(!quiet(&servers), "SYN_RECV has its retransmission timer armed");
        let srv_isn = TcpPacket::new_checked(Ipv4Packet::new_checked(&got[0][..]).unwrap().payload())
            .unwrap()
            .seq_number();

        let (got, want) = exchange(&mut sim, segment(TcpFlags::RST, 1_001, 0), 10_000);
        assert!(got.is_empty() && want.is_empty(), "the client's reset draws no reply");
        assert!(quiet(&servers), "a never-served cell whose handshake was reset goes quiet");

        let straggler = segment(TcpFlags::ACK, 1_001, srv_isn.wrapping_add(1));
        let (got, want) = exchange(&mut sim, straggler.clone(), 20_000);
        assert_eq!((got.len(), &got), (1, &want), "a straggler ACK draws the endpoint's own RST");
        assert!(quiet(&servers), "and the cell goes quiet again");
        assert_eq!(servers.borrow().cells.len(), 1);

        sim.run_until(Instant(30_000_000));
        assert!(servers.borrow().cells.is_empty(), "the 30 s backstop removes the quiet cell");
        let (got, want) = exchange(&mut sim, straggler, 31_000_000);
        assert!(got.is_empty(), "a straggler after the backstop is swallowed");
        assert_eq!(want.len(), 1, "where the endpoint would still have answered");
    }

    #[test]
    fn port_assignment_is_per_client_and_in_spec_order() {
        let clients = vec![Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2)];
        let sites = vec![Ipv4Addr::new(93, 184, 216, 34)];
        let specs: Arc<[FlowSpec]> = (0..4)
            .map(|i| FlowSpec {
                start: Instant(i * 1_000),
                client: (i % 2) as u32,
                site: 0,
                isn: 1,
                keyword: false,
                request_delay: Duration::ZERO,
            })
            .collect();
        let (el, _h) = MetroClients::for_domain(&clients, &sites, specs, 2, 1, 0);
        let t = el.tuples();
        assert_eq!(t[0].src_port, METRO_BASE_PORT);
        assert_eq!(t[1].src_port, METRO_BASE_PORT, "second client starts its own range");
        assert_eq!(t[2].src_port, METRO_BASE_PORT + 1);
        assert_eq!(t[3].src_port, METRO_BASE_PORT + 1);
        assert_ne!(t[0].src, t[1].src);
    }
}
