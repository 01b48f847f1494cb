//! The simulation proper: a linear path of elements joined by links, driven
//! by a deterministic event loop.

use crate::element::{Ctx, Direction, Element, Emission};
use crate::event::{Event, EventQueue};
use crate::link::Link;
use crate::rng::SimRng;
use crate::time::{Duration, Instant};
use crate::trace::{NameId, Trace, TraceId, TraceKind, TracePoint};
use intang_packet::arena::Arena;
use intang_packet::{icmp, Wire};
use intang_telemetry::series::CADENCE_US;
use intang_telemetry::{Counter, GaugeId, GaugeSample, MetricsSheet, SeriesSheet, SpanId};
use std::cell::RefCell;

/// The six recycled `Simulation` construction buffers, in declaration
/// order: emission scratch, timer scratch, batch drain ring, element
/// table, element-name table, link table.
type SimScratchArenas = (
    Arena<Vec<Emission>>,
    Arena<Vec<(Instant, u64)>>,
    Arena<Vec<(Instant, Event)>>,
    Arena<Vec<Box<dyn Element>>>,
    Arena<Vec<NameId>>,
    Arena<Vec<Link>>,
);

thread_local! {
    /// Recycled buffers for `Simulation`s built on this thread: a sweep
    /// constructs one simulation per trial, and these vectors only ever
    /// need to *grow* — handing the grown capacity to the next trial
    /// removes the per-trial growth allocations (the three event-loop
    /// scratch buffers plus the element/name/link tables). Behavior is
    /// unaffected: leased vectors are always empty.
    static SCRATCH_POOL: RefCell<SimScratchArenas> = const {
        RefCell::new((
            Arena::new(4),
            Arena::new(4),
            Arena::new(4),
            Arena::new(4),
            Arena::new(4),
            Arena::new(4),
        ))
    };
}

/// A linear-path network simulation.
///
/// Elements are indexed left (client, 0) to right (server, n-1);
/// `links[i]` joins `elements[i]` and `elements[i+1]`.
///
/// ```
/// use intang_netsim::{Simulation, Link, Duration, Direction, Instant};
/// use intang_netsim::element::PassThrough;
///
/// let mut sim = Simulation::new(1);
/// sim.add_element(Box::new(PassThrough::new("client")));
/// sim.add_link(Link::new(Duration::from_millis(10), 3)); // 3 routers
/// sim.add_element(Box::new(PassThrough::new("server")));
///
/// let pkt = intang_packet::PacketBuilder::tcp(
///     "10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap(), 1000, 80,
/// ).build();
/// sim.inject_at(0, Direction::ToServer, pkt, Instant::ZERO);
/// sim.run_to_quiescence(100);
/// assert_eq!(sim.delivered, 1);
/// ```
pub struct Simulation {
    pub now: Instant,
    pub rng: SimRng,
    pub trace: Trace,
    elements: Vec<Box<dyn Element>>,
    /// Interned trace name per element, parallel to `elements`.
    element_names: Vec<NameId>,
    links: Vec<Link>,
    queue: EventQueue,
    /// Reusable per-event scratch buffers lent to `Ctx` (see `step`); kept
    /// here so the event loop stops allocating once they have grown.
    scratch_emissions: Vec<Emission>,
    scratch_timers: Vec<(Instant, u64)>,
    /// Reusable drain ring for [`Simulation::step_batch`]; like the other
    /// scratch buffers it grows once and is then lent out per batch.
    scratch_batch: Vec<(Instant, Event)>,
    /// Total packets that fully traversed at least one link (statistics).
    pub delivered: u64,
    /// Packets lost to link loss.
    pub lost: u64,
    /// Packets that died of TTL expiry.
    pub ttl_expired: u64,
    /// Events popped from the queue over the simulation's lifetime.
    pub events_processed: u64,
    /// Fault-layer statistics (all zero unless a link carries
    /// non-inert [`crate::faults::LinkFaults`]).
    pub duplicated: u64,
    pub reordered: u64,
    pub mtu_dropped: u64,
    /// Losses incurred while a Gilbert–Elliott channel was in its burst state.
    pub burst_losses: u64,
    /// Whether `intang-simcheck` invariant checking was enabled when this
    /// simulation was constructed; cached so the disabled-mode cost per
    /// hop is one field read.
    simcheck: bool,
    /// Whether batched dispatch was enabled when this simulation was
    /// constructed (see [`crate::batch`]); cached like `simcheck`.
    batching: bool,
    /// Batches dispatched / events dispatched in batches / log₂ batch-size
    /// histogram — plain integers on the hot path, folded into the
    /// process-wide [`crate::batch::stats`] on drop.
    batch_batches: u64,
    batch_events: u64,
    batch_hist: [u64; crate::batch::HIST_BUCKETS],
    /// Conservation accounting (simcheck): total transmissions attempted.
    sc_emitted: u64,
    /// Conservation accounting (simcheck): emissions past the edge of the
    /// world (no adjacent link in the emitted direction).
    sc_edge: u64,
    /// Gauge time-series sampler, present only when series telemetry was
    /// enabled at construction (see [`intang_telemetry::series`]). Boxed so
    /// the disabled-mode cost is one pointer-width `Option` check.
    series: Option<Box<SeriesRecorder>>,
    /// Flight recorder ring, present when flight recording or simcheck was
    /// enabled at construction (see [`crate::flight`]).
    flight: Option<Box<crate::flight::FlightRecorder>>,
}

/// Sim-time gauge sampler: samples every element plus the substrate gauges
/// on the [`CADENCE_US`] cadence as the event loop advances the clock.
struct SeriesRecorder {
    sheet: SeriesSheet,
    /// Next cadence tick index to sample (tick `k` samples at sim-time
    /// `k * CADENCE_US`).
    next_tick: u64,
    /// Thread-local live-buffer / lease counts at construction, so the
    /// gauges report this simulation's own footprint rather than whatever
    /// the surrounding sweep worker has outstanding.
    wire_base: u64,
    arena_base: u64,
}

impl Drop for Simulation {
    fn drop(&mut self) {
        // A panic mid-run takes the simulation down with it: dump the
        // flight ring to stderr so the crash report shows what the event
        // loop was doing right before.
        if std::thread::panicking() && self.flight.as_ref().is_some_and(|f| !f.is_empty()) {
            if let Some(dump) = self.flight_dump() {
                eprintln!("{dump}");
            }
        }
        // Diagnostics only: fold this run's batch accounting into the
        // process-wide totals (never into a MetricsSheet — batching on/off
        // must not change telemetry bytes).
        crate::batch::note_run(self.batch_batches, self.batch_events, &self.batch_hist);
        // Hand the grown scratch buffers to the next simulation on this
        // thread (cleared — only capacity is recycled).
        let mut emissions = std::mem::take(&mut self.scratch_emissions);
        let mut timers = std::mem::take(&mut self.scratch_timers);
        let mut batch = std::mem::take(&mut self.scratch_batch);
        let mut elements = std::mem::take(&mut self.elements);
        let mut element_names = std::mem::take(&mut self.element_names);
        let mut links = std::mem::take(&mut self.links);
        emissions.clear();
        timers.clear();
        batch.clear();
        elements.clear();
        element_names.clear();
        links.clear();
        let _ = SCRATCH_POOL.try_with(|p| {
            let mut p = p.borrow_mut();
            p.0.put(emissions);
            p.1.put(timers);
            p.2.put(batch);
            p.3.put(elements);
            p.4.put(element_names);
            p.5.put(links);
        });
    }
}

impl Simulation {
    pub fn new(seed: u64) -> Simulation {
        Simulation {
            now: Instant::ZERO,
            rng: SimRng::seed_from(seed),
            trace: Trace::new(),
            elements: SCRATCH_POOL.with(|p| p.borrow_mut().3.take_with(Vec::new)),
            element_names: SCRATCH_POOL.with(|p| p.borrow_mut().4.take_with(Vec::new)),
            links: SCRATCH_POOL.with(|p| p.borrow_mut().5.take_with(Vec::new)),
            queue: EventQueue::new(),
            scratch_emissions: SCRATCH_POOL.with(|p| p.borrow_mut().0.take_with(Vec::new)),
            scratch_timers: SCRATCH_POOL.with(|p| p.borrow_mut().1.take_with(Vec::new)),
            scratch_batch: SCRATCH_POOL.with(|p| p.borrow_mut().2.take_with(Vec::new)),
            delivered: 0,
            lost: 0,
            ttl_expired: 0,
            events_processed: 0,
            duplicated: 0,
            reordered: 0,
            mtu_dropped: 0,
            burst_losses: 0,
            simcheck: intang_simcheck::enabled(),
            batching: crate::batch::enabled(),
            batch_batches: 0,
            batch_events: 0,
            batch_hist: [0; crate::batch::HIST_BUCKETS],
            sc_emitted: 0,
            sc_edge: 0,
            series: intang_telemetry::series::enabled().then(|| {
                Box::new(SeriesRecorder {
                    sheet: SeriesSheet::new(),
                    next_tick: 0,
                    wire_base: intang_packet::wire::live_buffers(),
                    arena_base: intang_packet::arena::live(),
                })
            }),
            flight: (intang_simcheck::enabled() || crate::flight::enabled()).then(|| Box::new(crate::flight::FlightRecorder::new())),
        }
    }

    /// Append an element to the right end of the path; returns its index.
    /// Every element after the first must be preceded by [`Simulation::add_link`].
    pub fn add_element(&mut self, e: Box<dyn Element>) -> usize {
        assert!(
            self.elements.is_empty() || self.links.len() == self.elements.len(),
            "add_link must be called between add_element calls"
        );
        let name = self.trace.intern(e.name());
        self.elements.push(e);
        self.element_names.push(name);
        self.elements.len() - 1
    }

    /// Append the link that will join the last added element to the next.
    pub fn add_link(&mut self, l: Link) {
        assert!(!self.elements.is_empty(), "add an element before a link");
        assert_eq!(self.links.len(), self.elements.len() - 1, "one link per element gap");
        self.links.push(l);
    }

    /// Deliver a packet to an element at a given time (test/bootstrap hook).
    pub fn inject_at(&mut self, elem: usize, dir: Direction, wire: Wire, at: Instant) {
        self.queue.push(
            at,
            Event::Deliver {
                elem,
                dir,
                wire,
                cause: None,
            },
        );
    }

    /// Schedule a timer for an element (bootstrap hook; elements normally
    /// use [`Ctx::set_timer`]).
    pub fn schedule_timer(&mut self, elem: usize, at: Instant, token: u64) {
        self.queue.push(at, Event::Timer { elem, token });
    }

    /// Run until the queue empties or `deadline` passes. Returns the number
    /// of events processed.
    ///
    /// With batching enabled (the default, see [`crate::batch`]), each
    /// iteration drains the whole equal-timestamp run at the head of the
    /// queue via [`Simulation::step_batch`]; the batch shares the head's
    /// timestamp, so the deadline test on the head covers every event in
    /// it. Result-identical to single-step mode either way.
    pub fn run_until(&mut self, deadline: Instant) -> u64 {
        let _s = intang_telemetry::span(SpanId::EventLoop);
        let mut n = 0;
        if self.batching {
            while let Some(t) = self.queue.peek_time() {
                if t > deadline {
                    break;
                }
                if self.series.is_some() {
                    self.sample_series_upto(t);
                }
                n += self.step_batch();
            }
        } else {
            while let Some(t) = self.queue.peek_time() {
                if t > deadline {
                    break;
                }
                if self.series.is_some() {
                    self.sample_series_upto(t);
                }
                self.step();
                n += 1;
            }
        }
        if self.series.is_some() {
            self.sample_series_upto(deadline);
        }
        if self.now < deadline {
            self.now = deadline;
        }
        n
    }

    /// Run until the queue is fully drained (or `max_events` as a runaway
    /// guard). Returns events processed.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> u64 {
        let mut n = 0;
        while n < max_events && self.step() {
            n += 1;
        }
        n
    }

    /// Sample every cadence tick up to and including `upto` into the gauge
    /// series. Called just before dispatching the events at `upto` (and
    /// once with the deadline when the loop idles out), so tick `k`
    /// observes the world as it stood *before* any event at `k·cadence` —
    /// a pure function of the event history, independent of how the sweep
    /// schedules trials across workers.
    fn sample_series_upto(&mut self, upto: Instant) {
        let Some(mut rec) = self.series.take() else { return };
        while rec.next_tick.saturating_mul(CADENCE_US) <= upto.0 {
            // One world-level snapshot plus this thread's pool gauges.
            let mut g = self.sample_gauges_now();
            g.add(
                GaugeId::WireBuffers,
                intang_packet::wire::live_buffers().saturating_sub(rec.wire_base),
            );
            g.add(GaugeId::ArenaLeased, intang_packet::arena::live().saturating_sub(rec.arena_base));
            rec.sheet.push_sample(&g);
            rec.next_tick += 1;
        }
        self.series = Some(rec);
    }

    /// Detach the accumulated gauge series (if sampling was enabled).
    /// Subsequent `run_until` calls would resume sampling into a fresh
    /// sheet; trials take it once at the end.
    pub fn take_series(&mut self) -> Option<Box<SeriesSheet>> {
        self.series.take().map(|rec| Box::new(rec.sheet))
    }

    /// Snapshot every element's gauges plus the queue-depth substrate
    /// gauges at the current instant — the manual-sampling hook for
    /// drivers that run several simulations on one shared cadence (the
    /// parallel metropolis domains) and zip-sum the raw samples
    /// themselves. The thread-relative pool gauges (`WireBuffers`,
    /// `ArenaLeased`) are deliberately omitted: they measure a *thread's*
    /// outstanding buffers and cannot be decomposed across domains.
    pub fn sample_gauges_now(&self) -> GaugeSample {
        let mut g = GaugeSample::default();
        for e in &self.elements {
            e.sample_gauges(&mut g);
        }
        g.add(GaugeId::EventQueueDepth, self.queue.len() as u64);
        g.add(GaugeId::InflightPackets, self.queue.deliver_len() as u64);
        g
    }

    /// Render the flight-recorder ring (if one is attached), resolving
    /// element indices to their names.
    pub fn flight_dump(&self) -> Option<String> {
        self.flight
            .as_ref()
            .map(|f| f.render(|i| self.elements.get(i).map_or_else(|| format!("elem{i}"), |e| e.name().to_string())))
    }

    /// Pre-dispatch invariants for a popped head time: clock monotonicity
    /// and queue-structure coherence. One enablement read per call — which
    /// batching turns into one per *batch*.
    fn pre_dispatch_checks(&mut self, at: Instant) {
        if self.simcheck {
            if at < self.now {
                let now = self.now;
                intang_simcheck::report(intang_simcheck::Family::TimeMonotonicity, || {
                    format!("event at {at:?} popped while the clock was already at {now:?}")
                });
            }
            if let Some(desc) = self.queue.structural_imbalance() {
                intang_simcheck::report(intang_simcheck::Family::Conservation, || desc);
            }
        } else {
            debug_assert!(at >= self.now, "time went backwards");
        }
    }

    /// Process a single event. Returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some((at, event)) = self.queue.pop() else {
            return false;
        };
        self.pre_dispatch_checks(at);
        self.now = at;
        self.events_processed += 1;
        let tracing = self.trace.is_enabled();
        self.dispatch(at, event, tracing);
        true
    }

    /// Drain and process the entire equal-timestamp run at the head of the
    /// queue: one clock update, one trace-enablement check and one
    /// simcheck-enablement load for the whole run, with the events
    /// dispatched in exact pop order (so emissions are appended in pop
    /// order and `(time, insertion-seq)` semantics are untouched — events
    /// pushed *by* the batch carry later seqs and drain in a later batch,
    /// exactly as under single-stepping). Returns the number of events
    /// processed (0 = queue empty).
    pub fn step_batch(&mut self) -> u64 {
        let mut ring = std::mem::take(&mut self.scratch_batch);
        debug_assert!(ring.is_empty());
        let n = self.queue.pop_batch(&mut ring);
        if n == 0 {
            self.scratch_batch = ring;
            return 0;
        }
        let at = ring[0].0;
        self.pre_dispatch_checks(at);
        self.now = at;
        self.events_processed += n as u64;
        self.batch_batches += 1;
        self.batch_events += n as u64;
        self.batch_hist[crate::batch::bucket(n as u64)] += 1;
        let tracing = self.trace.is_enabled();
        for (at, event) in ring.drain(..) {
            self.dispatch(at, event, tracing);
        }
        self.scratch_batch = ring;
        n as u64
    }

    /// Deliver one already-popped event to its element and apply the
    /// effects. `at` is the event's timestamp (== `self.now` by the time
    /// this runs; passed through to keep trace records exact). `tracing`
    /// is the caller's hoisted `trace.is_enabled()` read — per batch in
    /// [`Simulation::step_batch`], per event in [`Simulation::step`].
    fn dispatch(&mut self, at: Instant, event: Event, tracing: bool) {
        if let Some(f) = &mut self.flight {
            f.record(crate::flight::FlightRec::of(at, &event));
        }
        // Lend the simulation's scratch buffers to the element context so no
        // Vec is allocated per event; they come back (drained, capacity
        // intact) after the effects are applied.
        let scratch_em = std::mem::take(&mut self.scratch_emissions);
        let scratch_tm = std::mem::take(&mut self.scratch_timers);
        let (mut emissions, mut timers);
        match event {
            Event::Deliver { elem, dir, wire, cause } => {
                // Lineage: the arrival is caused by the emission that put
                // the packet in flight; everything the element now emits is
                // caused by this arrival. The `tracing` guard keeps the
                // disabled-trace hot path free of argument construction.
                let arrive_id = if tracing {
                    self.trace.record(
                        at,
                        TracePoint::Element {
                            index: elem,
                            name: self.element_names[elem],
                        },
                        TraceKind::Arrive,
                        dir,
                        cause,
                        intang_packet::summarize(&wire),
                    )
                } else {
                    None
                };
                let mut ctx = Ctx::with_buffers(at, &mut self.rng, scratch_em, scratch_tm);
                self.elements[elem].on_packet(&mut ctx, dir, wire);
                (emissions, timers) = (ctx.emissions, ctx.timers);
                self.apply_effects(elem, arrive_id, &mut emissions, &mut timers);
            }
            Event::Timer { elem, token } => {
                let mut ctx = Ctx::with_buffers(at, &mut self.rng, scratch_em, scratch_tm);
                self.elements[elem].on_timer(&mut ctx, token);
                (emissions, timers) = (ctx.emissions, ctx.timers);
                self.apply_effects(elem, None, &mut emissions, &mut timers);
            }
        }
        self.scratch_emissions = emissions;
        self.scratch_timers = timers;
    }

    fn apply_effects(&mut self, from: usize, cause: Option<TraceId>, emissions: &mut Vec<Emission>, timers: &mut Vec<(Instant, u64)>) {
        for (mut at, token) in timers.drain(..) {
            if at < self.now {
                at = self.now;
            }
            self.queue.push(at, Event::Timer { elem: from, token });
        }
        for em in emissions.drain(..) {
            self.transmit(from, em, cause);
        }
    }

    /// Move a packet from element `from` across the adjacent link in
    /// `em.dir`, applying TTL decrements, loss and latency. `cause` is the
    /// trace id of the arrival that provoked the emission (lineage).
    fn transmit(&mut self, from: usize, em: Emission, cause: Option<TraceId>) {
        let Emission { dir, mut wire, delay } = em;
        let emit_id = if self.trace.is_enabled() {
            self.trace.record(
                self.now,
                TracePoint::Element {
                    index: from,
                    name: self.element_names[from],
                },
                TraceKind::Emit,
                dir,
                cause,
                intang_packet::summarize(&wire),
            )
        } else {
            None
        };
        if self.simcheck {
            self.check_emission(&mut wire, from);
        }
        self.sc_emitted += 1;
        let link_idx = match dir {
            Direction::ToServer => {
                if from + 1 >= self.elements.len() {
                    self.sc_edge += 1;
                    return; // emitted past the right edge of the world
                }
                from
            }
            Direction::ToClient => {
                if from == 0 {
                    self.sc_edge += 1;
                    return; // emitted past the left edge of the world
                }
                from - 1
            }
        };
        let to = match dir {
            Direction::ToServer => from + 1,
            Direction::ToClient => from - 1,
        };
        // Copy out the link's scalar fields rather than cloning the whole
        // struct per transmit; the router address is derived on demand.
        let (hops, latency, loss, per_hop) = {
            let l = &self.links[link_idx];
            (l.hops, l.latency, l.loss, l.per_hop_latency())
        };
        let depart = self.now + delay;

        // Walk the routers in one step: a single TTL writedown plus one
        // checksum refresh is byte-identical to per-hop decrements, and
        // `Wire::decrement_ttl` keeps the cached header index warm (TTL and
        // checksum are not indexed fields). Unparseable payloads glide
        // through unrouted, exactly as before.
        if hops > 0 && wire.ttl().is_some() {
            let ttl0 = wire.ttl().expect("checked above");
            if ttl0 > hops {
                wire.decrement_ttl(hops);
            } else {
                // Dies at the router that writes TTL 0: hop `ttl0`, or the
                // first router when the packet already arrived with TTL 0.
                let hop = ttl0.max(1);
                wire.decrement_ttl(hop);
                self.ttl_expired += 1;
                let died_at = depart + per_hop * u64::from(hop);
                let ttl_id = if self.trace.is_enabled() {
                    self.trace.record(
                        died_at,
                        TracePoint::Link { after: link_idx, hop },
                        TraceKind::TtlExpired,
                        dir,
                        emit_id,
                        intang_packet::summarize(&wire),
                    )
                } else {
                    None
                };
                // ICMP time-exceeded travels back to the emitting side; its
                // lineage parent is the expiry that generated it.
                if let Some(te) = icmp::time_exceeded_for(self.links[link_idx].router_addr(hop), &wire) {
                    let back_at = died_at + per_hop * u64::from(hop);
                    self.queue.push(
                        back_at,
                        Event::Deliver {
                            elem: from,
                            dir: dir.reversed(),
                            wire: te,
                            cause: ttl_id,
                        },
                    );
                }
                return;
            }
        }

        // Fault layer. Every branch guards on the inert default, so a
        // fault-free link draws no extra randomness and keeps its timing —
        // the property that makes zero-intensity fault runs byte-identical.
        let faults_active = !self.links[link_idx].faults.is_inert();
        if faults_active {
            if let Some(mtu) = self.links[link_idx].faults.mtu {
                if wire.len() > mtu {
                    self.mtu_dropped += 1;
                    if self.trace.is_enabled() {
                        self.trace.record(
                            depart,
                            TracePoint::Link { after: link_idx, hop: 0 },
                            TraceKind::Loss,
                            dir,
                            emit_id,
                            intang_packet::summarize(&wire),
                        );
                    }
                    return;
                }
            }
        }

        let lost = if faults_active && self.links[link_idx].faults.burst.is_some() {
            // The burst channel replaces the link's independent loss draw.
            let ge = self.links[link_idx].faults.burst.as_mut().expect("checked above");
            let lost = ge.step(&mut self.rng);
            if lost && ge.in_burst() {
                self.burst_losses += 1;
            }
            lost
        } else {
            self.rng.chance(loss)
        };
        if lost {
            self.lost += 1;
            if self.trace.is_enabled() {
                self.trace.record(
                    depart,
                    TracePoint::Link { after: link_idx, hop: 0 },
                    TraceKind::Loss,
                    dir,
                    emit_id,
                    intang_packet::summarize(&wire),
                );
            }
            return;
        }

        let mut arrival = depart + latency;
        if faults_active {
            let f = &self.links[link_idx].faults;
            let (jitter, reorder_prob, reorder_delay, dup_prob) = (f.jitter, f.reorder_prob, f.reorder_delay, f.dup_prob);
            if jitter > Duration::ZERO {
                arrival = arrival + Duration::from_micros(self.rng.range_u64(0, jitter.micros() + 1));
            }
            if reorder_prob > 0.0 && self.rng.chance(reorder_prob) {
                // Held back long enough that later emissions overtake it.
                self.reordered += 1;
                arrival = arrival + reorder_delay;
            }
            if dup_prob > 0.0 && self.rng.chance(dup_prob) {
                self.duplicated += 1;
                self.delivered += 1;
                self.queue.push(
                    arrival + Duration::from_micros(150),
                    Event::Deliver {
                        elem: to,
                        dir,
                        wire: wire.clone(),
                        cause: emit_id,
                    },
                );
            }
        }

        self.delivered += 1;
        self.queue.push(
            arrival,
            Event::Deliver {
                elem: to,
                dir,
                wire,
                cause: emit_id,
            },
        );
    }

    /// Per-emission simcheck: the test-only corruption hook, header-cache
    /// coherency, and wire integrity (IPv4 + TCP checksums) of every
    /// packet an element puts on the wire. Only called when checking is
    /// enabled; read-only except for the armed corruption hook.
    fn check_emission(&mut self, wire: &mut Wire, from: usize) {
        if let Some(h) = wire.headers() {
            if h.tcp().is_some() && !h.is_fragment() && intang_simcheck::corruption_due() {
                // Armed fault injection: flip a TCP checksum byte so the
                // integrity check (and downstream, the shrinker) has a
                // real violation to chew on.
                let off = usize::from(h.ip_header_len) + 16;
                wire.bytes_mut()[off] ^= 0xAA;
            }
        }
        if let Some(desc) = wire.check_header_cache() {
            let name = self.elements[from].name();
            intang_simcheck::report(intang_simcheck::Family::HeaderIndex, || format!("emitted by {name}: {desc}"));
        }
        intang_simcheck::check_wire(wire, self.elements[from].name());
    }

    /// Simcheck: verify that every transmission is accounted for by
    /// exactly one outcome. Duplication delivers an extra copy without a
    /// new emission, hence the `delivered - duplicated` term.
    pub fn simcheck_reconcile(&self) {
        if !self.simcheck {
            return;
        }
        let accounted = self.sc_edge + self.ttl_expired + self.mtu_dropped + self.lost + (self.delivered - self.duplicated);
        if self.sc_emitted != accounted {
            intang_simcheck::report(intang_simcheck::Family::Conservation, || {
                format!(
                    "packet conservation broken: emitted {} but accounted {} \
                     (edge {} + ttl {} + mtu {} + lost {} + delivered {} - dup {})",
                    self.sc_emitted,
                    accounted,
                    self.sc_edge,
                    self.ttl_expired,
                    self.mtu_dropped,
                    self.lost,
                    self.delivered,
                    self.duplicated
                )
            });
        }
    }

    /// Test-only: skew the conservation ledger so self-tests can prove
    /// [`Simulation::simcheck_reconcile`] actually fires.
    #[doc(hidden)]
    pub fn simcheck_skew_for_test(&mut self) {
        self.sc_emitted += 1;
    }

    /// Immutable access to an element (for assertions in tests).
    pub fn element(&self, idx: usize) -> &dyn Element {
        self.elements[idx].as_ref()
    }

    /// Mutable access to a link — lets experiments model *route dynamics*
    /// (§3.4: "routes are dynamic and could change unexpectedly", making
    /// previously measured TTLs wrong) by changing hop counts mid-run.
    pub fn link_mut(&mut self, idx: usize) -> &mut Link {
        &mut self.links[idx]
    }

    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Export the simulation's substrate counters plus every element's
    /// counters into `m`. Elements are visited in path order (left to
    /// right), so the export is deterministic for a given topology.
    pub fn export_metrics(&self, m: &mut MetricsSheet) {
        let before_delivered = self.simcheck.then(|| m.counter(Counter::NetsimDelivered));
        m.add(Counter::NetsimEvents, self.events_processed);
        m.add(Counter::NetsimDelivered, self.delivered);
        m.add(Counter::NetsimLost, self.lost);
        m.add(Counter::NetsimTtlExpired, self.ttl_expired);
        m.add(Counter::NetsimDuplicated, self.duplicated);
        m.add(Counter::NetsimReordered, self.reordered);
        m.add(Counter::NetsimMtuDropped, self.mtu_dropped);
        m.add(Counter::NetsimBurstLosses, self.burst_losses);
        m.add(Counter::TraceEventsDropped, self.trace.dropped());
        if let Some(before) = before_delivered {
            // Reconcile the outcome ledger, and the ledger against what
            // the telemetry sheet actually absorbed.
            self.simcheck_reconcile();
            let delta = m.counter(Counter::NetsimDelivered) - before;
            if delta != self.delivered {
                let delivered = self.delivered;
                intang_simcheck::report(intang_simcheck::Family::Conservation, || {
                    format!(
                        "telemetry sheet absorbed {delta} delivered packets but the \
                         simulation counted {delivered}"
                    )
                });
            }
        }
        for e in &self.elements {
            e.export_metrics(m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::PassThrough;
    use intang_packet::{Ipv4Packet, PacketBuilder, TcpFlags};
    use std::cell::RefCell;
    use std::net::Ipv4Addr;
    use std::rc::Rc;

    /// Records everything that reaches it.
    struct Sink {
        got: Rc<RefCell<Vec<(Instant, Wire)>>>,
    }

    impl Element for Sink {
        fn name(&self) -> &str {
            "sink"
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _dir: Direction, wire: Wire) {
            self.got.borrow_mut().push((ctx.now, wire));
        }
    }

    fn pkt(ttl: u8) -> Wire {
        PacketBuilder::tcp(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), 1000, 80)
            .flags(TcpFlags::SYN)
            .ttl(ttl)
            .build()
    }

    type DeliveryLog = Rc<RefCell<Vec<(Instant, Wire)>>>;

    fn two_node_sim(link: Link) -> (Simulation, DeliveryLog) {
        let got = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new(1);
        sim.add_element(Box::new(PassThrough::new("client")));
        sim.add_link(link);
        sim.add_element(Box::new(Sink { got: got.clone() }));
        (sim, got)
    }

    #[test]
    fn packet_crosses_link_with_latency_and_ttl_decrement() {
        let (mut sim, got) = two_node_sim(Link::new(Duration::from_millis(10), 3));
        // Injecting a ToServer packet *at* element 0 makes the pass-through
        // client forward it onto the link.
        sim.inject_at(0, Direction::ToServer, pkt(64), Instant::ZERO);
        sim.run_to_quiescence(100);
        let got = got.borrow();
        assert_eq!(got.len(), 1);
        let (at, wire) = &got[0];
        assert_eq!(*at, Instant(10_000));
        let ip = Ipv4Packet::new_checked(&wire[..]).unwrap();
        assert_eq!(ip.ttl(), 61, "three routers decremented TTL");
        assert!(ip.verify_header_checksum());
    }

    #[test]
    fn ttl_expiry_stops_packet_short_of_destination() {
        let (mut sim, got) = two_node_sim(Link::new(Duration::from_millis(9), 3));
        // TTL 2 dies at the second router of a 3-hop link.
        sim.inject_at(0, Direction::ToServer, pkt(2), Instant::ZERO);
        sim.run_to_quiescence(100);
        assert!(got.borrow().is_empty(), "packet must not reach the sink");
        assert_eq!(sim.ttl_expired, 1);
        assert_eq!(sim.delivered, 0);
    }

    #[test]
    fn icmp_reaches_original_sender_through_elements() {
        // client(sink-recorder that also forwards) - link(5 hops) - server
        struct Fwd {
            got: Rc<RefCell<Vec<Wire>>>,
        }
        impl Element for Fwd {
            fn name(&self) -> &str {
                "client"
            }
            fn on_packet(&mut self, ctx: &mut Ctx<'_>, dir: Direction, wire: Wire) {
                if dir == Direction::ToClient {
                    self.got.borrow_mut().push(wire);
                } else {
                    ctx.send(dir, wire);
                }
            }
        }
        let got = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new(3);
        sim.add_element(Box::new(Fwd { got: got.clone() }));
        sim.add_link(Link::new(Duration::from_millis(20), 5));
        sim.add_element(Box::new(PassThrough::new("server")));
        sim.inject_at(0, Direction::ToServer, pkt(3), Instant::ZERO);
        sim.run_to_quiescence(100);
        let got = got.borrow();
        assert_eq!(got.len(), 1, "ICMP time-exceeded came back to the client");
        let (router, quote) = intang_packet::icmp::parse_time_exceeded(&got[0]).unwrap();
        assert_eq!(quote.orig_dst, Ipv4Addr::new(10, 0, 0, 2));
        assert_eq!(quote.dst_port, 80);
        // Died at hop 3 of the link after element 0.
        assert_eq!(router, sim.links[0].router_addr(3));
    }

    #[test]
    fn lossy_link_drops_deterministically() {
        let link = Link::new(Duration::from_millis(1), 1).with_loss(0.5);
        let (mut sim, got) = two_node_sim(link);
        for i in 0..100 {
            sim.inject_at(0, Direction::ToServer, pkt(64), Instant(i * 1_000));
        }
        sim.run_to_quiescence(1_000);
        let received = got.borrow().len();
        assert_eq!(received as u64, sim.delivered);
        assert_eq!(sim.lost + sim.delivered, 100);
        assert!((30..70).contains(&received), "loss roughly calibrated, got {received}");

        // Replay with the same seed: identical outcome.
        let link = Link::new(Duration::from_millis(1), 1).with_loss(0.5);
        let (mut sim2, got2) = two_node_sim(link);
        for i in 0..100 {
            sim2.inject_at(0, Direction::ToServer, pkt(64), Instant(i * 1_000));
        }
        sim2.run_to_quiescence(1_000);
        assert_eq!(got2.borrow().len(), received);
    }

    #[test]
    fn run_until_cannot_double_pop_across_the_deadline() {
        // Regression guard for the deadline boundary: an event scheduled
        // exactly AT the deadline runs in that call (once), later events
        // stay queued, and re-running with the same deadline is a no-op.
        struct TimerBox {
            fired: Rc<RefCell<Vec<u64>>>,
        }
        impl Element for TimerBox {
            fn name(&self) -> &str {
                "t"
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _d: Direction, _w: Wire) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, token: u64) {
                self.fired.borrow_mut().push(token);
            }
        }
        let fired = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new(1);
        sim.add_element(Box::new(TimerBox { fired: fired.clone() }));
        sim.schedule_timer(0, Instant(1_000), 1);
        sim.schedule_timer(0, Instant(2_000), 2); // exactly at the deadline
        sim.schedule_timer(0, Instant(3_000), 3);

        assert_eq!(sim.run_until(Instant(2_000)), 2, "boundary event included once");
        assert_eq!(*fired.borrow(), vec![1, 2]);
        assert_eq!(sim.now, Instant(2_000));
        assert_eq!(sim.pending_events(), 1, "post-deadline event still queued");

        assert_eq!(sim.run_until(Instant(2_000)), 0, "same deadline re-run is a no-op");
        assert_eq!(*fired.borrow(), vec![1, 2]);

        assert_eq!(sim.run_until(Instant(5_000)), 1);
        assert_eq!(*fired.borrow(), vec![1, 2, 3], "each event popped exactly once");
        assert_eq!(sim.now, Instant(5_000), "clock advances to the idle deadline");
    }

    #[test]
    fn batched_run_matches_single_step_run() {
        // Same seed, same injected load (including same-time collisions and
        // loss draws): batched and single-step dispatch must agree on every
        // observable — clock, counters, deliveries and the trace.
        let build_and_run = |batch: bool| {
            let prev = crate::batch::set_thread(Some(batch));
            let link = Link::new(Duration::from_millis(1), 2).with_loss(0.3);
            let (mut sim, got) = two_node_sim(link);
            sim.trace.enable();
            for i in 0..60u64 {
                // Three same-time injections per wave → real batches.
                let t = Instant((i / 3) * 500);
                sim.inject_at(0, Direction::ToServer, pkt(64), t);
            }
            let n = sim.run_until(Instant(1_000_000));
            crate::batch::set_thread(prev);
            let deliveries: Vec<(Instant, Vec<u8>)> = got.borrow().iter().map(|(at, w)| (*at, w.to_vec())).collect();
            let trace: Vec<String> = sim.trace.events().iter().map(|e| format!("{e:?}")).collect();
            (n, sim.now, sim.delivered, sim.lost, sim.events_processed, deliveries, trace)
        };
        let single = build_and_run(false);
        let batched = build_and_run(true);
        assert_eq!(single, batched);
    }

    #[test]
    fn lineage_threads_from_injection_to_delivery() {
        use crate::trace::TraceKind;
        let (mut sim, _got) = two_node_sim(Link::new(Duration::from_millis(10), 3));
        sim.trace.enable();
        sim.inject_at(0, Direction::ToServer, pkt(64), Instant::ZERO);
        sim.run_to_quiescence(100);
        let events = sim.trace.events();
        // inject → Arrive(client, no parent) → Emit(client, parent=arrive)
        // → Arrive(sink, parent=emit)
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kind, TraceKind::Arrive);
        assert_eq!(events[0].parent, None, "injected packet has no cause");
        assert_eq!(events[1].kind, TraceKind::Emit);
        assert_eq!(events[1].parent, Some(events[0].id));
        assert_eq!(events[2].kind, TraceKind::Arrive);
        assert_eq!(events[2].parent, Some(events[1].id));
        // The rendered lineage of the final arrival walks back to the root.
        let lineage = sim.trace.render_lineage(events[2].id);
        assert_eq!(lineage.lines().count(), 3, "{lineage}");
    }

    #[test]
    fn icmp_lineage_points_at_the_ttl_expiry() {
        use crate::trace::TraceKind;
        let (mut sim, _got) = two_node_sim(Link::new(Duration::from_millis(9), 3));
        sim.trace.enable();
        sim.inject_at(0, Direction::ToServer, pkt(2), Instant::ZERO);
        sim.run_to_quiescence(100);
        let events = sim.trace.events();
        let ttl = events.iter().find(|e| e.kind == TraceKind::TtlExpired).expect("ttl event");
        let icmp_arrive = events
            .iter()
            .find(|e| e.kind == TraceKind::Arrive && e.parent == Some(ttl.id))
            .expect("ICMP arrival parented on the expiry");
        assert_eq!(icmp_arrive.dir, Direction::ToClient);
    }

    #[test]
    fn export_metrics_reports_substrate_counters() {
        use intang_telemetry::{Counter, MetricsSheet};
        let (mut sim, _got) = two_node_sim(Link::new(Duration::from_millis(10), 3));
        sim.inject_at(0, Direction::ToServer, pkt(64), Instant::ZERO);
        sim.run_to_quiescence(100);
        let mut m = MetricsSheet::new();
        sim.export_metrics(&mut m);
        assert_eq!(m.counter(Counter::NetsimDelivered), 1);
        assert_eq!(m.counter(Counter::NetsimEvents), sim.events_processed);
        assert!(sim.events_processed >= 2);
        assert_eq!(m.counter(Counter::TraceEventsDropped), 0);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerBox {
            fired: Rc<RefCell<Vec<u64>>>,
        }
        impl Element for TimerBox {
            fn name(&self) -> &str {
                "t"
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _d: Direction, _w: Wire) {}
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
                self.fired.borrow_mut().push(token);
                if token == 1 {
                    ctx.set_timer(ctx.now + Duration::from_millis(5), 99);
                }
            }
        }
        let fired = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulation::new(1);
        sim.add_element(Box::new(TimerBox { fired: fired.clone() }));
        sim.schedule_timer(0, Instant(2_000), 2);
        sim.schedule_timer(0, Instant(1_000), 1);
        sim.run_to_quiescence(10);
        assert_eq!(*fired.borrow(), vec![1, 2, 99]);
        assert_eq!(sim.now, Instant(6_000));
    }
}
