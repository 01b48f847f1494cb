//! Flight recorder: a bounded ring of the most recent events per
//! simulation — "what happened right before".
//!
//! The trace (`crate::trace`) answers lineage questions but costs a
//! record per hop and is only enabled for dedicated replays; the flight
//! recorder is the always-affordable complement: a fixed-capacity ring of
//! compact fixed-size records ([`FlightRec`], no allocation per event)
//! that the simulation overwrites as it runs. When something goes wrong —
//! a simcheck violation's shrunken replay, or a panic mid-run — the ring
//! holds the last [`FLIGHT_CAP`] dispatches leading up to it, rendered
//! into the `.simcheck/` repro artifact and onto stderr respectively.
//!
//! Recording is enabled per-process with `INTANG_FLIGHT=1`, per-thread
//! with [`set_thread`], or implicitly whenever simcheck checking is on
//! (so every violation artifact gets a tail). Record fields come from the
//! wire's cached header index; unparseable payloads record lengths only.

use crate::element::Direction;
use crate::event::Event;
use crate::time::Instant;
use intang_packet::Wire;
use std::fmt::Write as _;

/// Ring capacity: enough to span several RTTs of a trial's hot phase
/// while keeping the per-sim footprint at a few KiB.
pub const FLIGHT_CAP: usize = 256;

/// What kind of dispatch a record captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    Deliver,
    Timer,
}

/// One dispatched event, summarized into plain scalars.
#[derive(Debug, Clone, Copy)]
pub struct FlightRec {
    pub at: Instant,
    pub elem: u16,
    pub kind: FlightKind,
    pub dir: Direction,
    /// IP protocol number (0 when unparseable or a timer).
    pub proto: u8,
    /// TCP flag bits (0 for non-TCP).
    pub flags: u8,
    /// Whole-datagram length in bytes (0 for timers).
    pub len: u16,
    pub src_port: u16,
    pub dst_port: u16,
    /// TCP sequence number (0 for non-TCP).
    pub seq: u32,
    /// Timer token (0 for delivers).
    pub token: u64,
}

impl FlightRec {
    /// Summarize a popped event at dispatch time.
    pub fn of(at: Instant, event: &Event) -> FlightRec {
        match event {
            Event::Deliver { elem, dir, wire, .. } => {
                let mut rec = FlightRec {
                    at,
                    elem: (*elem).min(u16::MAX as usize) as u16,
                    kind: FlightKind::Deliver,
                    dir: *dir,
                    proto: 0,
                    flags: 0,
                    len: wire.len().min(u16::MAX as usize) as u16,
                    src_port: 0,
                    dst_port: 0,
                    seq: 0,
                    token: 0,
                };
                if let Some(h) = wire.headers() {
                    rec.proto = h.protocol.into();
                    match h.tcp() {
                        Some(t) => {
                            rec.flags = t.flags.0;
                            rec.src_port = t.src_port;
                            rec.dst_port = t.dst_port;
                            rec.seq = t.seq;
                        }
                        None => {
                            if let intang_packet::L4Index::Udp(u) = h.l4 {
                                rec.src_port = u.src_port;
                                rec.dst_port = u.dst_port;
                            }
                        }
                    }
                }
                rec
            }
            Event::Timer { elem, token } => FlightRec {
                at,
                elem: (*elem).min(u16::MAX as usize) as u16,
                kind: FlightKind::Timer,
                dir: Direction::ToServer,
                proto: 0,
                flags: 0,
                len: 0,
                src_port: 0,
                dst_port: 0,
                seq: 0,
                token: *token,
            },
        }
    }
}

/// The bounded ring itself. Boxed into the simulation only when enabled,
/// so the disabled cost is one `Option` check per dispatch.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Vec<FlightRec>,
    /// Next write position once the ring is full.
    head: usize,
    /// Total records ever written (>= ring.len()).
    total: u64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    pub fn new() -> FlightRecorder {
        FlightRecorder {
            ring: Vec::with_capacity(FLIGHT_CAP),
            head: 0,
            total: 0,
        }
    }

    pub fn record(&mut self, rec: FlightRec) {
        if self.ring.len() < FLIGHT_CAP {
            self.ring.push(rec);
        } else {
            self.ring[self.head] = rec;
            self.head = (self.head + 1) % FLIGHT_CAP;
        }
        self.total += 1;
    }

    /// Records ever written (the ring holds the last
    /// `min(total, FLIGHT_CAP)` of them).
    pub fn total(&self) -> u64 {
        self.total
    }

    pub fn len(&self) -> usize {
        self.ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The retained records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &FlightRec> {
        let (wrapped, linear) = self.ring.split_at(self.head);
        linear.iter().chain(wrapped.iter())
    }

    /// Render the ring as indented text, resolving element indices to
    /// names through `name` (the simulation supplies its element table).
    pub fn render(&self, mut name: impl FnMut(usize) -> String) -> String {
        let mut out = String::new();
        let dropped = self.total - self.ring.len() as u64;
        let _ = writeln!(
            out,
            "flight recorder: last {} of {} dispatches{}",
            self.ring.len(),
            self.total,
            if dropped > 0 { " (older overwritten)" } else { "" }
        );
        for rec in self.iter() {
            let elem = name(usize::from(rec.elem));
            match rec.kind {
                FlightKind::Timer => {
                    let _ = writeln!(out, "  [{:>10}us] {:<12} timer token={:#x}", rec.at.0, elem, rec.token);
                }
                FlightKind::Deliver => {
                    let _ = write!(
                        out,
                        "  [{:>10}us] {:<12} deliver {} proto={} len={}",
                        rec.at.0, elem, rec.dir, rec.proto, rec.len
                    );
                    if rec.src_port != 0 || rec.dst_port != 0 {
                        let _ = write!(out, " {}->{}", rec.src_port, rec.dst_port);
                    }
                    if rec.proto == 6 {
                        let _ = write!(out, " seq={} flags={}", rec.seq, intang_packet::TcpFlags(rec.flags));
                    }
                    out.push('\n');
                }
            }
        }
        out
    }
}

/// Test/diagnostic hook: summarize a wire the way dispatch would.
pub fn summarize_wire(at: Instant, elem: usize, dir: Direction, wire: &Wire) -> FlightRec {
    FlightRec::of(
        at,
        &Event::Deliver {
            elem,
            dir,
            wire: wire.clone(),
            cause: None,
        },
    )
}

/// Should simulations constructed on this thread carry a flight ring?
/// (Simcheck-enabled sims carry one regardless, so violation artifacts
/// always have a tail to dump.)
pub fn enabled() -> bool {
    intang_telemetry::knobs::current().flight
}

/// Override the flight knob on this thread (`Some(on)`) or reset it to
/// the environment (`None`). Returns the previous override so callers can
/// restore it.
pub fn set_thread(on: Option<bool>) -> Option<bool> {
    intang_telemetry::knobs::set_field(on, |k| &mut k.flight)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer_rec(at: u64, token: u64) -> FlightRec {
        FlightRec::of(Instant(at), &Event::Timer { elem: 0, token })
    }

    #[test]
    fn ring_wraps_keeping_the_newest() {
        let mut r = FlightRecorder::new();
        for i in 0..(FLIGHT_CAP as u64 + 10) {
            r.record(timer_rec(i, i));
        }
        assert_eq!(r.len(), FLIGHT_CAP);
        assert_eq!(r.total(), FLIGHT_CAP as u64 + 10);
        let times: Vec<u64> = r.iter().map(|rec| rec.at.0).collect();
        assert_eq!(times.first(), Some(&10), "oldest surviving record");
        assert_eq!(times.last(), Some(&(FLIGHT_CAP as u64 + 9)));
        assert!(times.windows(2).all(|w| w[0] < w[1]), "oldest-first iteration");
    }

    #[test]
    fn render_mentions_wrap_and_resolves_names() {
        let mut r = FlightRecorder::new();
        for i in 0..(FLIGHT_CAP as u64 + 1) {
            r.record(timer_rec(i, 7));
        }
        let text = r.render(|i| format!("elem{i}"));
        assert!(text.contains("older overwritten"), "{text}");
        assert!(text.contains("elem0"), "{text}");
        assert!(text.contains("token=0x7"), "{text}");
        assert_eq!(text.lines().count(), FLIGHT_CAP + 1);
    }

    #[test]
    fn deliver_records_tcp_fields() {
        let wire = intang_packet::PacketBuilder::tcp(std::net::Ipv4Addr::new(10, 0, 0, 1), std::net::Ipv4Addr::new(10, 0, 0, 2), 1234, 80)
            .flags(intang_packet::TcpFlags::SYN)
            .seq(99)
            .build();
        let rec = summarize_wire(Instant(5), 3, Direction::ToServer, &wire);
        assert_eq!(rec.kind, FlightKind::Deliver);
        assert_eq!(rec.proto, 6);
        assert_eq!(rec.src_port, 1234);
        assert_eq!(rec.dst_port, 80);
        assert_eq!(rec.seq, 99);
        assert_eq!(rec.elem, 3);
        assert!(rec.len > 0);
    }

    #[test]
    fn set_thread_round_trips() {
        let before = enabled();
        let prev = set_thread(Some(true));
        assert!(enabled());
        set_thread(prev);
        assert_eq!(enabled(), before);
    }
}
