//! The host-level TCP endpoint: IP-level validation, fragment reassembly,
//! socket demultiplexing, listeners, and wire emission.

use crate::ignore::{IgnoreLog, IgnoreReason};
use crate::profile::StackProfile;
use crate::socket::{Micros, Socket, TcpState};
use intang_packet::frag::{OverlapPolicy, Reassembler};
use intang_packet::tcp::{TcpFlags, TcpPacket, TcpRepr};
use intang_packet::{FourTuple, IpProtocol, Ipv4Packet, Ipv4Repr, ParseError, Wire};
use intang_telemetry::{Counter, MetricsSheet};
use std::net::Ipv4Addr;

/// Index of a socket inside an endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SocketHandle(pub usize);

/// One socket-table entry.
pub(crate) struct Slot {
    sock: Socket,
    /// Opened by `connect` (a client socket is never reported as accepted).
    client: bool,
    /// Retired: skipped by demux, polls and timers until a later
    /// connect/accept reuses the slot.
    retired: bool,
}

/// Cheap always-on counters for one endpoint (telemetry reads these once
/// per trial via [`TcpEndpoint::export_metrics`]).
#[derive(Debug, Default, Clone, Copy)]
pub struct StackStats {
    /// TCP segments addressed to this endpoint that parsed far enough to
    /// be considered (pre-validation).
    pub segments_rx: u64,
    /// IP datagrams this endpoint emitted.
    pub segments_tx: u64,
    /// Segments carrying an RST flag seen by this endpoint.
    pub resets_rx: u64,
}

/// First source port [`TcpEndpoint::connect`] hands out.
const EPHEMERAL_BASE: u16 = 40_000;

/// All that a quiet endpoint (see [`TcpEndpoint::quiet_snapshot`]) still
/// needs to answer a segment: its address and its ISN and IP-ident
/// counters, 10 bytes. With no live socket, every later segment meets the
/// listener or the dead-port path, and those read nothing else.
/// [`TcpEndpoint::wake`] rebuilds an endpoint that answers every later
/// segment byte for byte as the snapshotted one would have.
///
/// A snapshot drops the endpoint's [`StackStats`] and ignore-log counts:
/// the woken endpoint counts from zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuietEndpoint {
    addr: Ipv4Addr,
    isn_counter: u32,
    ident_counter: u16,
}

/// A host's TCP layer.
pub struct TcpEndpoint {
    pub addr: Ipv4Addr,
    pub profile: StackProfile,
    /// Every ignore-path hit, for tests and the differential analysis.
    pub ignore_log: IgnoreLog,
    pub stats: StackStats,
    /// Socket table. Slots of sockets passed to [`TcpEndpoint::retire_socket`]
    /// go on the free list and are reused by the next connect/accept, so a
    /// long-lived endpoint that retires finished flows stays bounded by its
    /// *concurrent* socket count (the table was historically grow-only,
    /// which forced multiplexers into one-endpoint-per-flow workarounds).
    sockets: Vec<Slot>,
    /// Indices of retired slots available for reuse.
    free: Vec<usize>,
    listeners: Vec<u16>,
    /// Handles of server sockets that completed their handshake and have
    /// not yet been claimed by the application.
    accepted: Vec<SocketHandle>,
    out: Vec<Wire>,
    ip_reasm: Reassembler,
    /// Scratch repr reused by `on_packet`: parsing a segment into it reuses
    /// the previous segment's `options`/`payload` capacity, so the receive
    /// path stops allocating once warm.
    rx_seg: TcpRepr,
    isn_counter: u32,
    ident_counter: u16,
    ephemeral_next: u16,
}

impl Drop for TcpEndpoint {
    fn drop(&mut self) {
        crate::pool::put_repr(std::mem::replace(&mut self.rx_seg, TcpRepr::new(0, 0)));
        // Dropping the sockets inside put_socket_table recycles their
        // queues; the table, datagram queue and ignore-log storage keep
        // their capacity for the next endpoint on this thread.
        crate::pool::put_socket_table(std::mem::take(&mut self.sockets));
        crate::pool::put_wire_queue(std::mem::take(&mut self.out));
        self.ignore_log.recycle();
    }
}

impl TcpEndpoint {
    pub fn new(addr: Ipv4Addr, profile: StackProfile) -> TcpEndpoint {
        TcpEndpoint {
            addr,
            profile,
            ignore_log: IgnoreLog::pooled(),
            stats: StackStats::default(),
            sockets: crate::pool::take_socket_table(),
            free: Vec::new(),
            listeners: Vec::new(),
            accepted: Vec::new(),
            out: crate::pool::take_wire_queue(),
            // Servers reassemble fragments; the "accepts junk like the GFW"
            // server variant (§3.4) is modeled by profiles that set
            // FirstWins via `set_ip_overlap`.
            ip_reasm: Reassembler::new(OverlapPolicy::LastWins),
            // Leased from the thread-local repr pool so a fresh endpoint
            // inherits a previous one's grown options/payload capacity
            // (returned in Drop).
            rx_seg: crate::pool::take_repr(0, 0),
            isn_counter: 0x1000_0000,
            ident_counter: 1,
            ephemeral_next: EPHEMERAL_BASE,
        }
    }

    /// The snapshot of this endpoint if it is quiet: every socket CLOSED
    /// or retired with no timer armed and nothing left to send, no queued
    /// datagram, no pending IP fragment and no unclaimed accept. A
    /// snapshot carries neither the listeners, the fragment-overlap policy
    /// nor the ephemeral-port counter, so the endpoint must also listen on
    /// exactly one port, keep the default policy and have the first
    /// ephemeral port next. Handles into the endpoint die with it.
    pub fn quiet_snapshot(&self) -> Option<QuietEndpoint> {
        let quiet = self.out.is_empty()
            && self.accepted.is_empty()
            && self.ip_reasm.pending_count() == 0
            && self
                .sockets
                .iter()
                .all(|s| s.retired || (s.sock.is_closed() && s.sock.next_deadline().is_none() && s.sock.out.is_empty()))
            && self.listeners.len() == 1
            && self.ip_reasm.policy() == OverlapPolicy::LastWins
            && self.ephemeral_next == EPHEMERAL_BASE;
        quiet.then_some(QuietEndpoint {
            addr: self.addr,
            isn_counter: self.isn_counter,
            ident_counter: self.ident_counter,
        })
    }

    /// Rebuild a quiet endpoint from its snapshot. `profile` and `port`
    /// must be the profile the snapshotted endpoint ran and the one port
    /// it listened on.
    pub fn wake(q: QuietEndpoint, profile: StackProfile, port: u16) -> TcpEndpoint {
        let mut ep = TcpEndpoint::new(q.addr, profile);
        ep.isn_counter = q.isn_counter;
        ep.ident_counter = q.ident_counter;
        ep.listen(port);
        ep
    }

    /// Override the IP fragment overlap preference (server diversity, §3.4).
    pub fn set_ip_overlap(&mut self, policy: OverlapPolicy) {
        self.ip_reasm = Reassembler::new(policy);
    }

    pub fn listen(&mut self, port: u16) {
        if !self.listeners.contains(&port) {
            self.listeners.push(port);
        }
    }

    /// Open a client connection; emits the SYN immediately.
    pub fn connect(&mut self, dst: Ipv4Addr, dst_port: u16, now: Micros) -> SocketHandle {
        let src_port = self.ephemeral_next;
        self.ephemeral_next = self.ephemeral_next.wrapping_add(1).max(EPHEMERAL_BASE);
        self.connect_from(src_port, dst, dst_port, now)
    }

    /// Open a client connection from a specific source port.
    pub fn connect_from(&mut self, src_port: u16, dst: Ipv4Addr, dst_port: u16, now: Micros) -> SocketHandle {
        let tuple = FourTuple::new(self.addr, src_port, dst, dst_port);
        let iss = self.next_isn();
        let sock = Socket::connect(tuple, iss, self.profile, now);
        let h = self.install_socket(sock, true);
        self.drain_socket(h.0);
        h
    }

    /// Place a socket in a free (retired) slot if one exists, else append.
    fn install_socket(&mut self, sock: Socket, client: bool) -> SocketHandle {
        let slot = Slot {
            sock,
            client,
            retired: false,
        };
        if let Some(idx) = self.free.pop() {
            self.sockets[idx] = slot;
            return SocketHandle(idx);
        }
        // Most endpoints hold one socket for life (a metropolis server
        // cell, a trial's client), and a first push would reserve four.
        if self.sockets.capacity() == 0 {
            self.sockets.reserve_exact(1);
        }
        self.sockets.push(slot);
        SocketHandle(self.sockets.len() - 1)
    }

    /// Retire one socket: it stops matching incoming segments, firing
    /// timers or being polled, and its slot is recycled by a later
    /// connect/accept. The handle must not be used again. Flows that end
    /// (metropolis retirement, forwarder teardown) call this so an
    /// endpoint's footprint tracks its concurrent — not lifetime — flow
    /// count.
    pub fn retire_socket(&mut self, h: SocketHandle) {
        let idx = h.0;
        if self.sockets.get(idx).is_none_or(|s| s.retired) {
            return;
        }
        // Flush anything the socket had queued (e.g. its final FIN/ACK).
        self.drain_socket(idx);
        self.sockets[idx].retired = true;
        self.free.push(idx);
    }

    /// True when every live (non-retired) socket has reached a quiescent
    /// state — CLOSED, or TIME_WAIT where the only remaining action is the
    /// quietus timer. A multiplexer cell whose conversation is done can be
    /// dropped at this point without losing any future transmission.
    pub fn all_settled(&self) -> bool {
        self.sockets
            .iter()
            .all(|s| s.retired || matches!(s.sock.state(), TcpState::Closed | TcpState::TimeWait))
    }

    fn next_isn(&mut self) -> u32 {
        // Deterministic yet spread-out ISNs.
        self.isn_counter = self.isn_counter.wrapping_add(0x01ab_cd07);
        self.isn_counter
    }

    /// Pin the next ISN this endpoint hands out to exactly `base`.
    /// Wraparound property tests use this to start connections with ISNs
    /// near `u32::MAX` so every absolute-sequence comparison downstream
    /// gets exercised across the wrap.
    pub fn set_isn_base(&mut self, base: u32) {
        self.isn_counter = base.wrapping_sub(0x01ab_cd07);
    }

    pub fn socket(&mut self, h: SocketHandle) -> &mut Socket {
        &mut self.sockets[h.0].sock
    }

    pub fn socket_ref(&self, h: SocketHandle) -> &Socket {
        &self.sockets[h.0].sock
    }

    /// Slots the socket table has room for, live, retired and spare.
    pub fn socket_slots(&self) -> usize {
        self.sockets.capacity()
    }

    /// Server sockets that became ESTABLISHED since the last call.
    pub fn take_accepted(&mut self) -> Vec<SocketHandle> {
        std::mem::take(&mut self.accepted)
    }

    /// Process one incoming IPv4 datagram.
    pub fn on_packet(&mut self, wire: Wire, now: Micros) {
        // IP fragments first: buffer until a full datagram emerges.
        let Some(wire) = self.ip_reasm.push(wire) else { return };

        let Ok(ip) = Ipv4Packet::new_checked(&wire[..]) else { return };
        if ip.dst_addr() != self.addr {
            return; // not ours (e.g. ICMP for a probe tool that hooks elsewhere)
        }
        if self.profile.validate_ip_total_len && !ip.total_len_consistent() {
            self.ignore_log.record(IgnoreReason::BadIpTotalLen, None);
            return;
        }
        if ip.protocol() != IpProtocol::Tcp {
            return; // UDP/ICMP are handled by other layers of the host
        }
        let tcp = match TcpPacket::new_checked(ip.payload()) {
            Ok(t) => t,
            Err(ParseError::BadLength) => {
                self.ignore_log.record(IgnoreReason::BadTcpHeaderLen, None);
                return;
            }
            Err(_) => return,
        };
        if self.profile.validate_checksum && !tcp.verify_checksum(ip.src_addr(), ip.dst_addr()) {
            self.ignore_log.record(IgnoreReason::BadChecksum, None);
            return;
        }

        let remote = ip.src_addr();
        let tuple_local = FourTuple::new(self.addr, tcp.dst_port(), remote, tcp.src_port());
        // Move the scratch repr out (putting it back below) so `&seg` and
        // `&mut self` can coexist across the socket calls.
        let mut seg = std::mem::replace(&mut self.rx_seg, TcpRepr::new(0, 0));
        TcpRepr::parse_into(&tcp, &mut seg);
        self.stats.segments_rx += 1;
        if seg.flags.rst() {
            self.stats.resets_rx += 1;
        }
        self.dispatch_segment(&seg, tuple_local, remote, now);
        self.rx_seg = seg;
    }

    /// Demux one validated TCP segment to a socket, a listener, or the
    /// closed-port RST path.
    fn dispatch_segment(&mut self, seg: &TcpRepr, tuple_local: FourTuple, remote: Ipv4Addr, now: Micros) {
        // Demux: existing socket?
        if let Some(idx) = self
            .sockets
            .iter()
            .position(|s| !s.retired && s.sock.tuple == tuple_local && s.sock.state() != TcpState::Closed)
        {
            let slot = &mut self.sockets[idx];
            let was_established = slot.sock.is_established();
            slot.sock.process(seg, now, &mut self.ignore_log);
            slot.sock.schedule_time_wait(now);
            if !was_established && slot.sock.is_established() && !slot.client {
                self.accepted.push(SocketHandle(idx));
            }
            self.drain_socket(idx);
            return;
        }

        // No socket. A SYN to a listening port opens one.
        if seg.flags.syn() && !seg.flags.ack() && self.listeners.contains(&seg.dst_port) {
            let iss = self.next_isn();
            let remote_ts = crate::socket::timestamps_of(seg).map(|(v, _)| v);
            let sock = Socket::accept(tuple_local, iss, seg.seq, remote_ts, self.profile, now);
            let h = self.install_socket(sock, false);
            self.drain_socket(h.0);
            return;
        }

        // Anything else to a dead port: RST (unless it *is* an RST).
        self.ignore_log.record(IgnoreReason::NoSocket, Some(tuple_local.reversed()));
        if !seg.flags.rst() {
            let (rst_seq, rst_ack, flags) = if seg.flags.ack() {
                (seg.ack, 0, TcpFlags::RST)
            } else {
                let seg_len = seg.payload.len() as u32 + u32::from(seg.flags.syn()) + u32::from(seg.flags.fin());
                (0, seg.seq.wrapping_add(seg_len), TcpFlags::RST_ACK)
            };
            let mut rst = crate::pool::take_repr(seg.dst_port, seg.src_port);
            rst.seq = rst_seq;
            rst.ack = rst_ack;
            rst.flags = flags;
            rst.window = 0;
            self.push_wire(remote, rst);
        }
    }

    /// Wrap queued TCP segments of socket `idx` into IP datagrams; a
    /// CLOSED socket then hands its idle buffers back to the pools.
    fn drain_socket(&mut self, idx: usize) {
        let dst = self.sockets[idx].sock.tuple.dst;
        let mut segs = std::mem::take(&mut self.sockets[idx].sock.out);
        for seg in segs.drain(..) {
            self.push_wire(dst, seg);
        }
        // Hand the drained (now empty) queue back so its capacity survives
        // to the next flush.
        let sock = &mut self.sockets[idx].sock;
        sock.out = segs;
        if sock.is_closed() {
            sock.release_idle_buffers();
        }
    }

    fn push_wire(&mut self, dst: Ipv4Addr, seg: TcpRepr) {
        let mut ip = Ipv4Repr::new(self.addr, dst, IpProtocol::Tcp);
        ip.ident = self.ident_counter;
        self.ident_counter = self.ident_counter.wrapping_add(1);
        let wire = intang_packet::wire::emit_tcp(&ip, &seg);
        self.stats.segments_tx += 1;
        self.out.push(wire);
        crate::pool::put_repr(seg);
    }

    /// Take all pending outgoing datagrams.
    pub fn poll_transmit(&mut self) -> Vec<Wire> {
        let mut out = Vec::new();
        self.poll_transmit_into(&mut out);
        out
    }

    /// Append all pending outgoing datagrams to `out` — the allocation-free
    /// variant for callers that keep a scratch vector across polls.
    pub fn poll_transmit_into(&mut self, out: &mut Vec<Wire>) {
        // App-level sends land in socket.out; sweep all live sockets.
        for idx in 0..self.sockets.len() {
            if !self.sockets[idx].retired {
                self.drain_socket(idx);
            }
        }
        out.append(&mut self.out);
    }

    /// Earliest timer deadline across live sockets.
    pub fn next_deadline(&self) -> Option<Micros> {
        self.sockets
            .iter()
            .filter(|s| !s.retired)
            .filter_map(|s| s.sock.next_deadline())
            .min()
    }

    /// Fire timers that are due.
    pub fn on_timer(&mut self, now: Micros) {
        for idx in 0..self.sockets.len() {
            let slot = &mut self.sockets[idx];
            if !slot.retired && slot.sock.next_deadline().is_some_and(|d| d <= now) {
                slot.sock.on_timer(now);
                self.drain_socket(idx);
            }
        }
    }

    /// Number of live (non-closed, non-retired) sockets.
    pub fn live_sockets(&self) -> usize {
        self.sockets
            .iter()
            .filter(|s| !s.retired && s.sock.state() != TcpState::Closed)
            .count()
    }

    /// Export this endpoint's counters into a telemetry sheet (called by
    /// the host element wrapper once per trial).
    pub fn export_metrics(&self, m: &mut MetricsSheet) {
        m.add(Counter::StackSegmentsRx, self.stats.segments_rx);
        m.add(Counter::StackSegmentsTx, self.stats.segments_tx);
        m.add(Counter::StackResetsRx, self.stats.resets_rx);
        m.add(Counter::StackSegmentsIgnored, self.ignore_log.total());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client_addr() -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, 1)
    }
    fn server_addr() -> Ipv4Addr {
        Ipv4Addr::new(93, 184, 216, 34)
    }

    /// Shuttle packets between two endpoints until both go quiet.
    fn pump(a: &mut TcpEndpoint, b: &mut TcpEndpoint, now: Micros) {
        loop {
            let from_a = a.poll_transmit();
            let from_b = b.poll_transmit();
            if from_a.is_empty() && from_b.is_empty() {
                break;
            }
            for w in from_a {
                b.on_packet(w, now);
            }
            for w in from_b {
                a.on_packet(w, now);
            }
        }
    }

    #[test]
    fn end_to_end_http_like_exchange() {
        let mut client = TcpEndpoint::new(client_addr(), StackProfile::linux_4_4());
        let mut server = TcpEndpoint::new(server_addr(), StackProfile::linux_4_4());
        server.listen(80);
        let ch = client.connect(server_addr(), 80, 0);
        pump(&mut client, &mut server, 0);
        assert!(client.socket(ch).is_established());
        let accepted = server.take_accepted();
        assert_eq!(accepted.len(), 1);
        let sh = accepted[0];

        client.socket(ch).send(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n", 1_000);
        pump(&mut client, &mut server, 1_000);
        assert_eq!(server.socket(sh).recv_drain(), b"GET / HTTP/1.1\r\nHost: x\r\n\r\n");

        server.socket(sh).send(b"HTTP/1.1 200 OK\r\n\r\nhi", 2_000);
        server.socket(sh).close(2_000);
        pump(&mut client, &mut server, 2_000);
        assert_eq!(client.socket(ch).recv_drain(), b"HTTP/1.1 200 OK\r\n\r\nhi");
        assert!(client.socket(ch).peer_closed());

        client.socket(ch).close(3_000);
        pump(&mut client, &mut server, 3_000);
        // The server initiated close, so it lingers in TIME_WAIT while the
        // client (LAST_ACK side) fully closes.
        assert_eq!(server.socket(sh).state(), TcpState::TimeWait);
        assert!(client.socket(ch).is_closed());
    }

    #[test]
    fn retired_socket_slot_is_reused_and_invisible() {
        let mut client = TcpEndpoint::new(client_addr(), StackProfile::linux_4_4());
        let mut server = TcpEndpoint::new(server_addr(), StackProfile::linux_4_4());
        server.listen(80);
        let ch = client.connect(server_addr(), 80, 0);
        pump(&mut client, &mut server, 0);
        assert!(client.socket(ch).is_established());
        client.retire_socket(ch);
        assert_eq!(client.live_sockets(), 0);
        assert!(client.next_deadline().is_none(), "retired sockets fire no timers");
        // A new connection reuses the retired slot rather than growing the
        // table.
        let ch2 = client.connect(server_addr(), 80, 1_000);
        assert_eq!(ch2, ch, "slot recycled");
        pump(&mut client, &mut server, 1_000);
        assert!(client.socket(ch2).is_established());
    }

    #[test]
    fn all_settled_after_full_close() {
        let mut client = TcpEndpoint::new(client_addr(), StackProfile::linux_4_4());
        let mut server = TcpEndpoint::new(server_addr(), StackProfile::linux_4_4());
        server.listen(80);
        let ch = client.connect(server_addr(), 80, 0);
        pump(&mut client, &mut server, 0);
        assert!(!server.all_settled(), "established connection is not settled");
        let sh = server.take_accepted()[0];
        server.socket(sh).send(b"hi", 1_000);
        server.socket(sh).close(1_000);
        pump(&mut client, &mut server, 1_000);
        client.socket(ch).close(2_000);
        pump(&mut client, &mut server, 2_000);
        assert_eq!(server.socket(sh).state(), TcpState::TimeWait);
        assert!(server.all_settled(), "TIME_WAIT counts as settled");
        assert!(client.all_settled());
    }

    #[test]
    fn syn_to_closed_port_gets_rst() {
        let mut client = TcpEndpoint::new(client_addr(), StackProfile::linux_4_4());
        let mut server = TcpEndpoint::new(server_addr(), StackProfile::linux_4_4());
        // No listener on 81.
        let ch = client.connect(server_addr(), 81, 0);
        pump(&mut client, &mut server, 0);
        assert!(client.socket(ch).is_closed());
        assert!(client.socket(ch).reset_by_peer);
    }

    #[test]
    fn bad_checksum_dropped_before_socket() {
        let mut server = TcpEndpoint::new(server_addr(), StackProfile::linux_4_4());
        server.listen(80);
        let wire = intang_packet::PacketBuilder::tcp(client_addr(), server_addr(), 40000, 80)
            .flags(TcpFlags::SYN)
            .bad_checksum()
            .build();
        server.on_packet(wire, 0);
        assert!(server.ignore_log.contains(IgnoreReason::BadChecksum));
        assert!(server.poll_transmit().is_empty(), "no SYN/ACK for a corrupt SYN");
        assert_eq!(server.live_sockets(), 0);
    }

    #[test]
    fn inflated_total_len_dropped() {
        let mut server = TcpEndpoint::new(server_addr(), StackProfile::linux_4_4());
        server.listen(80);
        let wire = intang_packet::PacketBuilder::tcp(client_addr(), server_addr(), 40000, 80)
            .flags(TcpFlags::SYN)
            .inflated_total_len(32)
            .build();
        server.on_packet(wire, 0);
        assert!(server.ignore_log.contains(IgnoreReason::BadIpTotalLen));
        assert_eq!(server.live_sockets(), 0);
    }

    #[test]
    fn short_tcp_header_dropped() {
        let mut server = TcpEndpoint::new(server_addr(), StackProfile::linux_4_4());
        server.listen(80);
        let wire = intang_packet::PacketBuilder::tcp(client_addr(), server_addr(), 40000, 80)
            .flags(TcpFlags::SYN)
            .short_data_offset()
            .build();
        server.on_packet(wire, 0);
        assert!(server.ignore_log.contains(IgnoreReason::BadTcpHeaderLen));
    }

    #[test]
    fn unsolicited_synack_gets_rst() {
        // The TCB Reversal hazard (§5.2): a SYN/ACK reaching the server
        // draws an RST, which would tear down the GFW's reversed TCB.
        let mut server = TcpEndpoint::new(server_addr(), StackProfile::linux_4_4());
        server.listen(80);
        let wire = intang_packet::PacketBuilder::tcp(client_addr(), server_addr(), 40000, 80)
            .flags(TcpFlags::SYN_ACK)
            .seq(1234)
            .ack(5678)
            .build();
        server.on_packet(wire, 0);
        let out = server.poll_transmit();
        assert_eq!(out.len(), 1);
        let ip = Ipv4Packet::new_checked(&out[0][..]).unwrap();
        let tcp = TcpPacket::new_checked(ip.payload()).unwrap();
        assert!(tcp.flags().rst());
        assert_eq!(tcp.seq_number(), 5678, "RST seq mirrors the SYN/ACK's ack");
    }

    #[test]
    fn lost_synack_retransmitted_via_timer() {
        let mut client = TcpEndpoint::new(client_addr(), StackProfile::linux_4_4());
        let mut server = TcpEndpoint::new(server_addr(), StackProfile::linux_4_4());
        server.listen(80);
        let _ch = client.connect(server_addr(), 80, 0);
        for w in client.poll_transmit() {
            server.on_packet(w, 0);
        }
        let _lost = server.poll_transmit(); // drop the SYN/ACK
        let deadline = server.next_deadline().unwrap();
        server.on_timer(deadline + 1);
        let retx = server.poll_transmit();
        assert_eq!(retx.len(), 1);
        let ip = Ipv4Packet::new_checked(&retx[0][..]).unwrap();
        let tcp = TcpPacket::new_checked(ip.payload()).unwrap();
        assert_eq!(tcp.flags(), TcpFlags::SYN_ACK);
    }

    #[test]
    fn fragmented_request_reassembled_by_server() {
        let mut client = TcpEndpoint::new(client_addr(), StackProfile::linux_4_4());
        let mut server = TcpEndpoint::new(server_addr(), StackProfile::linux_4_4());
        server.listen(80);
        let ch = client.connect(server_addr(), 80, 0);
        pump(&mut client, &mut server, 0);
        let sh = server.take_accepted()[0];

        // Take the data packet the client wants to send and fragment it.
        client.socket(ch).send(b"GET /fragmented HTTP/1.1\r\n\r\n", 1_000);
        let wires = client.poll_transmit();
        assert_eq!(wires.len(), 1);
        let frags = intang_packet::frag::fragment_at(&wires[0], &[16]);
        assert!(frags.len() >= 2);
        for f in frags {
            server.on_packet(f, 1_000);
        }
        assert_eq!(server.socket(sh).recv_drain(), b"GET /fragmented HTTP/1.1\r\n\r\n");
    }
}
