//! The per-connection TCP state machine.
//!
//! Receive-side processing mirrors the ordered checks of the Linux receive
//! path (`tcp_v4_rcv` → `tcp_validate_incoming` → `tcp_rcv_state_process`),
//! with every discard instrumented as an ignore path (§5.3). The knobs that
//! differ across kernel versions come from [`StackProfile`].

use crate::ignore::{IgnoreLog, IgnoreReason};
use crate::profile::{RstPolicy, StackProfile, SynInEstablished};
use crate::reasm::Assembler;
use intang_packet::tcp::{seq, TcpFlags, TcpOption, TcpRepr};
use intang_packet::FourTuple;

/// Simulation time handle (microseconds), kept as a bare integer so this
/// crate stays independent of the simulator.
pub type Micros = u64;

/// Connection states (RFC 793). LISTEN lives at the endpoint, not here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TcpState {
    SynSent,
    SynRecv,
    Established,
    FinWait1,
    FinWait2,
    CloseWait,
    LastAck,
    Closing,
    TimeWait,
    Closed,
}

impl TcpState {
    pub fn can_receive_data(self) -> bool {
        matches!(
            self,
            TcpState::SynRecv | TcpState::Established | TcpState::FinWait1 | TcpState::FinWait2
        )
    }
}

/// The receive window we always advertise.
pub const RECV_WINDOW: u16 = 65_535;

/// Initial retransmission timeout (RFC 6298: 1 second, like Linux).
const RTO_INITIAL: Micros = 1_000_000;
/// Give up after this many retransmissions of one segment (Linux's
/// tcp_syn_retries default is 6).
const MAX_RETRIES: u32 = 6;
/// TIME_WAIT linger (drastically shortened 2MSL — fine for short trials).
const TIME_WAIT_LINGER: Micros = 1_000_000;

/// One TCP connection.
#[derive(Debug)]
pub struct Socket {
    /// Local view of the flow: `src` is this host.
    pub tuple: FourTuple,
    pub state: TcpState,
    profile: StackProfile,

    // Send state.
    iss: u32,
    snd_una: u32,
    snd_nxt: u32,
    /// Bytes accepted from the app but not yet segmented.
    send_queue: Vec<u8>,
    /// Bytes sent but unacknowledged; base sequence is `snd_una`.
    unacked: Vec<u8>,
    fin_queued: bool,
    fin_sent: bool,

    // Receive state.
    irs: u32,
    rcv_nxt: u32,
    asm: Assembler,
    recv_buf: Vec<u8>,
    /// Peer sent FIN and we consumed it.
    peer_closed: bool,

    // PAWS.
    ts_recent: Option<u32>,
    use_timestamps: bool,

    // Timers.
    rto: Micros,
    rto_deadline: Option<Micros>,
    retries: u32,
    time_wait_deadline: Option<Micros>,

    /// True when the connection died on an incoming RST.
    pub reset_by_peer: bool,
    /// Segments queued for transmission (drained by the endpoint).
    pub out: Vec<TcpRepr>,
    /// Which of the four buffers are still leased from the thread-local
    /// pools (`LEASE_*` bits): each goes back exactly once, either early
    /// through [`Socket::release_idle_buffers`] or on drop.
    leased: u8,
}

const LEASE_SEND: u8 = 1;
const LEASE_UNACKED: u8 = 2;
const LEASE_RECV: u8 = 4;
const LEASE_OUT: u8 = 8;

/// Return `buf` to its pool if its `bit` is still leased and, unless
/// `even_if_full`, it holds nothing.
fn give_back<T>(leased: &mut u8, bit: u8, buf: &mut Vec<T>, even_if_full: bool, put: fn(Vec<T>)) {
    if *leased & bit != 0 && (even_if_full || buf.is_empty()) {
        *leased &= !bit;
        put(std::mem::take(buf));
    }
}

impl Drop for Socket {
    fn drop(&mut self) {
        // Recycle the queue storage (and the queued reprs) through the
        // thread-local pools: sweeps build several sockets per trial and
        // the buffers only ever need capacity, not contents.
        self.give_back_buffers(true);
    }
}

impl Socket {
    /// Client side: create and emit the initial SYN.
    pub fn connect(tuple: FourTuple, iss: u32, profile: StackProfile, now: Micros) -> Socket {
        let mut s = Socket::raw(tuple, iss, profile);
        s.state = TcpState::SynSent;
        let mut syn = s.segment(TcpFlags::SYN, iss, 0, now);
        syn.options.insert(0, TcpOption::Mss(profile.mss as u16));
        s.out.push(syn);
        s.snd_nxt = iss.wrapping_add(1);
        s.arm_rto(now);
        s
    }

    /// Server side: a SYN arrived at a listener; reply SYN/ACK.
    pub fn accept(tuple: FourTuple, iss: u32, remote_isn: u32, remote_ts: Option<u32>, profile: StackProfile, now: Micros) -> Socket {
        let mut s = Socket::raw(tuple, iss, profile);
        s.state = TcpState::SynRecv;
        s.irs = remote_isn;
        s.rcv_nxt = remote_isn.wrapping_add(1);
        s.ts_recent = remote_ts;
        let mut synack = s.segment(TcpFlags::SYN_ACK, iss, s.rcv_nxt, now);
        synack.options.insert(0, TcpOption::Mss(profile.mss as u16));
        s.out.push(synack);
        s.snd_nxt = iss.wrapping_add(1);
        s.arm_rto(now);
        s
    }

    fn raw(tuple: FourTuple, iss: u32, profile: StackProfile) -> Socket {
        Socket {
            tuple,
            state: TcpState::Closed,
            profile,
            iss,
            snd_una: iss,
            snd_nxt: iss,
            send_queue: crate::pool::take_bytes(),
            unacked: crate::pool::take_bytes(),
            fin_queued: false,
            fin_sent: false,
            irs: 0,
            rcv_nxt: 0,
            asm: Assembler::new(profile.overlap_policy),
            recv_buf: crate::pool::take_bytes(),
            peer_closed: false,
            ts_recent: None,
            use_timestamps: true,
            rto: RTO_INITIAL,
            rto_deadline: None,
            retries: 0,
            time_wait_deadline: None,
            reset_by_peer: false,
            out: crate::pool::take_seg_queue(),
            leased: LEASE_SEND | LEASE_UNACKED | LEASE_RECV | LEASE_OUT,
        }
    }

    fn give_back_buffers(&mut self, even_if_full: bool) {
        let l = &mut self.leased;
        give_back(l, LEASE_OUT, &mut self.out, even_if_full, crate::pool::put_seg_queue);
        give_back(l, LEASE_SEND, &mut self.send_queue, even_if_full, crate::pool::put_bytes);
        give_back(l, LEASE_UNACKED, &mut self.unacked, even_if_full, crate::pool::put_bytes);
        give_back(l, LEASE_RECV, &mut self.recv_buf, even_if_full, crate::pool::put_bytes);
    }

    /// Hand every empty buffer back to the thread-local pools. The endpoint
    /// calls this on a CLOSED socket once its last segments are flushed: a
    /// dead socket never transmits again, yet it keeps its table slot until
    /// the slot is reused or the endpoint is dropped. (A never-served
    /// metropolis server cell does not wait out its backstop with one: once
    /// the endpoint is quiet the cell keeps only its
    /// [`crate::QuietEndpoint`] snapshot.) A buffer still holding unread
    /// data stays until a later flush finds it empty.
    pub(crate) fn release_idle_buffers(&mut self) {
        if self.leased != 0 {
            self.give_back_buffers(false);
        }
    }

    /// Bytes of capacity held by the send, unacked, receive and segment
    /// buffers.
    pub fn buffer_capacity(&self) -> usize {
        self.send_queue.capacity()
            + self.unacked.capacity()
            + self.recv_buf.capacity()
            + self.out.capacity() * std::mem::size_of::<TcpRepr>()
    }

    // ------------------------------------------------------------------
    // App-facing API.
    // ------------------------------------------------------------------

    /// Queue bytes for transmission.
    pub fn send(&mut self, data: &[u8], now: Micros) {
        self.send_queue.extend_from_slice(data);
        self.flush(now);
    }

    /// Read everything received so far.
    pub fn recv_drain(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.recv_buf)
    }

    /// Append everything received so far to `out` — the allocation-free
    /// drain: the socket's receive buffer keeps its capacity and the app
    /// accumulates into a buffer it already owns.
    pub fn drain_recv_into(&mut self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.recv_buf);
        self.recv_buf.clear();
    }

    /// Discard everything received so far, returning how many bytes there
    /// were. For apps that only count bytes (keeps the buffer's capacity,
    /// unlike `recv_drain().len()`).
    pub fn recv_discard(&mut self) -> usize {
        let n = self.recv_buf.len();
        self.recv_buf.clear();
        n
    }

    /// Bytes available without draining.
    pub fn recv_len(&self) -> usize {
        self.recv_buf.len()
    }

    /// Graceful close: send FIN once all queued data is out.
    pub fn close(&mut self, now: Micros) {
        self.fin_queued = true;
        self.flush(now);
    }

    pub fn is_established(&self) -> bool {
        self.state == TcpState::Established
    }

    pub fn is_closed(&self) -> bool {
        self.state == TcpState::Closed
    }

    /// Peer closed its direction and everything was read.
    pub fn peer_closed(&self) -> bool {
        self.peer_closed
    }

    pub fn state(&self) -> TcpState {
        self.state
    }

    pub fn snd_nxt(&self) -> u32 {
        self.snd_nxt
    }

    pub fn rcv_nxt(&self) -> u32 {
        self.rcv_nxt
    }

    pub fn iss(&self) -> u32 {
        self.iss
    }

    pub fn irs(&self) -> u32 {
        self.irs
    }

    // ------------------------------------------------------------------
    // Segment construction.
    // ------------------------------------------------------------------

    fn segment(&self, flags: TcpFlags, seqno: u32, ack: u32, now: Micros) -> TcpRepr {
        let mut repr = crate::pool::take_repr(self.tuple.src_port, self.tuple.dst_port);
        repr.seq = seqno;
        repr.ack = ack;
        repr.flags = flags;
        repr.window = RECV_WINDOW;
        if self.use_timestamps {
            repr.options.push(TcpOption::Timestamps {
                tsval: (now / 1_000) as u32,
                tsecr: self.ts_recent.unwrap_or(0),
            });
        }
        repr
    }

    fn emit_ack(&mut self, now: Micros) {
        let seg = self.segment(TcpFlags::ACK, self.snd_nxt, self.rcv_nxt, now);
        self.out.push(seg);
    }

    fn emit_rst(&mut self, seqno: u32, ack: Option<u32>, now: Micros) {
        let (flags, ackno) = match ack {
            Some(a) => (TcpFlags::RST_ACK, a),
            None => (TcpFlags::RST, 0),
        };
        let mut seg = self.segment(flags, seqno, ackno, now);
        seg.options.clear(); // RSTs go bare
        self.out.push(seg);
    }

    /// Move queued bytes onto the wire as MSS-sized segments. In SYN_SENT /
    /// SYN_RECV the data queues silently and flows once established.
    fn flush(&mut self, now: Micros) {
        let mss = self.profile.mss;
        while !self.send_queue.is_empty() && matches!(self.state, TcpState::Established | TcpState::CloseWait) {
            let take = self.send_queue.len().min(mss);
            let mut seg = self.segment(TcpFlags::PSH_ACK, self.snd_nxt, self.rcv_nxt, now);
            seg.payload.extend_from_slice(&self.send_queue[..take]);
            self.send_queue.drain(..take);
            self.unacked.extend_from_slice(&seg.payload);
            self.out.push(seg);
            self.snd_nxt = self.snd_nxt.wrapping_add(take as u32);
            self.arm_rto(now);
        }
        if self.fin_queued && !self.fin_sent && self.send_queue.is_empty() {
            match self.state {
                TcpState::Established | TcpState::SynRecv => {
                    let seg = self.segment(TcpFlags::FIN_ACK, self.snd_nxt, self.rcv_nxt, now);
                    self.out.push(seg);
                    self.snd_nxt = self.snd_nxt.wrapping_add(1);
                    self.fin_sent = true;
                    self.state = TcpState::FinWait1;
                    self.arm_rto(now);
                }
                TcpState::CloseWait => {
                    let seg = self.segment(TcpFlags::FIN_ACK, self.snd_nxt, self.rcv_nxt, now);
                    self.out.push(seg);
                    self.snd_nxt = self.snd_nxt.wrapping_add(1);
                    self.fin_sent = true;
                    self.state = TcpState::LastAck;
                    self.arm_rto(now);
                }
                _ => {}
            }
        }
    }

    // ------------------------------------------------------------------
    // Timers.
    // ------------------------------------------------------------------

    fn arm_rto(&mut self, now: Micros) {
        self.rto_deadline = Some(now + self.rto);
    }

    fn disarm_rto(&mut self) {
        self.rto_deadline = None;
        self.retries = 0;
        self.rto = RTO_INITIAL;
    }

    /// Earliest time this socket needs a timer tick.
    pub fn next_deadline(&self) -> Option<Micros> {
        match (self.rto_deadline, self.time_wait_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }

    /// Advance timers; retransmit or expire as needed.
    pub fn on_timer(&mut self, now: Micros) {
        if let Some(tw) = self.time_wait_deadline {
            if now >= tw {
                self.state = TcpState::Closed;
                self.time_wait_deadline = None;
            }
        }
        let Some(deadline) = self.rto_deadline else { return };
        if now < deadline {
            return;
        }
        self.retries += 1;
        if self.retries > MAX_RETRIES {
            self.state = TcpState::Closed;
            self.rto_deadline = None;
            return;
        }
        self.rto = self.rto.saturating_mul(2);
        self.rto_deadline = Some(now + self.rto);
        // Retransmit the oldest outstanding item.
        match self.state {
            TcpState::SynSent => {
                let mut syn = self.segment(TcpFlags::SYN, self.iss, 0, now);
                syn.options.insert(0, TcpOption::Mss(self.profile.mss as u16));
                self.out.push(syn);
            }
            TcpState::SynRecv => {
                let mut synack = self.segment(TcpFlags::SYN_ACK, self.iss, self.rcv_nxt, now);
                synack.options.insert(0, TcpOption::Mss(self.profile.mss as u16));
                self.out.push(synack);
            }
            _ => {
                if !self.unacked.is_empty() {
                    let take = self.unacked.len().min(self.profile.mss);
                    let mut seg = self.segment(TcpFlags::PSH_ACK, self.snd_una, self.rcv_nxt, now);
                    seg.payload = self.unacked[..take].to_vec();
                    self.out.push(seg);
                } else if self.fin_sent && seq::lt(self.snd_una, self.snd_nxt) {
                    let seg = self.segment(TcpFlags::FIN_ACK, self.snd_nxt.wrapping_sub(1), self.rcv_nxt, now);
                    self.out.push(seg);
                } else {
                    self.disarm_rto();
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Receive path.
    // ------------------------------------------------------------------

    /// Process one segment addressed to this socket. The endpoint has
    /// already validated IP total length, TCP header length and checksum.
    pub fn process(&mut self, seg: &TcpRepr, now: Micros, log: &mut IgnoreLog) {
        // MD5 option check (Linux `tcp_v4_inbound_md5_hash`): an unsolicited
        // signature option drops the segment before any state processing.
        if self.profile.md5_check && seg.options.iter().any(|o| matches!(o, TcpOption::Md5Sig(_))) {
            log.record(IgnoreReason::Md5Unexpected, Some(self.tuple.reversed()));
            return;
        }

        match self.state {
            TcpState::SynSent => self.process_syn_sent(seg, now, log),
            TcpState::SynRecv => self.process_syn_recv(seg, now, log),
            TcpState::Closed | TcpState::TimeWait => {
                log.record(IgnoreReason::WrongState, Some(self.tuple.reversed()));
            }
            _ => self.process_synchronized(seg, now, log),
        }
    }

    fn process_syn_sent(&mut self, seg: &TcpRepr, now: Micros, log: &mut IgnoreLog) {
        if seg.flags.rst() {
            // Acceptable only if it acks our SYN.
            if seg.flags.ack() && seg.ack == self.snd_nxt {
                self.state = TcpState::Closed;
                self.reset_by_peer = true;
                self.disarm_rto();
            } else {
                log.record(IgnoreReason::RstOutOfWindow, Some(self.tuple.reversed()));
            }
            return;
        }
        if seg.flags.syn() && seg.flags.ack() {
            if seg.ack != self.iss.wrapping_add(1) {
                // RFC 793: reply RST (seq = seg.ack) and stay in SYN_SENT.
                log.record(IgnoreReason::BadSynAckAck, Some(self.tuple.reversed()));
                self.emit_rst(seg.ack, None, now);
                return;
            }
            self.irs = seg.seq;
            self.rcv_nxt = seg.seq.wrapping_add(1);
            self.snd_una = seg.ack;
            if let Some((tsval, _)) = timestamps_of(seg) {
                self.ts_recent = Some(tsval);
            }
            self.state = TcpState::Established;
            self.disarm_rto();
            self.emit_ack(now);
            self.flush(now);
            return;
        }
        log.record(IgnoreReason::WrongState, Some(self.tuple.reversed()));
    }

    fn process_syn_recv(&mut self, seg: &TcpRepr, now: Micros, log: &mut IgnoreLog) {
        // PAWS applies before ACK processing (tcp_rcv_state_process): an
        // old-timestamp segment leaves the SYN_RECV state untouched
        // (Table 3, last row).
        if self.profile.paws && !seg.flags.rst() {
            if let (Some(recent), Some((tsval, _))) = (self.ts_recent, timestamps_of(seg)) {
                if recent.wrapping_sub(tsval) < 0x8000_0000 && recent != tsval {
                    log.record(IgnoreReason::PawsOldTimestamp, Some(self.tuple.reversed()));
                    self.emit_ack(now);
                    return;
                }
            }
        }
        if seg.flags.rst() {
            // Table 3: in SYN_RECV, an RST/ACK with a *wrong acknowledgment
            // number* is ignored.
            if seg.flags.ack() && self.profile.validate_ack_number && seg.ack != self.snd_nxt {
                log.record(IgnoreReason::BadAckNumber, Some(self.tuple.reversed()));
                return;
            }
            let acceptable = match self.profile.rst_policy {
                RstPolicy::Rfc5961 => seg.seq == self.rcv_nxt,
                RstPolicy::InWindow => seq::in_window(seg.seq, self.rcv_nxt, u32::from(RECV_WINDOW)),
            };
            if acceptable {
                self.state = TcpState::Closed;
                self.reset_by_peer = true;
                self.disarm_rto();
            } else {
                log.record(IgnoreReason::RstOutOfWindow, Some(self.tuple.reversed()));
            }
            return;
        }
        if seg.flags.syn() && !seg.flags.ack() {
            // Duplicate SYN: retransmit the SYN/ACK.
            let mut synack = self.segment(TcpFlags::SYN_ACK, self.iss, self.rcv_nxt, now);
            synack.options.insert(0, TcpOption::Mss(self.profile.mss as u16));
            self.out.push(synack);
            return;
        }
        if !seg.flags.ack() {
            log.record(
                if seg.flags.is_empty() {
                    IgnoreReason::NoFlags
                } else {
                    IgnoreReason::NoAckFlag
                },
                Some(self.tuple.reversed()),
            );
            return;
        }
        if self.profile.validate_ack_number && seg.ack != self.snd_nxt {
            // Table 3: ACK with wrong acknowledgment number in SYN_RECV.
            log.record(IgnoreReason::BadAckNumber, Some(self.tuple.reversed()));
            return;
        }
        self.snd_una = seg.ack;
        self.state = TcpState::Established;
        self.disarm_rto();
        // The handshake-completing ACK may carry data; process it fully.
        if !seg.payload.is_empty() || seg.flags.fin() {
            self.process_synchronized(seg, now, log);
        }
        self.flush(now);
    }

    /// ESTABLISHED and the closing states that still accept segments.
    fn process_synchronized(&mut self, seg: &TcpRepr, now: Micros, log: &mut IgnoreLog) {
        let peer = Some(self.tuple.reversed());

        // --- no-flag segments -------------------------------------------
        if seg.flags.is_empty() {
            // Pre-3.8 oddity (§3.4), and any kernel that doesn't insist on
            // the ACK flag (§5.3: 2.6.34 / 2.4.37 accept ACK-less data —
            // no flags at all included).
            let accepts = self.profile.accept_no_flag_data || !self.profile.require_ack_flag;
            if accepts && !seg.payload.is_empty() {
                self.accept_payload(seg, now);
            } else {
                log.record(IgnoreReason::NoFlags, peer);
            }
            return;
        }

        // --- PAWS (RFC 7323) ---------------------------------------------
        if self.profile.paws && !seg.flags.rst() {
            if let (Some(recent), Some((tsval, _))) = (self.ts_recent, timestamps_of(seg)) {
                // "Older" with wraparound, as tcp_paws_check does.
                if recent.wrapping_sub(tsval) < 0x8000_0000 && recent != tsval {
                    log.record(IgnoreReason::PawsOldTimestamp, peer);
                    self.emit_ack(now);
                    return;
                }
            }
        }

        // --- RST ----------------------------------------------------------
        if seg.flags.rst() {
            match self.profile.rst_policy {
                RstPolicy::Rfc5961 => {
                    if seg.seq == self.rcv_nxt {
                        self.enter_reset();
                    } else if seq::in_window(seg.seq, self.rcv_nxt, u32::from(RECV_WINDOW)) {
                        log.record(IgnoreReason::RstChallenged, peer);
                        self.emit_ack(now);
                    } else {
                        log.record(IgnoreReason::RstOutOfWindow, peer);
                    }
                }
                RstPolicy::InWindow => {
                    if seq::in_window(seg.seq, self.rcv_nxt, u32::from(RECV_WINDOW)) {
                        self.enter_reset();
                    } else {
                        log.record(IgnoreReason::RstOutOfWindow, peer);
                    }
                }
            }
            return;
        }

        // --- SYN in a synchronized state -----------------------------------
        if seg.flags.syn() {
            match self.profile.syn_in_established {
                SynInEstablished::ChallengeAck => {
                    log.record(IgnoreReason::SynInEstablished, peer);
                    self.emit_ack(now);
                }
                SynInEstablished::Ignore => {
                    log.record(IgnoreReason::SynInEstablished, peer);
                }
                SynInEstablished::Reset => {
                    if seq::in_window(seg.seq, self.rcv_nxt, u32::from(RECV_WINDOW)) {
                        self.emit_rst(self.snd_nxt, None, now);
                        self.enter_reset();
                    } else {
                        log.record(IgnoreReason::SynInEstablished, peer);
                    }
                }
            }
            return;
        }

        // --- FIN without ACK ------------------------------------------------
        if seg.flags.fin() && !seg.flags.ack() && self.profile.require_ack_flag {
            log.record(IgnoreReason::FinWithoutAck, peer);
            return;
        }

        // --- ACK-less data ---------------------------------------------------
        if !seg.flags.ack() && self.profile.require_ack_flag {
            log.record(IgnoreReason::NoAckFlag, peer);
            return;
        }

        // --- ACK validation (tcp_ack): a future ACK discards the segment ----
        if seg.flags.ack() && self.profile.validate_ack_number && seq::gt(seg.ack, self.snd_nxt) {
            log.record(IgnoreReason::BadAckNumber, peer);
            self.emit_ack(now);
            return;
        }

        // --- Sequence window check -------------------------------------------
        let seg_len = seg.payload.len() as u32 + u32::from(seg.flags.fin());
        if seg_len > 0 {
            let seg_end = seg.seq.wrapping_add(seg_len);
            let window_end = self.rcv_nxt.wrapping_add(u32::from(RECV_WINDOW));
            let entirely_old = seq::le(seg_end, self.rcv_nxt);
            let beyond_window = seq::ge(seg.seq, window_end);
            if entirely_old || beyond_window {
                log.record(IgnoreReason::OutOfWindowSeq, peer);
                self.emit_ack(now); // duplicate ACK
                return;
            }
        }

        // --- Accept: ACK bookkeeping ------------------------------------------
        if seg.flags.ack() {
            self.handle_ack(seg.ack);
        }

        // --- Timestamp bookkeeping ---------------------------------------------
        if let Some((tsval, _)) = timestamps_of(seg) {
            if seq::le(seg.seq, self.rcv_nxt) {
                let newer = self.ts_recent.is_none_or(|r| tsval.wrapping_sub(r) < 0x8000_0000);
                if newer {
                    self.ts_recent = Some(tsval);
                }
            }
        }

        // --- Payload + FIN -------------------------------------------------------
        if seg_len > 0 {
            self.accept_payload(seg, now);
        } else if seg.flags.ack() && self.fin_sent {
            self.advance_close_states();
        }
    }

    fn handle_ack(&mut self, ack: u32) {
        if seq::gt(ack, self.snd_una) {
            let advanced = ack.wrapping_sub(self.snd_una) as usize;
            let data_acked = advanced.min(self.unacked.len());
            self.unacked.drain(..data_acked);
            self.snd_una = ack;
            if self.snd_una == self.snd_nxt {
                self.disarm_rto();
            }
        }
        if self.fin_sent && seq::ge(self.snd_una, self.snd_nxt) {
            self.advance_close_states();
        }
    }

    /// Our FIN has been acknowledged: advance through the closing states.
    fn advance_close_states(&mut self) {
        match self.state {
            TcpState::FinWait1 => self.state = TcpState::FinWait2,
            TcpState::Closing => self.enter_time_wait(),
            TcpState::LastAck => {
                self.state = TcpState::Closed;
                self.disarm_rto();
            }
            _ => {}
        }
    }

    fn enter_time_wait(&mut self) {
        self.state = TcpState::TimeWait;
        self.disarm_rto();
        // The expiry is armed by `schedule_time_wait`, which the endpoint
        // calls right after processing (it knows the current time).
    }

    fn enter_reset(&mut self) {
        self.state = TcpState::Closed;
        self.reset_by_peer = true;
        self.disarm_rto();
    }

    /// Insert payload (and FIN edge) into the receive stream.
    fn accept_payload(&mut self, seg: &TcpRepr, now: Micros) {
        if !self.state.can_receive_data() {
            return;
        }
        let base = self.irs.wrapping_add(1);
        if !seg.payload.is_empty() {
            let rel = seg.seq.wrapping_sub(base) as u64;
            self.asm.insert(rel, &seg.payload);
            self.asm.pull_into(&mut self.recv_buf);
            self.rcv_nxt = base.wrapping_add(self.asm.head() as u32);
        }
        if seg.flags.fin() {
            let fin_seq = seg.seq.wrapping_add(seg.payload.len() as u32);
            // Accept the FIN only when it lands exactly in order.
            if fin_seq == self.rcv_nxt {
                self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
                self.peer_closed = true;
                match self.state {
                    TcpState::Established | TcpState::SynRecv => self.state = TcpState::CloseWait,
                    TcpState::FinWait1 => {
                        if self.fin_sent && seq::ge(self.snd_una, self.snd_nxt) {
                            self.enter_time_wait();
                        } else {
                            self.state = TcpState::Closing;
                        }
                    }
                    TcpState::FinWait2 => self.enter_time_wait(),
                    _ => {}
                }
            }
        }
        self.emit_ack(now);
    }

    /// Give TIME_WAIT sockets a real expiry time (endpoint calls this when
    /// it observes the transition).
    pub fn schedule_time_wait(&mut self, now: Micros) {
        if self.state == TcpState::TimeWait && self.time_wait_deadline.is_none() {
            self.time_wait_deadline = Some(now + TIME_WAIT_LINGER);
        }
    }
}

/// Extract (tsval, tsecr) from a parsed segment.
pub fn timestamps_of(seg: &TcpRepr) -> Option<(u32, u32)> {
    seg.options.iter().find_map(|o| match o {
        TcpOption::Timestamps { tsval, tsecr } => Some((*tsval, *tsecr)),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn tuple() -> FourTuple {
        FourTuple::new(Ipv4Addr::new(10, 0, 0, 1), 40000, Ipv4Addr::new(10, 0, 0, 2), 80)
    }

    fn p44() -> StackProfile {
        StackProfile::linux_4_4()
    }

    /// Drive two sockets against each other until quiescent; returns the
    /// number of segments exchanged.
    fn pump(a: &mut Socket, b: &mut Socket, now: Micros) -> usize {
        let mut n = 0;
        let mut log = IgnoreLog::default();
        loop {
            let from_a = std::mem::take(&mut a.out);
            let from_b = std::mem::take(&mut b.out);
            if from_a.is_empty() && from_b.is_empty() {
                break;
            }
            for seg in from_a {
                n += 1;
                b.process(&seg, now, &mut log);
            }
            for seg in from_b {
                n += 1;
                a.process(&seg, now, &mut log);
            }
        }
        n
    }

    fn established_pair() -> (Socket, Socket) {
        let t = tuple();
        let mut client = Socket::connect(t, 1000, p44(), 0);
        let syn = client.out.remove(0);
        let mut server = Socket::accept(t.reversed(), 5000, syn.seq, timestamps_of(&syn).map(|x| x.0), p44(), 0);
        pump(&mut client, &mut server, 0);
        assert!(client.is_established());
        assert!(server.is_established());
        (client, server)
    }

    #[test]
    fn three_way_handshake() {
        let (c, s) = established_pair();
        assert_eq!(c.snd_nxt(), 1001);
        assert_eq!(s.rcv_nxt(), 1001);
        assert_eq!(s.snd_nxt(), 5001);
        assert_eq!(c.rcv_nxt(), 5001);
    }

    #[test]
    fn data_transfer_both_ways() {
        let (mut c, mut s) = established_pair();
        c.send(b"GET / HTTP/1.1\r\n\r\n", 1_000);
        pump(&mut c, &mut s, 1_000);
        assert_eq!(s.recv_drain(), b"GET / HTTP/1.1\r\n\r\n");
        s.send(b"HTTP/1.1 200 OK\r\n\r\n", 2_000);
        pump(&mut c, &mut s, 2_000);
        assert_eq!(c.recv_drain(), b"HTTP/1.1 200 OK\r\n\r\n");
    }

    #[test]
    fn large_send_segments_at_mss() {
        let (mut c, mut s) = established_pair();
        let data = vec![0x41u8; 4000];
        c.send(&data, 1_000);
        let seg_lens: Vec<usize> = c.out.iter().map(|x| x.payload.len()).collect();
        assert_eq!(seg_lens, vec![1460, 1460, 1080]);
        pump(&mut c, &mut s, 1_000);
        assert_eq!(s.recv_drain(), data);
    }

    #[test]
    fn graceful_close_four_way() {
        let (mut c, mut s) = established_pair();
        c.close(1_000);
        pump(&mut c, &mut s, 1_000);
        assert!(s.peer_closed());
        assert_eq!(s.state(), TcpState::CloseWait);
        s.close(2_000);
        pump(&mut c, &mut s, 2_000);
        assert_eq!(s.state(), TcpState::Closed);
        assert_eq!(c.state(), TcpState::TimeWait);
        c.schedule_time_wait(2_000);
        c.on_timer(2_000 + 2_000_000);
        assert_eq!(c.state(), TcpState::Closed);
    }

    #[test]
    fn rst_exact_seq_resets_rfc5961() {
        let (mut c, _s) = established_pair();
        let mut rst = TcpRepr::new(80, 40000);
        rst.flags = TcpFlags::RST;
        rst.seq = c.rcv_nxt();
        let mut log = IgnoreLog::default();
        c.process(&rst, 1_000, &mut log);
        assert!(c.is_closed());
        assert!(c.reset_by_peer);
    }

    #[test]
    fn rst_in_window_challenged_rfc5961() {
        let (mut c, _s) = established_pair();
        let mut rst = TcpRepr::new(80, 40000);
        rst.flags = TcpFlags::RST;
        rst.seq = c.rcv_nxt().wrapping_add(100); // in-window but not exact
        let mut log = IgnoreLog::default();
        c.process(&rst, 1_000, &mut log);
        assert!(!c.is_closed());
        assert!(log.contains(IgnoreReason::RstChallenged));
        assert_eq!(c.out.len(), 1, "challenge ACK emitted");
        assert!(c.out[0].flags.ack());
    }

    #[test]
    fn rst_in_window_resets_old_linux() {
        let t = tuple();
        let mut client = Socket::connect(t, 1000, StackProfile::linux_2_4_37(), 0);
        let syn = client.out.remove(0);
        let mut server = Socket::accept(t.reversed(), 5000, syn.seq, None, StackProfile::linux_2_4_37(), 0);
        pump(&mut client, &mut server, 0);
        let mut rst = TcpRepr::new(80, 40000);
        rst.flags = TcpFlags::RST;
        rst.seq = client.rcv_nxt().wrapping_add(100);
        let mut log = IgnoreLog::default();
        client.process(&rst, 1_000, &mut log);
        assert!(client.is_closed(), "classic stacks accept any in-window RST");
    }

    #[test]
    fn md5_option_segment_ignored() {
        let (mut s, _c) = established_pair();
        let mut seg = TcpRepr::new(80, 40000);
        seg.flags = TcpFlags::PSH_ACK;
        seg.seq = s.rcv_nxt();
        seg.ack = s.snd_nxt();
        seg.payload = b"evil".to_vec();
        seg.options.push(TcpOption::Md5Sig([0; 16]));
        let mut log = IgnoreLog::default();
        s.process(&seg, 1_000, &mut log);
        assert!(log.contains(IgnoreReason::Md5Unexpected));
        assert_eq!(s.recv_len(), 0);
        assert_eq!(s.rcv_nxt(), seg.seq, "state unchanged");
    }

    #[test]
    fn md5_option_accepted_by_2_4_37() {
        let t = tuple();
        let prof = StackProfile::linux_2_4_37();
        let mut client = Socket::connect(t, 1000, prof, 0);
        let syn = client.out.remove(0);
        let mut server = Socket::accept(t.reversed(), 5000, syn.seq, None, prof, 0);
        pump(&mut client, &mut server, 0);
        let mut seg = TcpRepr::new(40000, 80);
        seg.flags = TcpFlags::PSH_ACK;
        seg.seq = server.rcv_nxt();
        seg.ack = server.snd_nxt();
        seg.payload = b"data".to_vec();
        seg.options.push(TcpOption::Md5Sig([0; 16]));
        let mut log = IgnoreLog::default();
        server.process(&seg, 1_000, &mut log);
        assert_eq!(server.recv_drain(), b"data", "2.4.37 has no MD5 check");
    }

    #[test]
    fn no_flag_data_ignored_modern_accepted_pre38() {
        for (prof, accepted) in [(p44(), false), (StackProfile::linux_pre_3_8(), true)] {
            let t = tuple();
            let mut client = Socket::connect(t, 1000, prof, 0);
            let syn = client.out.remove(0);
            let mut server = Socket::accept(t.reversed(), 5000, syn.seq, None, prof, 0);
            pump(&mut client, &mut server, 0);
            let mut seg = TcpRepr::new(40000, 80);
            seg.flags = TcpFlags::NONE;
            seg.seq = server.rcv_nxt();
            seg.payload = b"x".to_vec();
            let mut log = IgnoreLog::default();
            server.process(&seg, 1_000, &mut log);
            assert_eq!(server.recv_len() > 0, accepted, "{:?}", prof.version);
        }
    }

    #[test]
    fn future_ack_discards_data_segment() {
        let (mut s, _c) = established_pair();
        let mut seg = TcpRepr::new(80, 40000);
        seg.flags = TcpFlags::PSH_ACK;
        seg.seq = s.rcv_nxt();
        seg.ack = s.snd_nxt().wrapping_add(10_000); // acks unsent data
        seg.payload = b"junk".to_vec();
        let mut log = IgnoreLog::default();
        s.process(&seg, 1_000, &mut log);
        assert!(log.contains(IgnoreReason::BadAckNumber));
        assert_eq!(s.recv_len(), 0);
    }

    #[test]
    fn old_timestamp_discarded_by_paws() {
        let (mut c, mut s) = established_pair();
        // Seed ts_recent with a current segment.
        c.send(b"a", 5_000_000);
        pump(&mut c, &mut s, 5_000_000);
        assert_eq!(s.recv_drain(), b"a");
        let mut seg = TcpRepr::new(40000, 80);
        seg.flags = TcpFlags::PSH_ACK;
        seg.seq = s.rcv_nxt();
        seg.ack = s.snd_nxt();
        seg.payload = b"old".to_vec();
        seg.options.push(TcpOption::Timestamps { tsval: 1, tsecr: 0 }); // ancient
        let mut log = IgnoreLog::default();
        s.process(&seg, 6_000_000, &mut log);
        assert!(log.contains(IgnoreReason::PawsOldTimestamp));
        assert_eq!(s.recv_len(), 0);
    }

    #[test]
    fn out_of_window_data_gets_dup_ack() {
        let (mut s, _c) = established_pair();
        let mut seg = TcpRepr::new(80, 40000);
        seg.flags = TcpFlags::PSH_ACK;
        seg.seq = s.rcv_nxt().wrapping_add(200_000); // far beyond window
        seg.ack = s.snd_nxt();
        seg.payload = b"way out".to_vec();
        let mut log = IgnoreLog::default();
        let before = s.rcv_nxt();
        s.process(&seg, 1_000, &mut log);
        assert!(log.contains(IgnoreReason::OutOfWindowSeq));
        assert_eq!(s.rcv_nxt(), before);
        assert!(s.out.iter().any(|x| x.flags.ack()), "duplicate ACK sent");
    }

    #[test]
    fn syn_in_established_behaviors() {
        for (prof, expect_reset, expect_ack) in [
            (p44(), false, true),
            (StackProfile::linux_3_14(), false, false),
            (StackProfile::linux_2_4_37(), true, false),
        ] {
            let t = tuple();
            let mut client = Socket::connect(t, 1000, prof, 0);
            let syn = client.out.remove(0);
            let mut server = Socket::accept(t.reversed(), 5000, syn.seq, None, prof, 0);
            pump(&mut client, &mut server, 0);
            let mut seg = TcpRepr::new(40000, 80);
            seg.flags = TcpFlags::SYN;
            seg.seq = server.rcv_nxt(); // in-window
            let mut log = IgnoreLog::default();
            server.process(&seg, 1_000, &mut log);
            assert_eq!(server.is_closed(), expect_reset, "{:?}", prof.version);
            if expect_ack {
                assert!(server.out.iter().any(|x| x.flags.ack() && !x.flags.rst()));
            }
        }
    }

    #[test]
    fn fin_only_ignored_by_modern_stack() {
        let (mut s, _c) = established_pair();
        let mut seg = TcpRepr::new(80, 40000);
        seg.flags = TcpFlags::FIN;
        seg.seq = s.rcv_nxt();
        let mut log = IgnoreLog::default();
        s.process(&seg, 1_000, &mut log);
        assert!(log.contains(IgnoreReason::FinWithoutAck));
        assert!(!s.peer_closed());
    }

    #[test]
    fn retransmission_on_timeout() {
        let t = tuple();
        let mut client = Socket::connect(t, 1000, p44(), 0);
        client.out.clear(); // drop the SYN on the floor
        assert!(client.next_deadline().is_some());
        client.on_timer(RTO_INITIAL + 1);
        assert_eq!(client.out.len(), 1, "SYN retransmitted");
        assert!(client.out[0].flags.syn());
    }

    #[test]
    fn data_retransmission_recovers_loss() {
        let (mut c, mut s) = established_pair();
        c.send(b"hello", 1_000);
        c.out.clear(); // lose the data segment
        c.on_timer(1_000 + RTO_INITIAL + 1);
        assert_eq!(c.out.len(), 1);
        pump(&mut c, &mut s, 500_000);
        assert_eq!(s.recv_drain(), b"hello");
    }

    #[test]
    fn connection_gives_up_after_max_retries() {
        let t = tuple();
        let mut client = Socket::connect(t, 1000, p44(), 0);
        for _ in 0..=MAX_RETRIES {
            let now = client.next_deadline().unwrap() + 1;
            client.out.clear();
            client.on_timer(now);
        }
        assert!(client.is_closed());
    }

    #[test]
    fn out_of_order_segments_reassemble() {
        let (mut _c, mut s) = established_pair();
        let base = s.rcv_nxt();
        let mk = |seqoff: u32, data: &[u8], ack: u32| {
            let mut seg = TcpRepr::new(40000, 80);
            seg.flags = TcpFlags::PSH_ACK;
            seg.seq = base.wrapping_add(seqoff);
            seg.ack = ack;
            seg.payload = data.to_vec();
            seg
        };
        let ack = s.snd_nxt();
        let mut log = IgnoreLog::default();
        s.process(&mk(6, b"world", ack), 1_000, &mut log);
        assert_eq!(s.recv_len(), 0);
        s.process(&mk(0, b"hello ", ack), 1_100, &mut log);
        assert_eq!(s.recv_drain(), b"hello world");
        assert_eq!(s.rcv_nxt(), base.wrapping_add(11));
    }

    #[test]
    fn syn_recv_ignores_wrong_ack_rst_ack() {
        // Table 3, row 4.
        let t = tuple();
        let mut client = Socket::connect(t, 1000, p44(), 0);
        let syn = client.out.remove(0);
        let mut server = Socket::accept(t.reversed(), 5000, syn.seq, None, p44(), 0);
        assert_eq!(server.state(), TcpState::SynRecv);
        let mut rst = TcpRepr::new(40000, 80);
        rst.flags = TcpFlags::RST_ACK;
        rst.seq = server.rcv_nxt();
        rst.ack = server.snd_nxt().wrapping_add(999); // wrong
        let mut log = IgnoreLog::default();
        server.process(&rst, 1_000, &mut log);
        assert!(log.contains(IgnoreReason::BadAckNumber));
        assert_eq!(server.state(), TcpState::SynRecv, "TCB survives");
        // A correct RST/ACK does reset.
        rst.ack = server.snd_nxt();
        server.process(&rst, 1_100, &mut log);
        assert!(server.is_closed());
    }

    #[test]
    fn syn_sent_wrong_synack_elicits_rst_and_keeps_state() {
        let t = tuple();
        let mut client = Socket::connect(t, 1000, p44(), 0);
        client.out.clear();
        let mut synack = TcpRepr::new(80, 40000);
        synack.flags = TcpFlags::SYN_ACK;
        synack.seq = 7777;
        synack.ack = 9999; // doesn't ack our SYN (iss+1 = 1001)
        let mut log = IgnoreLog::default();
        client.process(&synack, 1_000, &mut log);
        assert!(log.contains(IgnoreReason::BadSynAckAck));
        assert_eq!(client.state(), TcpState::SynSent);
        assert_eq!(client.out.len(), 1);
        assert!(client.out[0].flags.rst());
        assert_eq!(client.out[0].seq, 9999, "RST seq mirrors the bogus ACK");
    }
}
