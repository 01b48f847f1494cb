//! Thread-local arena of [`TcpRepr`] segment descriptors.
//!
//! Every outgoing segment used to construct a fresh repr whose
//! `options`/`payload` vectors allocated on first push — tens of
//! allocations per trial across handshake, data, ACK and teardown
//! segments. Reprs now cycle through a per-shard
//! [`intang_packet::arena::Arena`]: [`take_repr`] hands out a repr in
//! exactly the state `TcpRepr::new` would produce (so behavior is
//! unchanged) but with recycled capacity, and the endpoint returns each
//! repr after serializing it to the wire.

use crate::endpoint::Slot;
use crate::ignore::IgnoreEvent;
use intang_packet::arena::Arena;
use intang_packet::tcp::{TcpFlags, TcpRepr};
use intang_packet::Wire;
use std::cell::RefCell;

thread_local! {
    static REPRS: RefCell<Arena<TcpRepr>> = const { RefCell::new(Arena::new(64)) };
    /// Recycled byte buffers (socket receive/send queues, ignore-log
    /// storage): leased empty, returned cleared — only capacity survives.
    static BYTE_BUFS: RefCell<Arena<Vec<u8>>> = const { RefCell::new(Arena::new(16)) };
    /// Recycled segment queues (`Socket::out`, `unacked`).
    static SEG_QUEUES: RefCell<Arena<Vec<TcpRepr>>> = const { RefCell::new(Arena::new(16)) };
    /// Recycled socket tables (`TcpEndpoint::sockets`).
    static SOCKET_TABLES: RefCell<Arena<Vec<Slot>>> = const { RefCell::new(Arena::new(8)) };
    /// Recycled outgoing-datagram queues (`TcpEndpoint::out`).
    static WIRE_QUEUES: RefCell<Arena<Vec<Wire>>> = const { RefCell::new(Arena::new(8)) };
    /// Recycled ignore-log storage.
    static IGNORE_BUFS: RefCell<Arena<Vec<IgnoreEvent>>> = const { RefCell::new(Arena::new(8)) };
}

/// Lease an empty socket table with recycled capacity.
pub(crate) fn take_socket_table() -> Vec<Slot> {
    SOCKET_TABLES.try_with(|p| p.borrow_mut().take_with(Vec::new)).unwrap_or_default()
}

/// Return a socket table: dropping the sockets here recycles their queues.
pub(crate) fn put_socket_table(mut t: Vec<Slot>) {
    t.clear();
    let _ = SOCKET_TABLES.try_with(|p| p.borrow_mut().put(t));
}

/// Lease an empty outgoing-datagram queue with recycled capacity.
pub(crate) fn take_wire_queue() -> Vec<Wire> {
    WIRE_QUEUES.try_with(|p| p.borrow_mut().take_with(Vec::new)).unwrap_or_default()
}

/// Return an outgoing-datagram queue (wires inside are dropped).
pub(crate) fn put_wire_queue(mut q: Vec<Wire>) {
    q.clear();
    let _ = WIRE_QUEUES.try_with(|p| p.borrow_mut().put(q));
}

/// Lease empty ignore-log storage with recycled capacity.
pub(crate) fn take_ignore_buf() -> Vec<IgnoreEvent> {
    IGNORE_BUFS.try_with(|p| p.borrow_mut().take_with(Vec::new)).unwrap_or_default()
}

/// Return ignore-log storage for recycling.
pub(crate) fn put_ignore_buf(mut b: Vec<IgnoreEvent>) {
    b.clear();
    let _ = IGNORE_BUFS.try_with(|p| p.borrow_mut().put(b));
}

/// Lease an empty byte buffer with recycled capacity.
pub(crate) fn take_bytes() -> Vec<u8> {
    BYTE_BUFS.try_with(|p| p.borrow_mut().take_with(Vec::new)).unwrap_or_default()
}

/// Return a byte buffer for recycling (cleared here).
pub(crate) fn put_bytes(mut b: Vec<u8>) {
    b.clear();
    let _ = BYTE_BUFS.try_with(|p| p.borrow_mut().put(b));
}

/// Lease an empty segment queue with recycled capacity.
pub(crate) fn take_seg_queue() -> Vec<TcpRepr> {
    SEG_QUEUES.try_with(|p| p.borrow_mut().take_with(Vec::new)).unwrap_or_default()
}

/// Return a segment queue: the reprs inside go back to the repr arena,
/// the queue's capacity to the queue arena.
pub(crate) fn put_seg_queue(mut q: Vec<TcpRepr>) {
    for r in q.drain(..) {
        put_repr(r);
    }
    let _ = SEG_QUEUES.try_with(|p| p.borrow_mut().put(q));
}

/// Lease a repr equivalent to `TcpRepr::new(src_port, dst_port)`.
pub(crate) fn take_repr(src_port: u16, dst_port: u16) -> TcpRepr {
    let mut r = REPRS
        .try_with(|p| p.borrow_mut().take_with(|| TcpRepr::new(0, 0)))
        .unwrap_or_else(|_| TcpRepr::new(0, 0));
    r.src_port = src_port;
    r.dst_port = dst_port;
    r.seq = 0;
    r.ack = 0;
    r.flags = TcpFlags::NONE;
    r.window = 65535;
    r.options.clear();
    r.payload.clear();
    r.checksum_override = None;
    r.data_offset_words_override = None;
    r
}

/// Return a repr for recycling (a no-op during thread teardown).
pub(crate) fn put_repr(r: TcpRepr) {
    let _ = REPRS.try_with(|p| p.borrow_mut().put(r));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycled_repr_matches_a_fresh_one() {
        let mut dirty = take_repr(1, 2);
        dirty.seq = 99;
        dirty.ack = 98;
        dirty.flags = TcpFlags::PSH_ACK;
        dirty.window = 7;
        dirty.options.push(intang_packet::tcp::TcpOption::SackPermitted);
        dirty.payload.extend_from_slice(b"leftover");
        dirty.checksum_override = Some(0xbeef);
        dirty.data_offset_words_override = Some(4);
        put_repr(dirty);
        let clean = take_repr(40000, 80);
        assert_eq!(clean, TcpRepr::new(40000, 80));
    }
}
