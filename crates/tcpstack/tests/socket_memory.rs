//! A CLOSED socket holds no buffers. It keeps its table slot until the
//! slot is reused or its endpoint dropped, and an endpoint may outlive
//! its sockets by far (a trial's hosts live until the trial ends), so a
//! dead socket should cost no more than its slot.

mod live_bytes;

use intang_packet::{arena, PacketBuilder, TcpFlags, Wire};
use intang_tcpstack::{SocketHandle, StackProfile, TcpEndpoint, TcpState};
use live_bytes::live_bytes;
use std::net::Ipv4Addr;

const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const SERVER: Ipv4Addr = Ipv4Addr::new(93, 184, 216, 34);
/// The client's initial sequence number in the hand-built SYNs.
const CLIENT_ISN: u32 = 1_000;

fn syn(port: u16) -> Wire {
    PacketBuilder::tcp(CLIENT, SERVER, port, 80)
        .seq(CLIENT_ISN)
        .flags(TcpFlags::SYN)
        .build()
}

/// A client RST at `seq` (the server accepts it exactly at its `rcv_nxt`).
fn rst(port: u16, seq: u32) -> Wire {
    PacketBuilder::tcp(CLIENT, SERVER, port, 80).seq(seq).flags(TcpFlags::RST).build()
}

/// A server cell: one endpoint whose only socket answered a SYN and waits
/// in SYN_RECV.
fn syn_recv_cell(port: u16) -> TcpEndpoint {
    let mut ep = TcpEndpoint::new(SERVER, StackProfile::linux_4_4());
    ep.listen(80);
    ep.on_packet(syn(port), 0);
    assert_eq!(ep.poll_transmit().len(), 1, "SYN/ACK sent");
    assert_eq!(ep.socket_ref(SocketHandle(0)).state(), TcpState::SynRecv);
    ep
}

/// Shuttle packets between two endpoints until both go quiet.
fn pump(a: &mut TcpEndpoint, b: &mut TcpEndpoint, now: u64) {
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

/// An endpoint to keep alive across a test, and the arena leases live
/// with it: its own leases lift the baseline above zero, so a lease
/// returned twice shows as `arena::live()` below the baseline instead of
/// saturating at zero.
fn lease_baseline() -> (TcpEndpoint, u64) {
    let held = TcpEndpoint::new(CLIENT, StackProfile::linux_4_4());
    let base = arena::live();
    assert!(base > 0);
    (held, base)
}

/// A connected client/server pair and the server's accepted socket.
fn established() -> (TcpEndpoint, SocketHandle, TcpEndpoint, SocketHandle) {
    let mut client = TcpEndpoint::new(CLIENT, StackProfile::linux_4_4());
    let mut server = TcpEndpoint::new(SERVER, StackProfile::linux_4_4());
    server.listen(80);
    let ch = client.connect(SERVER, 80, 0);
    pump(&mut client, &mut server, 0);
    let sh = server.take_accepted()[0];
    (client, ch, server, sh)
}

#[test]
fn a_one_socket_endpoint_holds_a_one_slot_table() {
    let mut cell = syn_recv_cell(40_000);
    assert_eq!(cell.socket_slots(), 1);
    // A second concurrent socket grows the table as usual.
    cell.on_packet(syn(40_001), 0);
    assert!(cell.socket_slots() >= 2);
    assert_eq!(cell.live_sockets(), 2);
}

#[test]
fn dead_cells_free_their_buffers_once_the_pools_are_full() {
    let (_held, leases) = lease_baseline();
    // More cells than the thread-local pools keep, as in a metropolis
    // world: the buffers of all but a pool's worth go back to the heap.
    let ports: Vec<u16> = (40_000..40_064).collect();
    let mut cells: Vec<TcpEndpoint> = ports.iter().map(|&p| syn_recv_cell(p)).collect();
    assert!(cells.iter().all(|c| c.socket_ref(SocketHandle(0)).buffer_capacity() > 0));
    let resets: Vec<Wire> = ports.iter().map(|&p| rst(p, CLIENT_ISN + 1)).collect();
    let before = live_bytes();
    for (cell, reset) in cells.iter_mut().zip(resets) {
        cell.on_packet(reset, 1_000);
        let sock = cell.socket_ref(SocketHandle(0));
        assert!(sock.is_closed() && sock.reset_by_peer);
        assert_eq!(sock.buffer_capacity(), 0, "the reset's flush releases every buffer");
        assert!(cell.poll_transmit().is_empty(), "an accepted RST draws no answer");
    }
    let after = live_bytes();
    assert!(after < before, "released buffers left the heap: {before} -> {after} bytes");
    drop(cells);
    assert_eq!(arena::live(), leases, "every lease went back exactly once");
}

#[test]
fn a_full_fin_exchange_leaves_no_buffers_on_either_side() {
    let (_held, leases) = lease_baseline();
    let (mut client, ch, mut server, sh) = established();
    client.socket(ch).send(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n", 1_000);
    pump(&mut client, &mut server, 1_000);
    assert!(server.socket(sh).recv_discard() > 0);
    server.socket(sh).send(b"HTTP/1.1 200 OK\r\n\r\nhi", 2_000);
    server.socket(sh).close(2_000);
    pump(&mut client, &mut server, 2_000);
    assert_eq!(client.socket(ch).recv_discard(), 21);
    client.socket(ch).close(3_000);
    pump(&mut client, &mut server, 3_000);

    // The client closed second: LAST_ACK, then CLOSED on the final ACK.
    assert!(client.socket_ref(ch).is_closed());
    assert_eq!(client.socket_ref(ch).buffer_capacity(), 0);
    // The server closed first and lingers in TIME_WAIT, buffers and all,
    // until the linger timer closes it.
    assert_eq!(server.socket_ref(sh).state(), TcpState::TimeWait);
    assert!(server.socket_ref(sh).buffer_capacity() > 0);
    let linger_end = server.next_deadline().expect("TIME_WAIT linger armed");
    server.on_timer(linger_end);
    assert!(server.socket_ref(sh).is_closed());
    assert_eq!(server.socket_ref(sh).buffer_capacity(), 0);

    drop((client, server));
    assert_eq!(arena::live(), leases, "every lease went back exactly once");
}

#[test]
fn a_reset_socket_keeps_unread_data_until_it_is_read() {
    let (_held, leases) = lease_baseline();
    let (mut client, ch, mut server, sh) = established();
    let request: &[u8] = b"GET /unread HTTP/1.1\r\n\r\n";
    client.socket(ch).send(request, 1_000);
    pump(&mut client, &mut server, 1_000);
    let port = client.socket_ref(ch).tuple.src_port;
    let rcv_nxt = server.socket_ref(sh).rcv_nxt();
    server.on_packet(rst(port, rcv_nxt), 2_000);
    assert!(server.poll_transmit().is_empty());
    assert!(server.socket_ref(sh).is_closed());
    assert!(server.socket_ref(sh).buffer_capacity() >= request.len(), "the unread request stays");
    assert_eq!(server.socket(sh).recv_drain(), request);
    // The next flush finds the receive buffer empty and releases it too.
    assert!(server.poll_transmit().is_empty());
    assert_eq!(server.socket_ref(sh).buffer_capacity(), 0);

    drop((client, server));
    assert_eq!(arena::live(), leases, "every lease went back exactly once");
}
