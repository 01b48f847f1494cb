//! HTTP client and server — the Table 1 / Table 4 workload.
//!
//! The protocol logic is two machines over a tcpstack socket, shared by
//! every host that speaks HTTP: `HttpFetch` (one client fetch) and
//! `HttpServe` (one served connection). [`HttpClientDriver`] and
//! [`HttpServerDriver`] host them on a per-trial [`crate::host`], and
//! [`crate::metro`] hosts one per metropolis flow and per server cell.
//! Every finished fetch maps to the §3.4 taxonomy through
//! [`TrialOutcome::of_fetch`].

use crate::host::{HostDriver, UdpLayer};
use intang_netsim::{Duration, Instant};
use intang_packet::http::{HttpRequest, HttpResponse};
use intang_tcpstack::{SocketHandle, TcpEndpoint};
use intang_telemetry::TrialOutcome;
use std::borrow::Cow;
use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// How a fetch ended (returned once, by the [`HttpFetch::poll`] that ends
/// it). The default is a fetch cut off by the end of the run: no response,
/// and a socket still open.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FetchEnd {
    /// The response arrived complete.
    pub complete: bool,
    /// The socket was reset by its peer.
    pub reset: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// SYN sent, waiting for the handshake.
    Connecting,
    /// Established at `since`; the request goes out at
    /// `since + request_delay`.
    Established { since: Instant },
    /// Request sent; reading the response.
    Awaiting,
    /// Ended; further polls do nothing.
    Done,
}

/// One HTTP fetch over a connecting socket: wait for ESTABLISHED, wait out
/// an optional request delay, send the request, read until the response is
/// complete, then close. It reports how the fetch ended.
pub(crate) struct HttpFetch {
    sock: SocketHandle,
    request: Rc<Vec<u8>>,
    request_delay: Duration,
    phase: Phase,
    rx: Vec<u8>,
}

impl HttpFetch {
    /// Drive a fetch over `sock`, which the host has just opened with
    /// [`TcpEndpoint::connect`] or [`TcpEndpoint::connect_from`].
    pub fn new(sock: SocketHandle, request: Rc<Vec<u8>>, request_delay: Duration) -> HttpFetch {
        HttpFetch {
            sock,
            request,
            request_delay,
            phase: Phase::Connecting,
            rx: Vec::new(),
        }
    }

    /// Bytes received so far: the whole response once it is complete.
    pub fn received(&self) -> &[u8] {
        &self.rx
    }

    /// When the request is due, while the fetch waits out its delay.
    pub fn wake_at(&self) -> Option<Instant> {
        match self.phase {
            Phase::Established { since } => Some(since + self.request_delay),
            _ => None,
        }
    }

    /// Advance the fetch after a packet or a timer. Returns how it ended
    /// on the poll that ends it, and `None` on every other poll.
    pub fn poll(&mut self, tcp: &mut TcpEndpoint, now: Instant) -> Option<FetchEnd> {
        let sock = tcp.socket(self.sock);
        if self.phase == Phase::Connecting {
            if sock.is_established() {
                self.phase = Phase::Established { since: now };
            } else if sock.is_closed() {
                return self.end(false, sock.reset_by_peer);
            }
        }
        if let Phase::Established { since } = self.phase {
            if now >= since + self.request_delay {
                sock.send(&self.request, now.micros());
                self.phase = Phase::Awaiting;
            } else if sock.is_closed() {
                return self.end(false, sock.reset_by_peer);
            }
        }
        if self.phase == Phase::Awaiting {
            let closed = sock.is_closed() || sock.peer_closed();
            sock.drain_recv_into(&mut self.rx);
            // The allocation-free completeness probe, not a decode: the
            // per-poll cost while bytes trickle in is a scan rather than a
            // header parse.
            if HttpResponse::is_complete(&self.rx) {
                let reset = sock.reset_by_peer;
                sock.close(now.micros());
                return self.end(true, reset);
            }
            if closed {
                return self.end(false, sock.reset_by_peer);
            }
        }
        None
    }

    fn end(&mut self, complete: bool, reset: bool) -> Option<FetchEnd> {
        self.phase = Phase::Done;
        Some(FetchEnd { complete, reset })
    }
}

/// What a server answers a complete request with.
#[derive(Debug)]
pub(crate) enum Reply {
    /// A canned response, encoded once and shared by every connection.
    Canned(Rc<Vec<u8>>),
    /// A 301 to HTTPS that copies the request target into the Location
    /// header (the §3.3 keyword-echo hazard).
    RedirectHttps,
    /// Read requests but never answer (a flaky or overloaded origin).
    Silent,
}

/// One accepted HTTP connection: read until the request is complete,
/// answer it with the host's [`Reply`], then close.
pub(crate) struct HttpServe {
    sock: SocketHandle,
    rx: Vec<u8>,
    done: bool,
}

impl HttpServe {
    pub fn new(sock: SocketHandle) -> HttpServe {
        HttpServe {
            sock,
            rx: Vec::new(),
            done: false,
        }
    }

    /// The request was answered, or the socket closed first.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Advance the connection after a packet or a timer.
    pub fn poll(&mut self, tcp: &mut TcpEndpoint, reply: &Reply, now: Instant) {
        if self.done {
            return;
        }
        let sock = tcp.socket(self.sock);
        sock.drain_recv_into(&mut self.rx);
        let answer = match reply {
            // The canned page doesn't look at the request at all; the
            // no-alloc completeness probe is all that gates it.
            Reply::Canned(page) if HttpRequest::is_complete(&self.rx) => Some(Cow::Borrowed(page.as_slice())),
            // The redirect echoes request fields, so it needs the full
            // decode.
            Reply::RedirectHttps => HttpRequest::decode(&self.rx).ok().map(|req| {
                let host = req.header("host").unwrap_or("unknown");
                Cow::Owned(HttpResponse::redirect_to_https(host, &req.target).encode())
            }),
            _ => None,
        };
        if let Some(bytes) = answer {
            sock.send(&bytes, now.micros());
            sock.close(now.micros());
            self.done = true;
        } else if sock.is_closed() {
            self.done = true;
        }
    }
}

/// How one HTTP fetch ended, shared with the experiment harness.
#[derive(Debug, Default)]
pub struct HttpClientReport {
    /// The decoded response, once it arrived complete.
    pub response: Option<HttpResponse>,
    /// The connection died on an RST.
    pub reset: bool,
}

impl HttpClientReport {
    /// The fetch's §3.4 outcome, given the resets the shim saw on top of
    /// the socket's own.
    pub fn outcome(&self, shim_resets: u64) -> TrialOutcome {
        TrialOutcome::of_fetch(self.response.is_some(), shim_resets + u64::from(self.reset))
    }

    /// The paper's "Success", judged on the socket's evidence alone.
    pub fn succeeded(&self) -> bool {
        self.outcome(0) == TrialOutcome::Success
    }
}

/// Fetches one URL from one server, optionally delayed: hosts one
/// `HttpFetch` on a per-trial host.
pub struct HttpClientDriver {
    server: Ipv4Addr,
    port: u16,
    /// The request, pre-encoded (shared so sweep harnesses can hand every
    /// trial of a cell the same buffer instead of re-encoding per trial).
    request: Rc<Vec<u8>>,
    start_at: Instant,
    fetch: Option<HttpFetch>,
    pub report: Rc<RefCell<HttpClientReport>>,
}

impl HttpClientDriver {
    pub fn new(server: Ipv4Addr, port: u16, request: HttpRequest) -> (HttpClientDriver, Rc<RefCell<HttpClientReport>>) {
        HttpClientDriver::with_encoded(server, port, Rc::new(request.encode()))
    }

    /// Build from an already-encoded request (see [`HttpRequest::encode`]).
    pub fn with_encoded(server: Ipv4Addr, port: u16, request: Rc<Vec<u8>>) -> (HttpClientDriver, Rc<RefCell<HttpClientReport>>) {
        let report = Rc::new(RefCell::new(HttpClientReport::default()));
        (
            HttpClientDriver {
                server,
                port,
                request,
                start_at: Instant::ZERO,
                fetch: None,
                report: report.clone(),
            },
            report,
        )
    }

    pub fn starting_at(mut self, at: Instant) -> HttpClientDriver {
        self.start_at = at;
        self
    }
}

impl HostDriver for HttpClientDriver {
    fn poll(&mut self, now: Instant, tcp: &mut TcpEndpoint, _udp: &mut UdpLayer) {
        let Some(fetch) = &mut self.fetch else {
            if now >= self.start_at {
                let sock = tcp.connect(self.server, self.port, now.micros());
                self.fetch = Some(HttpFetch::new(sock, self.request.clone(), Duration::ZERO));
            }
            return;
        };
        let Some(end) = fetch.poll(tcp, now) else { return };
        let mut rep = self.report.borrow_mut();
        rep.reset = end.reset;
        if end.complete {
            rep.response = HttpResponse::decode(fetch.received()).ok();
        }
    }
}

/// Serves a fixed page on a port, one `HttpServe` per accepted
/// connection; honors `Connection: close` semantics by closing after the
/// response.
pub struct HttpServerDriver {
    port: u16,
    reply: Reply,
    conns: Vec<HttpServe>,
}

impl HttpServerDriver {
    pub fn new(port: u16) -> HttpServerDriver {
        // Sweeps build one server per trial, all serving the same default
        // page: share its canned 200 across every driver on this shard.
        thread_local! {
            static DEFAULT: Rc<Vec<u8>> =
                Rc::new(HttpResponse::ok(b"<html><body>It works (simulated).</body></html>").encode());
        }
        HttpServerDriver {
            port,
            reply: Reply::Canned(DEFAULT.with(Rc::clone)),
            conns: Vec::new(),
        }
    }

    /// Accept connections and read requests but never answer.
    pub fn unresponsive(mut self) -> HttpServerDriver {
        self.reply = Reply::Silent;
        self
    }

    pub fn with_body(mut self, body: &[u8]) -> HttpServerDriver {
        self.reply = Reply::Canned(Rc::new(HttpResponse::ok(body).encode()));
        self
    }

    /// Serve a 301-to-HTTPS instead of the page.
    pub fn redirecting_to_https(mut self) -> HttpServerDriver {
        self.reply = Reply::RedirectHttps;
        self
    }

    pub fn port(&self) -> u16 {
        self.port
    }
}

impl HostDriver for HttpServerDriver {
    fn poll(&mut self, now: Instant, tcp: &mut TcpEndpoint, _udp: &mut UdpLayer) {
        self.conns.extend(tcp.take_accepted().into_iter().map(HttpServe::new));
        for conn in &mut self.conns {
            conn.poll(tcp, &self.reply, now);
        }
    }
}

/// Make the listener live: call after `add_host`.
pub fn listen(handle: &crate::host::HostHandle, port: u16) {
    handle.with_tcp(|t| t.listen(port));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::add_host;
    use intang_netsim::{Direction, Duration, Link, Simulation};
    use intang_tcpstack::StackProfile;

    fn fetch(redirect: bool) -> Rc<RefCell<HttpClientReport>> {
        let client_addr = Ipv4Addr::new(10, 0, 0, 1);
        let server_addr = Ipv4Addr::new(203, 0, 113, 10);
        let req = HttpRequest::get("/ultrasurf", "site-0.example");
        let (driver, report) = HttpClientDriver::new(server_addr, 80, req);
        let mut sim = Simulation::new(21);
        add_host(
            &mut sim,
            "client",
            client_addr,
            StackProfile::linux_4_4(),
            Box::new(driver),
            Direction::ToServer,
        );
        sim.add_link(Link::new(Duration::from_millis(25), 6));
        let server = if redirect {
            HttpServerDriver::new(80).redirecting_to_https()
        } else {
            HttpServerDriver::new(80)
        };
        let (_i, shandle) = add_host(
            &mut sim,
            "server",
            server_addr,
            StackProfile::linux_4_4(),
            Box::new(server),
            Direction::ToClient,
        );
        listen(&shandle, 80);
        sim.run_to_quiescence(100_000);
        report
    }

    #[test]
    fn plain_fetch_succeeds_without_censor() {
        let report = fetch(false);
        let rep = report.borrow();
        assert!(rep.succeeded(), "no censor on path, fetch must succeed");
        assert_eq!(rep.response.as_ref().unwrap().status, 200);
        assert!(!rep.reset);
    }

    #[test]
    fn https_redirect_echoes_keyword_into_location() {
        let report = fetch(true);
        let rep = report.borrow();
        let resp = rep.response.as_ref().unwrap();
        assert_eq!(resp.status, 301);
        assert!(resp.header("location").unwrap().contains("/ultrasurf"));
    }
}
