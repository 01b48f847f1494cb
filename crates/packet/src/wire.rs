//! The zero-copy wire substrate: refcounted, copy-on-write packet buffers
//! drawn from a per-thread recycling pool, with a lazily-computed header
//! index shared by every element that looks at the packet.
//!
//! A simulated trial moves each datagram through many hands — the client
//! engine, middleboxes, the censor tap, routers, the server stack — and
//! historically every hand received its own heap clone and re-walked the
//! IPv4/TCP header chain from scratch. [`Wire`] collapses that cost:
//!
//! * **Refcounted sharing.** `Wire::clone` bumps a refcount. The on-path
//!   censor tap forwards the original and analyzes "a copy" that is really
//!   the same buffer; link-level duplication shares the buffer too.
//! * **Copy-on-write.** The first mutator (a router decrementing TTL, a
//!   middlebox rewriting a header) of a *shared* buffer pays one copy into
//!   a pooled buffer; a uniquely-held buffer is mutated in place.
//! * **Recycling pool.** Dropped buffers return to a per-thread slab, so
//!   steady-state trial execution performs no packet allocations at all —
//!   see [`pool_stats`] and the `alloc-count` feature of the bench crate.
//! * **Cached header index.** [`Wire::headers`] parses the IPv4 + TCP/UDP
//!   header chain once per buffer and memoizes the offsets and scalar
//!   fields ([`HeaderIndex`]); clones share the memo, and any mutation
//!   invalidates it. The TTL and checksums are deliberately *not* indexed
//!   so the per-hop TTL decrement keeps the index warm.
//!
//! Simulations are single-threaded (the sweep executor parallelizes across
//! trials, never within one), so `Wire` is intentionally `!Send`: the pool
//! is thread-local and refcounts are plain `Rc`.

use crate::ipv4::IpProtocol;
use crate::tcp::TcpFlags;
use crate::FourTuple;
use std::cell::{Cell, RefCell};
use std::mem::ManuallyDrop;
use std::net::Ipv4Addr;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bound on buffers kept in the per-thread pool. A trial keeps at
/// most a few dozen packets in flight; 256 covers bursts (type-2 reset
/// volleys, fragment fans) without pinning real memory.
const POOL_CAP: usize = 256;

/// Buffers larger than this are not recycled — the pool is for datagrams,
/// not for whatever a pathological test built.
const MAX_POOLED_CAP: usize = 4096;

thread_local! {
    static POOL: RefCell<Vec<Rc<WireBuf>>> = const { RefCell::new(Vec::new()) };
}

// Pool counters are process-global (relaxed atomics) so benchmark harnesses
// can read them from the main thread while sweeps run in scoped workers.
// One relaxed add per *buffer acquisition* — noise next to emitting and
// checksumming the packet the buffer is for.
static POOL_HITS: AtomicU64 = AtomicU64::new(0);
static POOL_MISSES: AtomicU64 = AtomicU64::new(0);

/// `(hits, misses)` of the wire pool since process start (all threads). A
/// hit is a buffer served from a thread's pool; a miss is a fresh heap
/// allocation. After a warm-up trial the steady state is all hits.
///
/// Scheduling-dependent — diagnostic only, never part of the deterministic
/// [`intang-telemetry`](https://docs.rs) metrics merge.
pub fn pool_stats() -> (u64, u64) {
    (POOL_HITS.load(Ordering::Relaxed), POOL_MISSES.load(Ordering::Relaxed))
}

/// Reset [`pool_stats`] to zero (benchmark warm-up boundary).
pub fn reset_pool_stats() {
    POOL_HITS.store(0, Ordering::Relaxed);
    POOL_MISSES.store(0, Ordering::Relaxed);
}

thread_local! {
    /// Buffers currently referenced by at least one `Wire` handle on this
    /// thread. Unlike the pool's free-list size — which depends on what
    /// earlier trials warmed up — this is a pure function of the packets a
    /// trial holds in flight, so per-trial deltas are deterministic and
    /// safe to feed the telemetry time-series.
    static LIVE: Cell<u64> = const { Cell::new(0) };
}

/// Buffers currently referenced by at least one `Wire` handle on this
/// thread (pooled free buffers do not count).
pub fn live_buffers() -> u64 {
    LIVE.try_with(Cell::get).unwrap_or(0)
}

/// Build a complete IPv4+TCP datagram into a pooled [`Wire`]: the transport
/// segment is staged in a thread-local scratch buffer, so the common
/// emit-a-segment path (`ip.emit(&tcp.emit(..))` historically — two heap
/// vectors per packet) allocates nothing at steady state.
pub fn emit_tcp(ip: &crate::Ipv4Repr, tcp: &crate::TcpRepr) -> Wire {
    thread_local! {
        static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
    }
    SCRATCH
        .try_with(|scratch| {
            let mut transport = scratch.borrow_mut();
            transport.clear();
            tcp.emit_into(ip.src, ip.dst, &mut transport);
            let mut w = Wire::with_capacity(crate::ipv4::HEADER_LEN + transport.len());
            ip.emit_into(&transport, w.vec_mut());
            w
        })
        .expect("packet built during thread teardown")
}

/// Cached parse state of a buffer. `Empty` = not computed yet;
/// `Unparseable` = computed, not a valid IPv4 datagram.
#[derive(Clone, Copy, Debug)]
enum CacheState {
    Empty,
    Unparseable,
    Parsed(HeaderIndex),
}

/// The memoized header index: every scalar an element commonly asks of a
/// packet, computed in one pass. Mirrors the validation rules of
/// [`crate::Ipv4Packet::new_checked`] / [`crate::TcpPacket::new_checked`],
/// so a packet those views reject reports `None`/[`L4Index::Other`] here.
///
/// Mutable-per-hop fields (TTL, checksums) are intentionally absent: they
/// are read straight from the bytes, and mutating them does not invalidate
/// the index (see [`Wire::decrement_ttl`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeaderIndex {
    /// IPv4 header length in bytes (validated `>= 20` and in-buffer).
    pub ip_header_len: u8,
    pub protocol: IpProtocol,
    pub src: Ipv4Addr,
    pub dst: Ipv4Addr,
    pub total_len: u16,
    pub ident: u16,
    pub dont_fragment: bool,
    pub more_fragments: bool,
    /// Fragment offset in bytes.
    pub frag_offset: u32,
    /// Absolute byte range of the IP payload within the wire buffer
    /// (clamped to the buffer like [`crate::Ipv4Packet::payload`]).
    pub ip_payload_start: u16,
    pub ip_payload_end: u16,
    pub l4: L4Index,
}

/// Transport-layer portion of a [`HeaderIndex`]. Only computed for
/// offset-zero (non- or first-) fragments, mirroring [`crate::four_tuple_of`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum L4Index {
    Tcp(TcpIndex),
    Udp(UdpIndex),
    /// ICMP, unknown protocols, trailing fragments, or a transport header
    /// the checked views would reject.
    Other,
}

/// Scalar fields of a validated TCP header plus the absolute payload range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TcpIndex {
    pub src_port: u16,
    pub dst_port: u16,
    pub seq: u32,
    pub ack: u32,
    pub flags: TcpFlags,
    pub window: u16,
    /// TCP header length in bytes (validated `>= 20` and in-payload).
    pub header_len: u8,
    /// Absolute byte range of the TCP payload within the wire buffer.
    pub payload_start: u16,
    pub payload_end: u16,
}

/// Scalar fields of a UDP header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UdpIndex {
    pub src_port: u16,
    pub dst_port: u16,
}

impl HeaderIndex {
    /// The flow four-tuple, when the packet has one (mirrors
    /// [`crate::four_tuple_of`]).
    pub fn four_tuple(&self) -> Option<FourTuple> {
        match self.l4 {
            L4Index::Tcp(t) => Some(FourTuple::new(self.src, t.src_port, self.dst, t.dst_port)),
            L4Index::Udp(u) => Some(FourTuple::new(self.src, u.src_port, self.dst, u.dst_port)),
            L4Index::Other => None,
        }
    }

    /// The TCP index, if the packet carries a validated TCP header.
    pub fn tcp(&self) -> Option<&TcpIndex> {
        match &self.l4 {
            L4Index::Tcp(t) => Some(t),
            _ => None,
        }
    }

    /// True when the datagram is an IP fragment.
    pub fn is_fragment(&self) -> bool {
        self.more_fragments || self.frag_offset != 0
    }

    /// One pass over the header chain. Returns `None` for anything
    /// `Ipv4Packet::new_checked` would reject.
    fn compute(data: &[u8]) -> Option<HeaderIndex> {
        if data.len() < crate::ipv4::HEADER_LEN || data[0] >> 4 != 4 {
            return None;
        }
        let ihl = usize::from(data[0] & 0x0f) * 4;
        if ihl < crate::ipv4::HEADER_LEN || data.len() < ihl {
            return None;
        }
        let total_len = u16::from_be_bytes([data[2], data[3]]);
        let frag_raw = u16::from_be_bytes([data[6] & 0x1f, data[7]]);
        let frag_offset = u32::from(frag_raw) * 8;
        let more_fragments = data[6] & 0x20 != 0;
        // IP payload clamped exactly like `Ipv4Packet::payload`.
        let declared_end = usize::from(total_len).max(ihl);
        let payload_end = declared_end.min(data.len());
        let protocol = IpProtocol::from(data[9]);
        let payload = &data[ihl..payload_end];
        let l4 = if frag_offset != 0 {
            L4Index::Other
        } else {
            match protocol {
                IpProtocol::Tcp => Self::index_tcp(payload, ihl),
                IpProtocol::Udp if payload.len() >= crate::udp::HEADER_LEN => L4Index::Udp(UdpIndex {
                    src_port: u16::from_be_bytes([payload[0], payload[1]]),
                    dst_port: u16::from_be_bytes([payload[2], payload[3]]),
                }),
                _ => L4Index::Other,
            }
        };
        Some(HeaderIndex {
            ip_header_len: ihl as u8,
            protocol,
            src: Ipv4Addr::new(data[12], data[13], data[14], data[15]),
            dst: Ipv4Addr::new(data[16], data[17], data[18], data[19]),
            total_len,
            ident: u16::from_be_bytes([data[4], data[5]]),
            dont_fragment: data[6] & 0x40 != 0,
            more_fragments,
            frag_offset,
            ip_payload_start: ihl as u16,
            ip_payload_end: payload_end as u16,
            l4,
        })
    }

    /// The TCP view of a segment whose data offset is below 5 words, read
    /// as the fixed 20-byte header with the payload from byte 20. The
    /// checked views reject such a segment, so [`HeaderIndex::tcp`] has no
    /// view of it; a reader that processes it anyway (the censor, per the
    /// paper's Table 3) asks here. `data` is the datagram this index was
    /// computed from.
    pub fn tcp_short_header(&self, data: &[u8]) -> Option<TcpIndex> {
        if self.protocol != IpProtocol::Tcp || self.frag_offset != 0 || self.tcp().is_some() {
            return None;
        }
        let ihl = usize::from(self.ip_header_len);
        let payload = data.get(ihl..usize::from(self.ip_payload_end))?;
        let short = payload.len() >= crate::tcp::HEADER_LEN && usize::from(payload[12] >> 4) * 4 < crate::tcp::HEADER_LEN;
        short.then(|| Self::tcp_fields(payload, ihl, crate::tcp::HEADER_LEN))
    }

    fn index_tcp(payload: &[u8], ihl: usize) -> L4Index {
        // Same validation as `TcpPacket::new_checked`: short headers and
        // the "data offset < 5 words" malformation are not TCP.
        if payload.len() < crate::tcp::HEADER_LEN {
            return L4Index::Other;
        }
        let hlen = usize::from(payload[12] >> 4) * 4;
        if hlen < crate::tcp::HEADER_LEN || payload.len() < hlen {
            return L4Index::Other;
        }
        L4Index::Tcp(Self::tcp_fields(payload, ihl, hlen))
    }

    /// The fixed-header fields of `payload` (at least 20 bytes), with its
    /// data starting `hlen` bytes in.
    fn tcp_fields(payload: &[u8], ihl: usize, hlen: usize) -> TcpIndex {
        TcpIndex {
            src_port: u16::from_be_bytes([payload[0], payload[1]]),
            dst_port: u16::from_be_bytes([payload[2], payload[3]]),
            seq: u32::from_be_bytes([payload[4], payload[5], payload[6], payload[7]]),
            ack: u32::from_be_bytes([payload[8], payload[9], payload[10], payload[11]]),
            flags: TcpFlags(payload[13] & 0x3f),
            window: u16::from_be_bytes([payload[14], payload[15]]),
            header_len: hlen as u8,
            payload_start: (ihl + hlen.min(payload.len())) as u16,
            payload_end: (ihl + payload.len()) as u16,
        }
    }
}

/// The shared allocation behind one or more [`Wire`] handles: the bytes
/// plus the memoized header index.
struct WireBuf {
    data: Vec<u8>,
    cache: Cell<CacheState>,
}

impl WireBuf {
    fn index(&self) -> Option<HeaderIndex> {
        match self.cache.get() {
            CacheState::Parsed(ix) => Some(ix),
            CacheState::Unparseable => None,
            CacheState::Empty => {
                let ix = HeaderIndex::compute(&self.data);
                self.cache.set(match ix {
                    Some(ix) => CacheState::Parsed(ix),
                    None => CacheState::Unparseable,
                });
                ix
            }
        }
    }
}

/// Pop a unique buffer from the pool (cleared, cache reset) or allocate.
fn fresh_buf(min_capacity: usize) -> Rc<WireBuf> {
    let _ = LIVE.try_with(|c| c.set(c.get() + 1));
    let pooled = POOL.try_with(|p| p.borrow_mut().pop()).ok().flatten();
    match pooled {
        Some(mut rc) => {
            POOL_HITS.fetch_add(1, Ordering::Relaxed);
            let b = Rc::get_mut(&mut rc).expect("pooled buffers are uniquely held");
            b.data.clear();
            b.data.reserve(min_capacity);
            b.cache.set(CacheState::Empty);
            rc
        }
        None => {
            POOL_MISSES.fetch_add(1, Ordering::Relaxed);
            Rc::new(WireBuf {
                data: Vec::with_capacity(min_capacity),
                cache: Cell::new(CacheState::Empty),
            })
        }
    }
}

/// A raw serialized IPv4 datagram as it travels over the simulated wire.
///
/// Dereferences to `&[u8]` for reading; all mutation paths are explicit
/// ([`Wire::bytes_mut`], [`Wire::vec_mut`], `DerefMut`) and copy-on-write.
pub struct Wire {
    buf: ManuallyDrop<Rc<WireBuf>>,
}

impl Wire {
    /// An empty buffer from the pool (fill through [`Wire::vec_mut`]).
    pub fn new() -> Wire {
        Wire::with_capacity(0)
    }

    /// An empty pooled buffer with at least `cap` bytes of capacity.
    pub fn with_capacity(cap: usize) -> Wire {
        Wire {
            buf: ManuallyDrop::new(fresh_buf(cap)),
        }
    }

    /// Copy `bytes` into a pooled buffer.
    pub fn copy_from(bytes: &[u8]) -> Wire {
        let mut w = Wire::with_capacity(bytes.len());
        w.unique_buf().data.extend_from_slice(bytes);
        w
    }

    /// Wrap an existing allocation (no pool interaction; the vector's
    /// allocation is reused as-is).
    pub fn from_vec(v: Vec<u8>) -> Wire {
        let _ = LIVE.try_with(|c| c.set(c.get() + 1));
        Wire {
            buf: ManuallyDrop::new(Rc::new(WireBuf {
                data: v,
                cache: Cell::new(CacheState::Empty),
            })),
        }
    }

    pub fn len(&self) -> usize {
        self.buf.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.data.is_empty()
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.buf.data
    }

    /// Number of `Wire` handles sharing this buffer (diagnostics/tests).
    pub fn ref_count(&self) -> usize {
        Rc::strong_count(&self.buf)
    }

    /// The memoized header index; `None` when the buffer is not a valid
    /// IPv4 datagram. Computed on first use, shared by clones, invalidated
    /// by mutation.
    pub fn headers(&self) -> Option<HeaderIndex> {
        self.buf.index()
    }

    /// Cached four-tuple lookup (see [`crate::four_tuple_of`]).
    pub fn four_tuple(&self) -> Option<FourTuple> {
        self.headers().and_then(|h| h.four_tuple())
    }

    /// The IPv4 TTL, read straight from the bytes (valid datagrams only).
    pub fn ttl(&self) -> Option<u8> {
        self.headers().map(|_| self.buf.data[8])
    }

    /// Make this handle the unique owner of its bytes (copy-on-write) and
    /// return the buffer. `preserve_cache` keeps the header index across
    /// the copy — only sound for mutations of non-indexed fields.
    fn make_unique(&mut self, preserve_cache: bool) -> &mut WireBuf {
        if Rc::strong_count(&self.buf) != 1 {
            let mut rc = fresh_buf(self.buf.data.len());
            {
                let b = Rc::get_mut(&mut rc).expect("fresh buffers are uniquely held");
                b.data.extend_from_slice(&self.buf.data);
                if preserve_cache {
                    b.cache.set(self.buf.cache.get());
                }
            }
            // Assigning through the ManuallyDrop drops our old reference
            // (a refcount decrement — the buffer stays with its co-owners).
            *self.buf = rc;
        } else if !preserve_cache {
            self.buf.cache.set(CacheState::Empty);
        }
        Rc::get_mut(&mut self.buf).expect("unique after make_unique")
    }

    /// `make_unique` for already-unique or fill paths where the cache was
    /// reset by construction.
    fn unique_buf(&mut self) -> &mut WireBuf {
        self.make_unique(true)
    }

    /// Mutable view of the bytes. Copy-on-write; invalidates the header
    /// index (the caller may rewrite anything).
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.make_unique(false).data
    }

    /// Mutable access to the backing vector (length may change).
    /// Copy-on-write; invalidates the header index.
    pub fn vec_mut(&mut self) -> &mut Vec<u8> {
        &mut self.make_unique(false).data
    }

    /// Decrement the IPv4 TTL by up to `hops` (saturating at zero) and
    /// adjust the header checksum via RFC 1624 incremental update — only
    /// the (TTL, protocol) word is re-summed, not the whole header.
    /// Byte-for-byte equivalent to `hops` single decrements with a full
    /// checksum refresh (every in-sim header carries its canonical
    /// checksum, which simcheck separately enforces), and — because
    /// neither TTL nor checksum is indexed — the header index stays warm.
    ///
    /// Returns the remaining TTL, or `None` (buffer untouched) when the
    /// bytes are not a valid IPv4 datagram.
    pub fn decrement_ttl(&mut self, hops: u8) -> Option<u8> {
        self.headers()?;
        let buf = self.make_unique(true);
        let ttl = buf.data[8].saturating_sub(hops);
        let old_word = u16::from_be_bytes([buf.data[8], buf.data[9]]);
        let new_word = u16::from_be_bytes([ttl, buf.data[9]]);
        let old_ck = u16::from_be_bytes([buf.data[10], buf.data[11]]);
        let ck = crate::checksum::incremental_update(old_ck, old_word, new_word);
        buf.data[8] = ttl;
        buf.data[10..12].copy_from_slice(&ck.to_be_bytes());
        Some(ttl)
    }

    /// Copy out as a plain vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.buf.data.clone()
    }

    /// Simcheck probe: does the memoized header index still agree with a
    /// fresh parse of the bytes? Returns a description of the first
    /// disagreement, or `None` when coherent (an uncomputed cache is
    /// trivially coherent). Read-only — never computes or repairs the
    /// cache.
    pub fn check_header_cache(&self) -> Option<String> {
        let fresh = HeaderIndex::compute(&self.buf.data);
        match (self.buf.cache.get(), fresh) {
            (CacheState::Empty, _) => None,
            (CacheState::Unparseable, None) => None,
            (CacheState::Unparseable, Some(_)) => Some("cache says unparseable but the bytes parse".to_string()),
            (CacheState::Parsed(ix), Some(f)) if ix == f => None,
            (CacheState::Parsed(ix), f) => Some(format!("cached header index {ix:?} disagrees with fresh parse {f:?}")),
        }
    }

    /// Test-only: overwrite one byte while (incorrectly) keeping the
    /// header cache, simulating the cache-coherency bug class that
    /// [`Wire::check_header_cache`] exists to catch. Never use outside
    /// tests — real mutation paths go through [`Wire::bytes_mut`].
    #[doc(hidden)]
    pub fn poke_preserving_cache_for_test(&mut self, idx: usize, val: u8) {
        self.make_unique(true).data[idx] = val;
    }
}

impl Default for Wire {
    fn default() -> Wire {
        Wire::new()
    }
}

impl Clone for Wire {
    fn clone(&self) -> Wire {
        Wire {
            buf: ManuallyDrop::new(Rc::clone(&self.buf)),
        }
    }
}

impl Drop for Wire {
    fn drop(&mut self) {
        // SAFETY: `buf` is never touched again; ManuallyDrop::take moves
        // the Rc out exactly once.
        let rc = unsafe { ManuallyDrop::take(&mut self.buf) };
        if Rc::strong_count(&rc) == 1 {
            let _ = LIVE.try_with(|c| c.set(c.get().saturating_sub(1)));
            if rc.data.capacity() > 0 && rc.data.capacity() <= MAX_POOLED_CAP {
                // Last handle: recycle the allocation. `try_with` guards
                // against drops during thread teardown.
                let _ = POOL.try_with(move |p| {
                    let mut pool = p.borrow_mut();
                    if pool.len() < POOL_CAP {
                        pool.push(rc);
                    }
                });
            }
        }
    }
}

impl std::ops::Deref for Wire {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf.data
    }
}

impl std::ops::DerefMut for Wire {
    fn deref_mut(&mut self) -> &mut [u8] {
        self.bytes_mut()
    }
}

impl AsRef<[u8]> for Wire {
    fn as_ref(&self) -> &[u8] {
        &self.buf.data
    }
}

impl std::borrow::Borrow<[u8]> for Wire {
    fn borrow(&self) -> &[u8] {
        &self.buf.data
    }
}

impl From<Vec<u8>> for Wire {
    fn from(v: Vec<u8>) -> Wire {
        Wire::from_vec(v)
    }
}

impl From<&[u8]> for Wire {
    fn from(s: &[u8]) -> Wire {
        Wire::copy_from(s)
    }
}

impl From<Wire> for Vec<u8> {
    fn from(w: Wire) -> Vec<u8> {
        w.to_vec()
    }
}

impl std::fmt::Debug for Wire {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Wire({} bytes, rc={})", self.len(), self.ref_count())
    }
}

impl PartialEq for Wire {
    fn eq(&self, other: &Wire) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Wire {}

impl PartialEq<Vec<u8>> for Wire {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == &other[..]
    }
}

impl PartialEq<&[u8]> for Wire {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl std::hash::Hash for Wire {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl FromIterator<u8> for Wire {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Wire {
        Wire::from_vec(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ipv4Packet, PacketBuilder, TcpPacket};
    use std::net::Ipv4Addr;

    fn sample() -> Wire {
        PacketBuilder::tcp(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), 40000, 80)
            .seq(7777)
            .flags(TcpFlags::PSH_ACK)
            .payload(b"GET / HTTP/1.1\r\n\r\n")
            .build()
    }

    #[test]
    fn index_matches_views() {
        let w = sample();
        let h = w.headers().expect("valid datagram");
        let ip = Ipv4Packet::new_checked(&w[..]).unwrap();
        let tcp = TcpPacket::new_checked(ip.payload()).unwrap();
        assert_eq!(usize::from(h.ip_header_len), ip.header_len());
        assert_eq!(h.src, ip.src_addr());
        assert_eq!(h.dst, ip.dst_addr());
        assert_eq!(h.protocol, ip.protocol());
        let t = h.tcp().expect("tcp index");
        assert_eq!(t.src_port, tcp.src_port());
        assert_eq!(t.dst_port, tcp.dst_port());
        assert_eq!(t.seq, tcp.seq_number());
        assert_eq!(t.flags, tcp.flags());
        assert_eq!(&w[usize::from(t.payload_start)..usize::from(t.payload_end)], tcp.payload());
        assert_eq!(w.four_tuple(), crate::four_tuple_of(&w));
        assert_eq!(h.tcp_short_header(&w), None, "a valid header has its checked view");
    }

    #[test]
    fn short_header_view_reads_the_fixed_header() {
        let w = PacketBuilder::tcp(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), 40000, 80)
            .seq(7777)
            .flags(TcpFlags::PSH_ACK)
            .payload(b"JJ")
            .short_data_offset()
            .build();
        let h = w.headers().expect("valid datagram");
        assert_eq!(h.tcp(), None, "the checked view rejects a 4-word offset");
        let t = h.tcp_short_header(&w).expect("short-header view");
        assert_eq!((t.src_port, t.dst_port, t.seq, t.flags), (40000, 80, 7777, TcpFlags::PSH_ACK));
        assert_eq!(t.header_len, 20);
        assert_eq!(&w[usize::from(t.payload_start)..usize::from(t.payload_end)], b"JJ");
    }

    #[test]
    fn clone_shares_and_cow_unshares() {
        let a = sample();
        let mut b = a.clone();
        assert_eq!(a.ref_count(), 2);
        // Reading never copies.
        assert_eq!(a.as_slice(), b.as_slice());
        // Writing copies exactly once and never aliases into the original.
        b.bytes_mut()[8] = 1; // stomp the TTL
        assert_eq!(a.ref_count(), 1);
        assert_eq!(b.ref_count(), 1);
        assert_ne!(a[8], b[8]);
        assert_eq!(a, sample(), "original unchanged by the clone's write");
    }

    #[test]
    fn mutation_invalidates_index() {
        let mut w = sample();
        let before = w.headers().unwrap();
        w.bytes_mut()[19] = 77; // rewrite the last dst-addr octet
        let after = w.headers().unwrap();
        assert_ne!(before.dst, after.dst);
        assert_eq!(after.dst, Ipv4Addr::new(10, 0, 0, 77));
    }

    #[test]
    fn cow_write_keeps_clone_index_fresh() {
        let a = sample();
        let _warm = a.headers();
        let mut b = a.clone();
        b.bytes_mut()[16] = 99; // dst addr first octet, via the clone
        assert_eq!(a.headers().unwrap().dst, Ipv4Addr::new(10, 0, 0, 2));
        assert_eq!(b.headers().unwrap().dst.octets()[0], 99);
    }

    #[test]
    fn decrement_ttl_matches_per_hop_loop() {
        let mut fast = sample();
        let mut slow = sample();
        fast.decrement_ttl(3).unwrap();
        for _ in 0..3 {
            let mut ip = Ipv4Packet::new_unchecked(&mut slow[..]);
            ip.decrement_ttl();
        }
        assert_eq!(fast.as_slice(), slow.as_slice());
        assert!(Ipv4Packet::new_checked(&fast[..]).unwrap().verify_header_checksum());
        // Saturates at zero like the loop.
        let mut w = sample();
        assert_eq!(w.decrement_ttl(255), Some(0));
    }

    #[test]
    fn decrement_ttl_preserves_index_and_cow() {
        let a = sample();
        let warm = a.headers().unwrap();
        let mut b = a.clone();
        assert_eq!(b.decrement_ttl(2), Some(62));
        assert_eq!(a.ttl(), Some(64), "original unchanged");
        assert_eq!(b.headers().unwrap(), warm, "index survives a TTL write");
    }

    #[test]
    fn pool_recycles_buffers() {
        // Drain whatever earlier tests pooled, then verify a drop→alloc
        // round trip reuses the buffer.
        let w = Wire::copy_from(&[1, 2, 3]);
        drop(w);
        let (h0, _m0) = pool_stats();
        let w2 = Wire::with_capacity(3);
        let (h1, _m1) = pool_stats();
        assert!(h1 > h0, "second allocation came from the pool");
        drop(w2);
    }

    #[test]
    fn shared_buffers_are_not_pooled_until_last_drop() {
        let a = Wire::copy_from(&[9; 64]);
        let b = a.clone();
        drop(a); // refcount 2 -> 1: must NOT enter the pool
        assert_eq!(b.ref_count(), 1);
        assert_eq!(b.as_slice(), &[9; 64][..]);
    }

    #[test]
    fn live_buffers_counts_handles_not_pool() {
        let base = live_buffers();
        let a = Wire::copy_from(&[1, 2, 3]);
        assert_eq!(live_buffers(), base + 1);
        let b = a.clone();
        assert_eq!(live_buffers(), base + 1, "clones share one buffer");
        let mut c = b.clone();
        c.bytes_mut()[0] = 9; // copy-on-write: a second buffer appears
        assert_eq!(live_buffers(), base + 2);
        drop(a);
        assert_eq!(live_buffers(), base + 2, "co-owner still holds the first buffer");
        drop(b);
        assert_eq!(live_buffers(), base + 1, "pooled buffers are not live");
        drop(c);
        assert_eq!(live_buffers(), base);
        let v = Wire::from_vec(vec![4, 5]);
        assert_eq!(live_buffers(), base + 1);
        drop(v);
        assert_eq!(live_buffers(), base);
    }

    #[test]
    fn unparseable_is_cached_too() {
        let w = Wire::copy_from(&[0xff; 4]);
        assert!(w.headers().is_none());
        assert!(w.four_tuple().is_none());
        assert!(w.ttl().is_none());
    }
}
