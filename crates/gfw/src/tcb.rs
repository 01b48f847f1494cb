//! The censor's per-flow TCB: orientation, the resynchronization state, and
//! the two detection pipelines (type-1 per-packet, type-2 reassembled).

use crate::dpi::{Automaton, DetectionKind, StreamMatcher};
use intang_packet::{FourTuple, FxHashMap};
use intang_tcpstack::reasm::{Assembler, SegmentOverlapPolicy};
use std::net::Ipv4Addr;

/// Tracking state of a censor TCB (Hypothesized New Behavior 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CensorState {
    /// Normal tracking: the monitored stream is anchored at `stream_base`.
    Tracking,
    /// Resynchronization state: the censor waits for the next
    /// client→server data packet or server→client SYN/ACK to re-anchor.
    Resync,
}

/// How far ahead of the anchored stream the censor accepts data.
const ACCEPT_WINDOW: u32 = 256 * 1024;

/// The censor's belief about one connection.
#[derive(Debug)]
pub struct CensorTcb {
    /// Believed client (the side whose traffic is inspected).
    pub client: (Ipv4Addr, u16),
    /// Believed server.
    pub server: (Ipv4Addr, u16),
    /// Created by a SYN/ACK (Hypothesized New Behavior 1). Such TCBs ignore
    /// subsequent SYN/SYN-ACKs entirely (§5.2, TCB Reversal).
    pub created_by_synack: bool,
    pub state: CensorState,
    /// Between SYN/SYN-ACK and the first client ACK/data (§4: RSTs here
    /// trigger resync far more often).
    pub in_handshake: bool,
    /// The client's ISN as believed by the censor.
    pub client_isn: u32,
    /// Absolute sequence number of monitored-stream byte 0.
    pub stream_base: u32,
    /// The believed server's next sequence number (for reset injection).
    pub server_next: u32,
    pub syn_count: u32,
    pub synack_count: u32,
    /// Last server SYN/ACK's (seq, ack): identical retransmissions are not
    /// "multiple SYN/ACKs" for Hypothesized New Behavior 2(b).
    pub last_synack: Option<(u32, u32)>,
    /// Most recent client timestamp seen (only consulted when the §8
    /// hardened censor enforces PAWS; the real GFW does not).
    pub ts_recent: Option<u32>,
    /// Overloaded censor: this flow is not inspected at all (§3.4, the
    /// persistent ≈2.8 % no-strategy success rate).
    pub overloaded: bool,
    /// A detection already fired on this flow.
    pub detected: bool,
    /// Monotonic touch stamp assigned by the device's LRU eviction policy
    /// (0 under FIFO eviction, where the insertion order alone decides).
    pub touched: u64,

    /// Type-2 pipeline: reassembled stream + streaming matcher.
    asm: Assembler,
    matcher: StreamMatcher,
    /// Type-1 pipeline: strictly in-order per-packet scan.
    t1_expected: u32,
    /// Response-direction matcher (only when response censoring is on).
    resp_matcher: StreamMatcher,
    overlap: SegmentOverlapPolicy,
}

impl CensorTcb {
    /// TCB created from a client SYN.
    pub fn from_syn(client: (Ipv4Addr, u16), server: (Ipv4Addr, u16), isn: u32, overlap: SegmentOverlapPolicy) -> CensorTcb {
        CensorTcb {
            client,
            server,
            created_by_synack: false,
            state: CensorState::Tracking,
            in_handshake: true,
            client_isn: isn,
            stream_base: isn.wrapping_add(1),
            server_next: 0,
            syn_count: 1,
            synack_count: 0,
            last_synack: None,
            ts_recent: None,
            overloaded: false,
            detected: false,
            touched: 0,
            asm: Assembler::new(overlap),
            matcher: StreamMatcher::new(),
            t1_expected: isn.wrapping_add(1),
            resp_matcher: StreamMatcher::new(),
            overlap,
        }
    }

    /// TCB created from a SYN/ACK (evolved model only): the packet's source
    /// is assumed to be the server, its destination the client, and the
    /// expected client sequence comes from the ACK field.
    pub fn from_synack(
        src_server: (Ipv4Addr, u16),
        dst_client: (Ipv4Addr, u16),
        seq: u32,
        ack: u32,
        overlap: SegmentOverlapPolicy,
    ) -> CensorTcb {
        CensorTcb {
            client: dst_client,
            server: src_server,
            created_by_synack: true,
            state: CensorState::Tracking,
            in_handshake: true,
            client_isn: ack.wrapping_sub(1),
            stream_base: ack,
            server_next: seq.wrapping_add(1),
            syn_count: 0,
            synack_count: 1,
            last_synack: Some((seq, ack)),
            ts_recent: None,
            overloaded: false,
            detected: false,
            touched: 0,
            asm: Assembler::new(overlap),
            matcher: StreamMatcher::new(),
            t1_expected: ack,
            resp_matcher: StreamMatcher::new(),
            overlap,
        }
    }

    /// Is `addr:port` the believed client side?
    pub fn is_client(&self, addr: Ipv4Addr, port: u16) -> bool {
        self.client == (addr, port)
    }

    /// Re-anchor the monitored stream at `seq` and leave the
    /// resynchronization state. All reassembly and matcher state is lost —
    /// this is exactly what the desynchronization building block (§5.1)
    /// exploits.
    pub fn resync_to(&mut self, seq: u32) {
        self.stream_base = seq;
        self.t1_expected = seq;
        self.asm = Assembler::new(self.overlap);
        self.matcher.reset();
        self.state = CensorState::Tracking;
    }

    /// Feed a client→server data segment into both detection pipelines.
    /// Returns all newly detected rule kinds.
    pub fn feed_client_data(&mut self, aut: &Automaton, seq: u32, payload: &[u8], type1: bool, type2: bool) -> Vec<DetectionKind> {
        if self.overloaded || payload.is_empty() {
            return Vec::new();
        }
        let mut hits = Vec::new();

        // Type-1: strict in-order, per-packet scan, no cross-packet state —
        // which is why splitting a request defeats it (§2.1).
        if type1 && seq == self.t1_expected {
            let mut per_packet = StreamMatcher::new();
            for k in per_packet.feed(aut, payload) {
                if !hits.contains(&k) {
                    hits.push(k);
                }
            }
            self.t1_expected = self.t1_expected.wrapping_add(payload.len() as u32);
        }

        // Type-2: windowed reassembly feeding a streaming matcher.
        if type2 {
            let rel = seq.wrapping_sub(self.stream_base);
            if rel < ACCEPT_WINDOW {
                thread_local! {
                    // Reassembled bytes live only for the matcher call
                    // below; one grown scratch serves every TCB on the
                    // thread instead of a fresh Vec per data segment.
                    static PULLED: std::cell::RefCell<Vec<u8>> =
                        const { std::cell::RefCell::new(Vec::new()) };
                }
                self.asm.insert(u64::from(rel), payload);
                PULLED.with(|p| {
                    let mut pulled = p.borrow_mut();
                    pulled.clear();
                    self.asm.pull_into(&mut pulled);
                    if !pulled.is_empty() {
                        for k in self.matcher.feed(aut, &pulled) {
                            if !hits.contains(&k) {
                                hits.push(k);
                            }
                        }
                    }
                });
            }
        }
        hits
    }

    /// Feed server→client data (only used when response censoring is on).
    pub fn feed_server_data(&mut self, aut: &Automaton, payload: &[u8]) -> Vec<DetectionKind> {
        if self.overloaded {
            return Vec::new();
        }
        self.resp_matcher.feed(aut, payload)
    }

    /// Absolute sequence number of the next expected client byte.
    pub fn client_next(&self) -> u32 {
        self.stream_base.wrapping_add(self.asm.head() as u32)
    }
}

/// The device's TCB table: a `FourTuple → u32` index over a dense slab of
/// TCBs whose vacated entries go on a free list. The index buckets stay at
/// 16 bytes while the TCBs themselves live once, packed, in the slab: a
/// map holding the TCBs inline would size every bucket, occupied or not,
/// at a whole TCB, which at the metropolis world's 64k-TCB quota is most
/// of its heap. A dropped table hands its cleared storage to a
/// thread-local pool for the next device on the thread (a trial builds
/// one), so steady-state trials allocate nothing for it.
pub(crate) struct TcbTable {
    index: FxHashMap<FourTuple, u32>,
    slab: Vec<Option<CensorTcb>>,
    /// Vacant slab entries, reused before the slab grows.
    free: Vec<u32>,
}

/// Retired table storage: index, slab and free list, empty but
/// capacity-warm.
type TcbStorage = (FxHashMap<FourTuple, u32>, Vec<Option<CensorTcb>>, Vec<u32>);

std::thread_local! {
    static STORAGE_POOL: std::cell::RefCell<Vec<TcbStorage>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Max retired storages kept per thread (a trial runs one or two devices).
const STORAGE_POOL_CAP: usize = 4;

impl Drop for TcbTable {
    fn drop(&mut self) {
        let mut storage = (
            std::mem::take(&mut self.index),
            std::mem::take(&mut self.slab),
            std::mem::take(&mut self.free),
        );
        storage.0.clear();
        storage.1.clear();
        storage.2.clear();
        let _ = STORAGE_POOL.try_with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < STORAGE_POOL_CAP {
                pool.push(storage);
            }
        });
    }
}

impl TcbTable {
    pub(crate) fn new() -> TcbTable {
        let (index, slab, free) = STORAGE_POOL
            .try_with(|pool| pool.borrow_mut().pop())
            .ok()
            .flatten()
            .unwrap_or_default();
        TcbTable { index, slab, free }
    }

    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    pub(crate) fn contains_key(&self, key: &FourTuple) -> bool {
        self.index.contains_key(key)
    }

    pub(crate) fn get(&self, key: &FourTuple) -> Option<&CensorTcb> {
        self.index.get(key).and_then(|&i| self.slab[i as usize].as_ref())
    }

    pub(crate) fn get_mut(&mut self, key: &FourTuple) -> Option<&mut CensorTcb> {
        self.index.get(key).and_then(|&i| self.slab[i as usize].as_mut())
    }

    /// Insert or replace the TCB for `key`.
    pub(crate) fn insert(&mut self, key: FourTuple, tcb: CensorTcb) {
        if let Some(&i) = self.index.get(&key) {
            self.slab[i as usize] = Some(tcb);
            return;
        }
        let i = match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = Some(tcb);
                i
            }
            None => {
                self.slab.push(Some(tcb));
                u32::try_from(self.slab.len() - 1).expect("a TCB table holds fewer than 2^32 TCBs")
            }
        };
        self.index.insert(key, i);
    }

    pub(crate) fn remove(&mut self, key: &FourTuple) -> Option<CensorTcb> {
        let i = self.index.remove(key)?;
        self.free.push(i);
        self.slab[i as usize].take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpi::shared_paper_rules;

    fn aut() -> Automaton {
        Automaton::build(&shared_paper_rules())
    }

    fn tcb() -> CensorTcb {
        CensorTcb::from_syn(
            (Ipv4Addr::new(10, 0, 0, 1), 40000),
            (Ipv4Addr::new(93, 184, 216, 34), 80),
            999,
            SegmentOverlapPolicy::FirstWins,
        )
    }

    #[test]
    fn type2_detects_split_keyword_but_type1_does_not() {
        let a = aut();
        let mut t = tcb();
        let base = t.stream_base;
        let h1 = t.feed_client_data(&a, base, b"GET /ultra", true, true);
        assert!(h1.is_empty());
        let h2 = t.feed_client_data(&a, base.wrapping_add(10), b"surf HTTP/1.1\r\n\r\n", true, true);
        assert_eq!(h2, vec![DetectionKind::HttpKeyword], "type-2 reassembly catches the split");

        // Type-1 alone misses it.
        let mut t1only = tcb();
        let base = t1only.stream_base;
        assert!(t1only.feed_client_data(&a, base, b"GET /ultra", true, false).is_empty());
        assert!(t1only
            .feed_client_data(&a, base.wrapping_add(10), b"surf HTTP/1.1\r\n\r\n", true, false)
            .is_empty());
    }

    #[test]
    fn resync_discards_all_stream_state() {
        let a = aut();
        let mut t = tcb();
        let base = t.stream_base;
        t.feed_client_data(&a, base, b"GET /ultra", true, true);
        t.state = CensorState::Resync;
        t.resync_to(base.wrapping_add(500_000));
        let hits = t.feed_client_data(&a, base.wrapping_add(10), b"surf", true, true);
        assert!(hits.is_empty(), "old stream position is now out of window");
        assert_eq!(t.state, CensorState::Tracking);
    }

    #[test]
    fn out_of_window_data_ignored_by_type2() {
        let a = aut();
        let mut t = tcb();
        let far = t.stream_base.wrapping_add(ACCEPT_WINDOW + 10);
        let hits = t.feed_client_data(&a, far, b"ultrasurf", false, true);
        assert!(hits.is_empty());
        // ...and behind the base as well (wraps to a huge offset).
        let behind = t.stream_base.wrapping_sub(5_000);
        assert!(t.feed_client_data(&a, behind, b"ultrasurf", false, true).is_empty());
    }

    #[test]
    fn in_order_prefill_blinds_both_pipelines() {
        // The in-order data-overlapping strategy (§3.2): junk at the current
        // sequence is consumed; the real request at the same sequence is
        // then "old" data to both pipelines.
        let a = aut();
        let mut t = tcb();
        let base = t.stream_base;
        let real = b"GET /ultrasurf HTTP/1.1\r\nHost: example.com\r\n\r\n";
        let junk = vec![b'X'; real.len()];
        assert!(t.feed_client_data(&a, base, &junk, true, true).is_empty());
        // Same starting seq; the GFW already consumed the junk, so the real
        // request is entirely "old" data to both pipelines.
        let hits = t.feed_client_data(&a, base, real, true, true);
        assert!(hits.is_empty(), "prefilled censor misses the real request: {hits:?}");
    }

    #[test]
    fn synack_created_tcb_is_reversed() {
        let server_believed = (Ipv4Addr::new(10, 0, 0, 1), 40000); // actually the client!
        let client_believed = (Ipv4Addr::new(93, 184, 216, 34), 80);
        let t = CensorTcb::from_synack(server_believed, client_believed, 7000, 3001, SegmentOverlapPolicy::FirstWins);
        assert!(t.created_by_synack);
        assert_eq!(t.server, server_believed);
        assert_eq!(t.client, client_believed);
        assert_eq!(t.stream_base, 3001, "expected client seq comes from the ACK field");
        assert!(t.is_client(client_believed.0, client_believed.1));
    }

    #[test]
    fn overloaded_tcb_sees_nothing() {
        let a = aut();
        let mut t = tcb();
        t.overloaded = true;
        let base = t.stream_base;
        assert!(t.feed_client_data(&a, base, b"ultrasurf", true, true).is_empty());
    }

    fn syn_tcb(k: FourTuple, isn: u32) -> CensorTcb {
        CensorTcb::from_syn((k.src, k.src_port), (k.dst, k.dst_port), isn, SegmentOverlapPolicy::FirstWins)
    }

    #[test]
    fn tcb_table_matches_a_hash_map_reference() {
        // Few distinct keys, so inserts collide with live keys and removes
        // hit as often as they miss, and the free list is reused.
        let key = |n: u32| FourTuple::new(Ipv4Addr::new(10, 0, 0, 1), 40_000 + n as u16, Ipv4Addr::new(93, 184, 216, 34), 80);
        let mut rng = intang_netsim::SimRng::seed_from(2017);
        let mut table = TcbTable::new();
        let mut reference: FxHashMap<FourTuple, u32> = FxHashMap::default();
        for step in 0..20_000 {
            let k = key(rng.range_u32(0, 64));
            match rng.range_u32(0, 3) {
                0 => {
                    let isn = rng.next_u32();
                    table.insert(k, syn_tcb(k, isn));
                    reference.insert(k, isn);
                }
                1 => {
                    let got = table.remove(&k).map(|t| t.client_isn);
                    assert_eq!(got, reference.remove(&k), "step {step}: remove");
                }
                _ => {
                    if let Some(t) = table.get_mut(&k) {
                        t.client_isn = t.client_isn.wrapping_add(1);
                    }
                    if let Some(isn) = reference.get_mut(&k) {
                        *isn = isn.wrapping_add(1);
                    }
                }
            }
            assert_eq!(table.len(), reference.len(), "step {step}: len");
            assert_eq!(table.contains_key(&k), reference.contains_key(&k), "step {step}: contains");
            assert_eq!(table.get(&k).map(|t| t.client_isn), reference.get(&k).copied(), "step {step}: get");
        }
        assert!(table.slab.len() <= 64, "vacated entries are reused: slab of {}", table.slab.len());
        assert_eq!(table.slab.iter().flatten().count(), table.len(), "vacated entries hold no TCB");
        for n in 0..64 {
            assert_eq!(table.get(&key(n)).map(|t| t.client_isn), reference.get(&key(n)).copied());
        }
    }

    #[test]
    fn a_dropped_tcb_table_lends_its_storage_to_the_next() {
        let mut table = TcbTable::new();
        for n in 0..100u16 {
            let k = FourTuple::new(Ipv4Addr::new(10, 0, 0, 1), n, Ipv4Addr::new(93, 184, 216, 34), 80);
            table.insert(k, syn_tcb(k, 1));
        }
        let (index_cap, slab_cap) = (table.index.capacity(), table.slab.capacity());
        drop(table);
        let next = TcbTable::new();
        assert_eq!(next.len(), 0);
        assert!(next.slab.is_empty() && next.free.is_empty());
        assert_eq!((next.index.capacity(), next.slab.capacity()), (index_cap, slab_cap));
    }

    #[test]
    fn client_next_tracks_consumed_stream() {
        let a = aut();
        let mut t = tcb();
        let base = t.stream_base;
        t.feed_client_data(&a, base, b"12345", false, true);
        assert_eq!(t.client_next(), base.wrapping_add(5));
    }
}
