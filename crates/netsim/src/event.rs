//! The event queue: a hierarchical timing wheel with FIFO tie-breaking.
//!
//! Replaces the original `BinaryHeap` queue with a two-tier structure
//! shaped by the simulator's delay distribution:
//!
//! * **Front tier** — all events inside the cursor's current 4096 µs
//!   *epoch* (the level-0 span) live in a small binary min-heap keyed by
//!   `(time, insertion-seq)`. Simulated deadlines cluster at the
//!   link-latency scale (~1 ms), so the overwhelming majority of events
//!   spend their whole life here, at contiguous-array heap speed — a slot
//!   array at 1 µs granularity pays a cache miss per touched slot, which
//!   benches (`queue/*`) showed is slower than the heap at simulation
//!   queue sizes (tens of events).
//! * **Upper tiers** — five classic wheel levels of 64 slots (6 bits per
//!   level, 2^42 µs ≈ 52-day horizon) absorb far deadlines with O(1)
//!   pushes and per-level occupancy bitmaps, so retransmit timeouts and
//!   quiescence guards never bloat the front heap. Anything beyond the
//!   horizon waits in an overflow list and migrates in when the cursor
//!   catches up.
//!
//! The epoch only advances when the front heap is empty (a cascade or an
//! overflow migration), which is what makes the split sound: every front
//! event precedes every upper-level event, and upper levels are totally
//! ordered among themselves by the shared cursor prefix.
//!
//! **Memory is bounded by live events.** Every upper-level event sits in
//! one node of a single slab, threaded into its slot's singly linked list;
//! a free list recycles nodes. A push takes a free node, and a cascade
//! relinks each node into its lower slot, freeing only the nodes whose
//! events enter the front heap. The slab grows only when the free list is
//! empty, so its length is the peak number of upper-level events — not
//! the sum of every slot's own peak, which per-slot buckets would each
//! keep as capacity. Order within a slot list is irrelevant: the front
//! heap orders by `(time, insertion-seq)` whatever order entries arrive
//! in. The slab and the front heap's buffer are recycled through a
//! thread-local pool across `EventQueue` lifetimes (a simulation is built
//! per trial), so queue construction and steady-state operation stay off
//! the allocator.
//!
//! Pop order is **exactly** `(time, insertion-seq)` — identical to the old
//! heap, including pushes scheduled in the past (they clamp to the cursor's
//! epoch and pop immediately, still ordered by their original timestamp).
//! Golden traces and the determinism suite depend on this;
//! `tests/properties.rs` drives randomized interleavings, shallow and at
//! metropolis depth, against a reference heap to lock it in.

use crate::element::Direction;
use crate::time::Instant;
use crate::trace::TraceId;
use intang_packet::Wire;
use std::collections::BinaryHeap;

/// Something scheduled to happen.
#[derive(Debug)]
pub enum Event {
    /// Deliver `wire`, traveling in `dir`, to element `elem`. `cause` is
    /// the trace id of the emission that put the packet in flight (lineage
    /// threading; `None` when tracing is off or the packet was injected).
    Deliver {
        elem: usize,
        dir: Direction,
        wire: Wire,
        cause: Option<TraceId>,
    },
    /// Fire element `elem`'s timer with `token`.
    Timer { elem: usize, token: u64 },
}

#[derive(Debug)]
struct Queued {
    at: Instant,
    seq: u64,
    event: Event,
}

/// Front-heap entry: min-heap by `(at, seq)` (comparison reversed for
/// `std`'s max-heap).
#[derive(Debug)]
struct FrontItem(Queued);

impl PartialEq for FrontItem {
    fn eq(&self, other: &Self) -> bool {
        (self.0.at, self.0.seq) == (other.0.at, other.0.seq)
    }
}
impl Eq for FrontItem {}
impl PartialOrd for FrontItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FrontItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.0.at, other.0.seq).cmp(&(self.0.at, self.0.seq))
    }
}

/// One slab node: an upper-level event and the next node on its list.
#[derive(Debug)]
struct Node {
    /// The event while the node is on a slot list; `None` on the free
    /// list, so a freed node holds no packet buffer.
    q: Option<Queued>,
    /// Next node on the same slot list or the free list; [`NIL`] ends it.
    next: u32,
}

/// End-of-list marker for slot lists and the free list.
const NIL: u32 = u32::MAX;

/// The front tier spans one `1 << L0_BITS` µs epoch of the cursor.
const L0_BITS: usize = 12;
/// Bits per upper wheel level; each upper level has 64 slots.
const LEVEL_BITS: usize = 6;
const SLOTS: usize = 1 << LEVEL_BITS;
/// Upper levels above the front tier.
const UP_LEVELS: usize = 5;
/// Times within `wheel_now + 2^HORIZON_BITS` µs live in the wheel proper.
const HORIZON_BITS: u32 = (L0_BITS + LEVEL_BITS * UP_LEVELS) as u32;
const TOTAL_SLOTS: usize = UP_LEVELS * SLOTS;

/// Where an event time belongs relative to the cursor.
enum Place {
    /// The cursor's epoch: the front heap.
    Front,
    /// Upper level `up`, slot `slot`.
    Upper { up: usize, slot: usize },
    /// Beyond the wheel horizon.
    Overflow,
}

/// Deterministic event queue: pops strictly in `(time, insertion order)`.
#[derive(Debug)]
pub struct EventQueue {
    /// Current-epoch events, popped directly.
    front: BinaryHeap<FrontItem>,
    /// Every upper-level event, one node each, plus the free nodes
    /// (recycled via the thread-local storage pool). Grows only when the
    /// free list is empty, so its length is the peak upper-level count.
    nodes: Vec<Node>,
    /// First node of each upper-level slot's list, level-major; [`NIL`]
    /// when the slot is empty.
    heads: [u32; TOTAL_SLOTS],
    /// First node of the free list.
    free: u32,
    /// Per-upper-level occupancy bitmap: bit `s` set ⇔ slot `s` of that
    /// level has a non-empty list.
    occ_up: [u64; UP_LEVELS],
    /// The wheel cursor: a lower bound on every event time in the wheel
    /// (monotone; only ever advanced to popped times / cascade slot bases).
    /// Its bits above `L0_BITS` name the front epoch.
    wheel_now: u64,
    /// Events currently in upper-level slots (excludes front and overflow).
    upper_len: usize,
    /// Events beyond the wheel horizon, unordered; migrated in when the
    /// wheel drains. Every overflow time exceeds every wheel time.
    overflow: Vec<Queued>,
    next_seq: u64,
    len: usize,
    /// Deliver events currently queued (packets in flight, excluding
    /// timers) — a gauge for the telemetry time-series.
    deliver_len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

/// Retired queue storage: the node slab plus the front heap's buffer,
/// both empty but capacity-warm.
type RetiredStorage = (Vec<Node>, Vec<FrontItem>);

std::thread_local! {
    /// Retired (slab, front-buffer) storage, capacity-warm. A simulation
    /// is built per trial; recycling keeps queue construction off the
    /// allocator.
    static STORAGE_POOL: std::cell::RefCell<Vec<RetiredStorage>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Max retired storages kept per thread (sims rarely nest deeper).
const STORAGE_POOL_CAP: usize = 4;

/// Slab index of node `n`.
fn ix(n: u32) -> usize {
    usize::try_from(n).expect("node indices fit usize")
}

impl Drop for EventQueue {
    fn drop(&mut self) {
        // Clearing the slab drops any events a mid-run queue still holds;
        // the emptied storage goes back to the pool.
        let mut nodes = std::mem::take(&mut self.nodes);
        nodes.clear();
        let mut front_buf = std::mem::take(&mut self.front).into_vec();
        front_buf.clear();
        let _ = STORAGE_POOL.try_with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < STORAGE_POOL_CAP {
                pool.push((nodes, front_buf));
            }
        });
    }
}

impl EventQueue {
    pub fn new() -> Self {
        let (nodes, front_buf) = STORAGE_POOL
            .try_with(|pool| pool.borrow_mut().pop())
            .ok()
            .flatten()
            .unwrap_or_default();
        EventQueue {
            front: BinaryHeap::from(front_buf),
            nodes,
            heads: [NIL; TOTAL_SLOTS],
            free: NIL,
            occ_up: [0; UP_LEVELS],
            wheel_now: 0,
            upper_len: 0,
            overflow: Vec::new(),
            next_seq: 0,
            len: 0,
            deliver_len: 0,
        }
    }

    pub fn push(&mut self, at: Instant, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        if matches!(event, Event::Deliver { .. }) {
            self.deliver_len += 1;
        }
        self.insert(Queued { at, seq, event });
    }

    /// Where time `at` belongs. Past-due times clamp to the cursor (current
    /// epoch), where the front heap's `(at, seq)` order still yields them
    /// first.
    fn place(&self, at: Instant) -> Place {
        let t = at.0.max(self.wheel_now);
        let masked = t ^ self.wheel_now;
        if masked >> L0_BITS == 0 {
            // Same epoch as the cursor: the common, cascade-free case.
            return Place::Front;
        }
        if masked >> HORIZON_BITS != 0 {
            return Place::Overflow;
        }
        // The highest differing bit picks the upper level; within it, the
        // time's own 6-bit block picks the slot.
        let up = ((63 - masked.leading_zeros()) as usize - L0_BITS) / LEVEL_BITS;
        let slot = ((t >> (L0_BITS + up * LEVEL_BITS)) & (SLOTS - 1) as u64) as usize;
        Place::Upper { up, slot }
    }

    /// Place one entry into the front heap, an upper-level slot, or the
    /// overflow.
    fn insert(&mut self, q: Queued) {
        match self.place(q.at) {
            Place::Front => self.front.push(FrontItem(q)),
            Place::Upper { up, slot } => {
                let n = self.alloc_node(q);
                self.link(up, slot, n);
                self.upper_len += 1;
            }
            Place::Overflow => self.overflow.push(q),
        }
    }

    /// A node holding `q`: the head of the free list, else a new one.
    fn alloc_node(&mut self, q: Queued) -> u32 {
        if self.free == NIL {
            let n = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&n| n != NIL)
                .expect("upper-level events fit u32 node indices");
            self.nodes.push(Node { q: Some(q), next: NIL });
            return n;
        }
        let n = self.free;
        let node = &mut self.nodes[ix(n)];
        self.free = node.next;
        node.q = Some(q);
        n
    }

    /// Push node `n` onto the list of upper level `up`, slot `slot`.
    fn link(&mut self, up: usize, slot: usize, n: u32) {
        let head = &mut self.heads[up * SLOTS + slot];
        self.nodes[ix(n)].next = *head;
        *head = n;
        self.occ_up[up] |= 1 << slot;
    }

    /// Refill the wheel from overflow once it drains. Sound because every
    /// overflow time is strictly beyond every wheel time (they differ from
    /// the cursor above the horizon bit), so migration can never reorder.
    fn migrate_overflow(&mut self) {
        debug_assert!(self.front.is_empty() && self.upper_len == 0 && !self.overflow.is_empty());
        let min_at = self.overflow.iter().map(|q| q.at.0).min().expect("overflow non-empty");
        self.wheel_now = self.wheel_now.max(min_at);
        let pending = std::mem::take(&mut self.overflow);
        for q in pending {
            self.insert(q);
        }
    }

    /// The earliest occupied upper slot as `(level, slot)`, if any.
    fn first_upper(&self) -> Option<(usize, usize)> {
        let up = self.occ_up.iter().position(|&bits| bits != 0)?;
        Some((up, self.occ_up[up].trailing_zeros() as usize))
    }

    pub fn pop(&mut self) -> Option<(Instant, Event)> {
        self.settle_front();
        let FrontItem(q) = self.front.pop()?;
        // The front min is the global min: upper levels and overflow hold
        // strictly-later epochs only.
        self.len -= 1;
        if matches!(q.event, Event::Deliver { .. }) {
            self.deliver_len -= 1;
        }
        self.wheel_now = self.wheel_now.max(q.at.0);
        Some((q.at, q.event))
    }

    /// Time of the next event [`pop`](Self::pop) returns. Settles the front
    /// as `pop` does, cascading the earliest upper slot or migrating the
    /// overflow if the front is empty, so a peek followed by a pop walks
    /// that slot once.
    pub fn peek_time(&mut self) -> Option<Instant> {
        self.settle_front();
        self.front.peek().map(|FrontItem(q)| q.at)
    }

    /// Refill an empty front from the upper levels or the overflow until it
    /// holds the global minimum (a no-op on an empty queue).
    fn settle_front(&mut self) {
        while self.front.is_empty() && self.len > 0 {
            match self.first_upper() {
                Some((up, slot)) => self.cascade(up, slot),
                None => self.migrate_overflow(),
            }
        }
    }

    /// Advance the cursor to the base time of upper slot `(up, slot)` — the
    /// earliest occupied one — and move its entries down: each lands in the
    /// (new) front epoch or a strictly lower upper level. Upper levels are
    /// totally ordered: every level-u event precedes every level-(u+1)
    /// event (shared cursor prefix above block u). Nodes that stay upper
    /// are relinked in place; only those entering the front are freed.
    fn cascade(&mut self, up: usize, slot: usize) {
        let shift = L0_BITS + up * LEVEL_BITS;
        let base = (self.wheel_now & (!0u64 << (shift + LEVEL_BITS))) | ((slot as u64) << shift);
        debug_assert!(base > self.wheel_now);
        self.wheel_now = base;
        self.occ_up[up] &= !(1 << slot);
        let mut n = std::mem::replace(&mut self.heads[up * SLOTS + slot], NIL);
        while n != NIL {
            let node = &mut self.nodes[ix(n)];
            let next = node.next;
            let at = node.q.as_ref().expect("a listed node holds an event").at;
            match self.place(at) {
                Place::Upper { up: lower, slot } => self.link(lower, slot, n),
                Place::Front => {
                    let node = &mut self.nodes[ix(n)];
                    let q = node.q.take().expect("a listed node holds an event");
                    node.next = self.free;
                    self.free = n;
                    self.upper_len -= 1;
                    self.front.push(FrontItem(q));
                }
                Place::Overflow => unreachable!("a cascading event shares the cursor's prefix above its level"),
            }
            n = next;
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// Deliver events currently queued — packets in flight, excluding
    /// timers (see [`intang_telemetry::series::GaugeId::InflightPackets`]).
    pub fn deliver_len(&self) -> usize {
        self.deliver_len
    }

    /// Simcheck probe: every queued event must sit in exactly one of the
    /// front heap, an upper-level slot, or the overflow, and the
    /// bookkeeping totals must agree. Returns a description of the
    /// imbalance, or `None` when coherent. O(1).
    pub fn structural_imbalance(&self) -> Option<String> {
        let held = self.front.len() + self.upper_len + self.overflow.len();
        (held != self.len).then(|| {
            format!(
                "event queue holds {held} events (front {} + upper {} + overflow {}) but len says {}",
                self.front.len(),
                self.upper_len,
                self.overflow.len(),
                self.len
            )
        })
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn token_of(e: Event) -> u64 {
        match e {
            Event::Timer { token, .. } => token,
            _ => unreachable!(),
        }
    }

    fn drain(q: &mut EventQueue) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| q.pop()).map(|(at, e)| (at.0, token_of(e))).collect()
    }

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut q = EventQueue::new();
        q.push(Instant(10), Event::Timer { elem: 0, token: 1 });
        q.push(Instant(5), Event::Timer { elem: 0, token: 2 });
        q.push(Instant(10), Event::Timer { elem: 0, token: 3 });
        let order: Vec<u64> = drain(&mut q).into_iter().map(|(_, t)| t).collect();
        assert_eq!(order, vec![2, 1, 3], "time order, then insertion order");
    }

    #[test]
    fn peek_time() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(Instant(7), Event::Timer { elem: 1, token: 0 });
        assert_eq!(q.peek_time(), Some(Instant(7)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn cascades_across_levels() {
        let mut q = EventQueue::new();
        // One event per wheel level, pushed in reverse time order.
        let times = [1u64 << 32, 1 << 20, 1 << 13, 70, 3];
        for (i, &t) in times.iter().enumerate() {
            q.push(Instant(t), Event::Timer { elem: 0, token: i as u64 });
        }
        assert_eq!(q.peek_time(), Some(Instant(3)));
        let mut sorted = times.to_vec();
        sorted.sort_unstable();
        assert_eq!(drain(&mut q).into_iter().map(|(at, _)| at).collect::<Vec<_>>(), sorted);
    }

    #[test]
    fn past_due_push_pops_first_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Instant(100), Event::Timer { elem: 0, token: 0 });
        assert_eq!(q.pop().unwrap().0, Instant(100));
        // The cursor sits at 100; these land in its epoch but must still
        // pop by (time, seq).
        q.push(Instant(40), Event::Timer { elem: 0, token: 1 });
        q.push(Instant(7), Event::Timer { elem: 0, token: 2 });
        q.push(Instant(40), Event::Timer { elem: 0, token: 3 });
        q.push(Instant(100), Event::Timer { elem: 0, token: 4 });
        assert_eq!(q.peek_time(), Some(Instant(7)));
        assert_eq!(drain(&mut q), vec![(7, 2), (40, 1), (40, 3), (100, 4)]);
    }

    #[test]
    fn overflow_beyond_horizon_migrates_back() {
        let far = 1u64 << 43; // past the 2^42 µs horizon
        let mut q = EventQueue::new();
        q.push(Instant(far + 1), Event::Timer { elem: 0, token: 0 });
        q.push(Instant(5), Event::Timer { elem: 0, token: 1 });
        q.push(Instant(far), Event::Timer { elem: 0, token: 2 });
        assert_eq!(q.peek_time(), Some(Instant(5)));
        assert_eq!(drain(&mut q), vec![(5, 1), (far, 2), (far + 1, 0)]);
        assert!(q.is_empty());
    }

    #[test]
    fn epoch_boundary_keeps_order() {
        // Events straddling a 4096 µs epoch edge: the later one waits in
        // an upper level and cascades into the front only after the epoch
        // advances.
        let mut q = EventQueue::new();
        q.push(Instant(4_095), Event::Timer { elem: 0, token: 0 });
        q.push(Instant(4_097), Event::Timer { elem: 0, token: 1 });
        q.push(Instant(4_096), Event::Timer { elem: 0, token: 2 });
        assert_eq!(drain(&mut q), vec![(4_095, 0), (4_096, 2), (4_097, 1)]);
    }

    #[test]
    fn deliver_len_tracks_only_deliver_events() {
        let mut q = EventQueue::new();
        q.push(Instant(1), Event::Timer { elem: 0, token: 0 });
        q.push(
            Instant(2),
            Event::Deliver {
                elem: 0,
                dir: Direction::ToServer,
                wire: vec![1, 2, 3].into(),
                cause: None,
            },
        );
        q.push(
            Instant(2),
            Event::Deliver {
                elem: 0,
                dir: Direction::ToServer,
                wire: vec![4].into(),
                cause: None,
            },
        );
        assert_eq!(q.deliver_len(), 2);
        assert_eq!(q.len(), 3);
        q.pop(); // timer
        assert_eq!(q.deliver_len(), 2);
        q.pop();
        assert_eq!(q.deliver_len(), 1);
        q.pop();
        assert_eq!(q.deliver_len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_keeps_global_order() {
        let mut q = EventQueue::new();
        q.push(Instant(50), Event::Timer { elem: 0, token: 0 });
        q.push(Instant(10), Event::Timer { elem: 0, token: 1 });
        assert_eq!(q.pop().unwrap().0, Instant(10));
        q.push(Instant(20), Event::Timer { elem: 0, token: 2 });
        q.push(Instant(50), Event::Timer { elem: 0, token: 3 });
        assert_eq!(drain(&mut q), vec![(20, 2), (50, 0), (50, 3)]);
    }

    #[test]
    fn slab_never_outgrows_the_peak_upper_occupancy() {
        // ~2k resident events, each re-armed 4 ms to 250 ms out (level 1,
        // the first upper level, spilling into level 2), churned until the
        // cursor has swept all 64 level-1 slots several times. Per-slot
        // storage would keep each slot's own peak; the slab may hold only
        // the peak of the total.
        let mut q = EventQueue::new();
        let mut rng = 0x2017_u64;
        let mut delay = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            4_096 + rng % 250_000
        };
        for _ in 0..2_000 {
            q.push(Instant(delay()), Event::Timer { elem: 0, token: 0 });
        }
        // Bit `s` set: the cursor's epoch has sat in level-1 slot `s`.
        let cursor_slot = |q: &EventQueue| 1u64 << ((q.wheel_now >> L0_BITS) & (SLOTS as u64 - 1));
        let (mut peak, mut visited) = (q.upper_len, cursor_slot(&q));
        assert!(q.nodes.len() <= peak);
        for _ in 0..40_000 {
            let (at, _) = q.pop().expect("resident events");
            q.push(Instant(at.0 + delay()), Event::Timer { elem: 0, token: 0 });
            peak = peak.max(q.upper_len);
            visited |= cursor_slot(&q);
            assert!(q.nodes.len() <= peak, "slab {} > peak upper occupancy {peak}", q.nodes.len());
        }
        assert_eq!(visited, u64::MAX, "the cursor passed through every level-1 slot");
        assert!(q.wheel_now > 4 * ((SLOTS as u64) << L0_BITS), "and swept level 1 repeatedly");
        assert!(q.structural_imbalance().is_none());
    }
}
