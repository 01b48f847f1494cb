//! Event-queue benchmarks: the timing wheel under simulation-shaped load.
//!
//! The sweep's per-event budget is a few hundred nanoseconds, so queue
//! push/pop overhead is a first-order term. These benches replay the
//! queue access patterns the simulator actually produces — small resident
//! queues (tens of events), link-delay pushes clustered at the
//! millisecond scale, and an advancing time cursor — and compare against
//! a `BinaryHeap` reference to keep the wheel honest. The `metro-80k`
//! cases hold a metropolis world's depth instead: ~80k resident timers,
//! most of them far out, so they exercise the upper wheel levels, their
//! node slab and the cascades that the small churns never reach.

use intang_bench::harness::bench_elems;
use intang_netsim::event::{Event, EventQueue};
use intang_netsim::Instant;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

/// Deterministic xorshift so both queues see identical schedules.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Simulation-shaped delays: mostly ~1 ms link hops, some short timers,
/// occasional long (retransmit-scale) deadlines.
fn delay(rng: &mut Rng) -> u64 {
    match rng.next() % 10 {
        0..=5 => 1_000 + rng.next() % 512,
        6..=7 => 1 + rng.next() % 64,
        8 => 15_000 + rng.next() % 4_096,
        _ => 200_000 + rng.next() % 65_536,
    }
}

/// Steady-state churn: hold `resident` events, then pop one / push one per
/// step, cursor advancing like sim time.
fn churn_wheel(resident: usize, steps: u64) -> u64 {
    let mut q = EventQueue::new();
    let mut rng = Rng(0x2017_1cc7);
    let mut now = 0u64;
    for _ in 0..resident {
        q.push(Instant(now + delay(&mut rng)), Event::Timer { elem: 0, token: 0 });
    }
    let mut acc = 0u64;
    for _ in 0..steps {
        let (at, _) = q.pop().expect("resident events");
        now = at.0;
        acc = acc.wrapping_add(now);
        q.push(Instant(now + delay(&mut rng)), Event::Timer { elem: 0, token: 0 });
    }
    acc
}

fn churn_heap(resident: usize, steps: u64) -> u64 {
    let mut q: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
    let mut rng = Rng(0x2017_1cc7);
    let mut now = 0u64;
    let mut seq = 0u64;
    for _ in 0..resident {
        q.push(Reverse((now + delay(&mut rng), seq, 0)));
        seq += 1;
    }
    let mut acc = 0u64;
    for _ in 0..steps {
        let Reverse((at, _, _)) = q.pop().expect("resident events");
        now = at;
        acc = acc.wrapping_add(now);
        q.push(Reverse((now + delay(&mut rng), seq, 0)));
        seq += 1;
    }
    acc
}

/// The metropolis timer mix at the 100k-flow world's depth, as
/// `(resident, base delay µs, spread µs)` per kind: 30 s server-cell
/// backstops, client and server-cell re-arms 0.5–1 s out, and packets in
/// flight 1–3 ms out. Timers are ~17% of pops, as in the world (853k
/// timers among 5.67M events). Each popped event re-arms its own kind,
/// so the mix and the ~80k depth hold steady.
const METRO_MIX: [(usize, u64, u64); 3] = [(64_000, 30_000_000, 1_000), (16_000, 500_000, 500_000), (200, 1_000, 2_000)];

/// `(initial time, kind)` for every resident event — spread uniformly over
/// each kind's whole delay range, as a running world holds them.
fn metro_prefill(rng: &mut Rng) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for (kind, &(resident, base, spread)) in METRO_MIX.iter().enumerate() {
        for _ in 0..resident {
            out.push((rng.next() % (base + spread), kind as u64));
        }
    }
    out
}

fn metro_delay(kind: u64, rng: &mut Rng) -> u64 {
    let (_, base, spread) = METRO_MIX[kind as usize];
    base + rng.next() % spread
}

/// A wheel at metro depth; each call runs `steps` pop/re-arm steps on it.
fn metro_wheel(steps: u64) -> impl FnMut() -> u64 {
    let mut rng = Rng(0x2017_1cc7);
    let mut q = EventQueue::new();
    for (at, kind) in metro_prefill(&mut rng) {
        q.push(Instant(at), Event::Timer { elem: 0, token: kind });
    }
    move || {
        let mut acc = 0u64;
        for _ in 0..steps {
            let (at, event) = q.pop().expect("resident events");
            let Event::Timer { token: kind, .. } = event else {
                unreachable!("only timers are pushed")
            };
            acc = acc.wrapping_add(at.0);
            q.push(Instant(at.0 + metro_delay(kind, &mut rng)), Event::Timer { elem: 0, token: kind });
        }
        acc
    }
}

fn metro_heap(steps: u64) -> impl FnMut() -> u64 {
    let mut rng = Rng(0x2017_1cc7);
    let mut q: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
    let mut seq = 0u64;
    for (at, kind) in metro_prefill(&mut rng) {
        q.push(Reverse((at, seq, kind)));
        seq += 1;
    }
    move || {
        let mut acc = 0u64;
        for _ in 0..steps {
            let Reverse((at, _, kind)) = q.pop().expect("resident events");
            acc = acc.wrapping_add(at);
            q.push(Reverse((at + metro_delay(kind, &mut rng), seq, kind)));
            seq += 1;
        }
        acc
    }
}

fn main() {
    const STEPS: u64 = 4_096;
    for resident in [8usize, 32, 256] {
        bench_elems(&format!("queue/wheel/churn-{resident}"), STEPS, || {
            black_box(churn_wheel(resident, STEPS))
        });
        bench_elems(&format!("queue/heap-ref/churn-{resident}"), STEPS, || {
            black_box(churn_heap(resident, STEPS))
        });
    }
    // Metro depth: the queue persists across iterations, so each one times
    // only steady-state steps, not the 80k-event fill.
    let mut wheel = metro_wheel(STEPS);
    bench_elems("queue/wheel/metro-80k", STEPS, || black_box(wheel()));
    let mut heap = metro_heap(STEPS);
    bench_elems("queue/heap-ref/metro-80k", STEPS, || black_box(heap()));
}
