//! The engine's event queue: a one-cycle-bucket timing wheel with an
//! overflow heap for events beyond its horizon.
//!
//! Almost every event the engine schedules lands within a few hundred
//! cycles of the current time (L1→L2 and probe latencies, a bank access,
//! the 400-cycle DRAM response), so a wheel of [`WHEEL`] one-cycle
//! buckets holds nearly all of them. Each bucket is a FIFO linked through
//! a node slab; an occupancy bitmap finds the next non-empty bucket with
//! `trailing_zeros`, so empty cycles cost nothing. Events at or beyond
//! `now + WHEEL` (a deep link backlog, a long backoff) wait in a binary
//! heap keyed by `(time, seq)`.
//!
//! **Order.** Pops come out in exactly `(time, seq)` order, `seq` being
//! push order, which the simulation's results depend on:
//!
//! - The wheel covers `[now, now + WHEEL)` and every pending event is at
//!   or after `now`, so a bucket only ever holds events of one time.
//!   Within it, FIFO append order is push order.
//! - Whenever `now` advances, every overflow event whose time has entered
//!   the window migrates into its bucket, in `(time, seq)` order, before
//!   the caller can push again. An overflow event at time `t` was pushed
//!   while `t` was still beyond the horizon, so it precedes every direct
//!   push at `t`; migrating first keeps the bucket in push order.
//! - Overflow times are always beyond the window, hence later than every
//!   wheel event; when the wheel is empty the queue jumps `now` to the
//!   heap's minimum.
//!
//! Pushing an event before `now` would break the first point, so it
//! panics.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Buckets in the wheel: its horizon in cycles. A power of two.
const WHEEL: usize = 1024;
const MASK: usize = WHEEL - 1;
const WORDS: usize = WHEEL / 64;
/// End-of-list marker for slab links.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node<E> {
    ev: E,
    /// Next node in the bucket's FIFO, or in the free list.
    next: u32,
}

/// A FIFO of slab nodes.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

const EMPTY_BUCKET: Bucket = Bucket {
    head: NIL,
    tail: NIL,
};

/// Min-ordered event queue over `(time, push order)`.
#[derive(Debug)]
pub(super) struct EventQueue<E> {
    /// Time of the last popped event; no pending event is earlier.
    now: u64,
    /// Push counter, the tie-break among overflow events.
    seq: u64,
    /// Node slab shared by wheel buckets and overflow entries; freed
    /// nodes are chained through `free`, so the slab's size tracks the
    /// outstanding event count, not the total ever pushed.
    nodes: Vec<Node<E>>,
    free: u32,
    buckets: Box<[Bucket; WHEEL]>,
    /// Bit `b` set iff bucket `b` is non-empty.
    occupied: [u64; WORDS],
    /// Events in the wheel (not counting the overflow heap).
    in_wheel: usize,
    /// Events at or beyond the horizon: `(time, seq, node)`.
    overflow: BinaryHeap<Reverse<(u64, u64, u32)>>,
}

impl<E: Copy> EventQueue<E> {
    pub(super) fn new() -> Self {
        EventQueue {
            now: 0,
            seq: 0,
            nodes: Vec::new(),
            free: NIL,
            buckets: Box::new([EMPTY_BUCKET; WHEEL]),
            occupied: [0; WORDS],
            in_wheel: 0,
            overflow: BinaryHeap::new(),
        }
    }

    /// Pending events.
    #[cfg(test)]
    pub(super) fn len(&self) -> usize {
        self.in_wheel + self.overflow.len()
    }

    /// Schedules `ev` at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is before the last popped event's time.
    #[inline]
    pub(super) fn push(&mut self, time: u64, ev: E) {
        assert!(
            time >= self.now,
            "event scheduled in the past: {time} < {}",
            self.now
        );
        self.seq += 1;
        let node = self.alloc(ev);
        if time - self.now < WHEEL as u64 {
            self.link(time as usize & MASK, node);
        } else {
            self.overflow.push(Reverse((time, self.seq, node)));
        }
    }

    /// Removes and returns the earliest event with its time.
    #[inline]
    pub(super) fn pop(&mut self) -> Option<(u64, E)> {
        if self.in_wheel == 0 {
            // Jump over the empty wheel to the overflow's earliest time.
            let &Reverse((time, _, _)) = self.overflow.peek()?;
            self.advance(time);
        }
        let from = self.now as usize & MASK;
        let b = self.next_occupied(from);
        let time = self.now + ((b.wrapping_sub(from)) & MASK) as u64;
        if time != self.now {
            self.advance(time);
        }
        let bucket = &mut self.buckets[b];
        let n = bucket.head;
        let node = self.nodes[n as usize];
        bucket.head = node.next;
        if node.next == NIL {
            bucket.tail = NIL;
            self.occupied[b / 64] &= !(1 << (b % 64));
        }
        self.in_wheel -= 1;
        self.nodes[n as usize].next = self.free;
        self.free = n;
        Some((time, node.ev))
    }

    /// Moves `now` forward to `time` and migrates every overflow event
    /// that the new window now covers.
    fn advance(&mut self, time: u64) {
        self.now = time;
        while let Some(&Reverse((t, _, node))) = self.overflow.peek() {
            if t - time >= WHEEL as u64 {
                break;
            }
            self.overflow.pop();
            self.link(t as usize & MASK, node);
        }
    }

    /// First non-empty bucket at or after `from`, wrapping around. The
    /// wheel must be non-empty.
    #[inline]
    fn next_occupied(&self, from: usize) -> usize {
        let w = from / 64;
        let bits = self.occupied[w] & (!0u64 << (from % 64));
        if bits != 0 {
            return w * 64 + bits.trailing_zeros() as usize;
        }
        for i in 1..=WORDS {
            let wi = (w + i) % WORDS;
            if self.occupied[wi] != 0 {
                return wi * 64 + self.occupied[wi].trailing_zeros() as usize;
            }
        }
        unreachable!("next_occupied on an empty wheel")
    }

    #[inline]
    fn alloc(&mut self, ev: E) -> u32 {
        if self.free != NIL {
            let n = self.free;
            let node = &mut self.nodes[n as usize];
            self.free = node.next;
            *node = Node { ev, next: NIL };
            n
        } else {
            assert!(self.nodes.len() < NIL as usize, "event slab overflow");
            self.nodes.push(Node { ev, next: NIL });
            (self.nodes.len() - 1) as u32
        }
    }

    /// Appends `node` to bucket `b`'s FIFO.
    #[inline]
    fn link(&mut self, b: usize, node: u32) {
        self.nodes[node as usize].next = NIL;
        let bucket = &mut self.buckets[b];
        if bucket.tail == NIL {
            bucket.head = node;
            self.occupied[b / 64] |= 1 << (b % 64);
        } else {
            self.nodes[bucket.tail as usize].next = node;
        }
        bucket.tail = node;
        self.in_wheel += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpsim_harness::{gen, prop::check, prop_assert_eq};

    /// One step of a schedule: pop `pops` events, then push one event
    /// `delay` cycles after the last popped time.
    type Step = (u32, u64);

    /// Delays mixing same-cycle ties, near-window times, times beyond the
    /// wheel's horizon and far jumps.
    fn steps() -> gen::Gen<Vec<Step>> {
        let delay = gen::select(vec![
            0u64, 0, 1, 2, 3, 400, 1022, 1023, 1024, 1025, 2047, 2048, 5000, 100_000,
        ]);
        gen::vec_of(gen::pair(gen::u32s(0..=3), delay), 0..=300)
    }

    /// Runs `steps` against the queue and a `BinaryHeap<(time, seq)>`
    /// oracle, then drains both; every pop must agree.
    fn agrees_with_heap(steps: &[Step]) -> Result<(), String> {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut oracle: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for &(pops, delay) in steps {
            for _ in 0..pops {
                let got = q.pop();
                let want = oracle.pop().map(|Reverse(k)| k);
                prop_assert_eq!(got, want);
                if let Some((t, _)) = got {
                    now = t;
                }
            }
            seq += 1;
            q.push(now + delay, seq);
            oracle.push(Reverse((now + delay, seq)));
            prop_assert_eq!(q.len(), oracle.len());
        }
        while let Some(Reverse(want)) = oracle.pop() {
            prop_assert_eq!(q.pop(), Some(want));
        }
        prop_assert_eq!(q.pop(), None);
        Ok(())
    }

    #[test]
    fn pop_order_matches_binary_heap() {
        check("pop_order_matches_binary_heap", &steps(), |s| {
            agrees_with_heap(s)
        });
    }

    #[test]
    fn same_cycle_ties_pop_in_push_order() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.push(5, i);
        }
        let got: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn overflow_migrates_ahead_of_later_direct_pushes() {
        // `a` goes to the overflow heap; after the clock moves to 100 the
        // same time 1500 is inside the window, and the direct push `b`
        // must still pop after `a`.
        let mut q = EventQueue::new();
        q.push(1500, 'a');
        q.push(100, 'x');
        assert_eq!(q.pop(), Some((100, 'x')));
        q.push(1500, 'b');
        q.push(1500 + WHEEL as u64 * 3, 'c');
        assert_eq!(q.pop(), Some((1500, 'a')));
        assert_eq!(q.pop(), Some((1500, 'b')));
        assert_eq!(q.pop(), Some((1500 + WHEEL as u64 * 3, 'c')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn empty_wheel_jumps_to_overflow() {
        let mut q = EventQueue::new();
        q.push(1_000_000, 1u8);
        q.push(1_000_000, 2);
        q.push(5_000_000, 3);
        assert_eq!(q.pop(), Some((1_000_000, 1)));
        q.push(1_000_000, 4);
        assert_eq!(q.pop(), Some((1_000_000, 2)));
        assert_eq!(q.pop(), Some((1_000_000, 4)));
        assert_eq!(q.pop(), Some((5_000_000, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn pushing_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(10, ());
        q.pop();
        q.push(9, ());
    }

    #[test]
    fn slab_recycles_nodes() {
        let mut q = EventQueue::new();
        for t in 0..10_000u64 {
            q.push(t + 3, t);
            q.pop();
        }
        assert!(q.nodes.len() <= 2, "slab grew to {} nodes", q.nodes.len());
    }
}
