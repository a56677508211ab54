//! Deterministic discrete-event queue.
//!
//! The HCloud scenario runner advances simulation time by repeatedly
//! draining the earliest pending events. Determinism requires a *stable*
//! order among events scheduled for the same instant: the queue breaks
//! ties by insertion sequence number, so two runs with identical inputs
//! pop events in identical order.
//!
//! [`EventQueue`] is a hierarchical timing wheel ([`LEVELS`] levels ×
//! [`SLOTS`] slots of [`LEVEL_BITS`]-bit digits over the microsecond
//! timestamp). Scheduling and serving are O(1) amortized regardless of
//! how deep the queue gets, which is what lets fleet-scale scenarios
//! (10⁵ instances, 10⁶ jobs) run without `O(log n)` heap churn
//! dominating. Its unit and property tests check it against a
//! test-only `BinaryHeap` reference model.
//!
//! An event lives at the level of the highest [`LEVEL_BITS`]-bit digit in
//! which its timestamp differs from the current clock, in the slot named by
//! that digit. Events due exactly "now" sit in a dedicated FIFO. Serving
//! takes the lowest occupied level's lowest occupied slot (a bitmap scan):
//! level 0 buckets hold one exact timestamp and become the next batch
//! wholesale; higher-level buckets cascade — their earliest timestamp
//! becomes the new clock and every other member re-enters a lower level.
//! Ties are restored by sorting each served bucket by sequence number, so
//! the pop order is exactly a stable sort by timestamp.

use std::collections::VecDeque;

use crate::time::SimTime;

/// Bits per wheel level: each level indexes one 6-bit digit of the
/// microsecond timestamp.
pub const LEVEL_BITS: u32 = 6;
/// Slots per level (`2^LEVEL_BITS`).
pub const SLOTS: usize = 1 << LEVEL_BITS;
/// Wheel levels: `11 × 6 = 66` bits cover the full `u64` timestamp range.
pub const LEVELS: usize = 11;
const SLOT_MASK: u64 = (SLOTS as u64) - 1;

/// The write half of an event queue: anything that can accept scheduled
/// events. Scheduler hot paths take `&mut impl EventSink<Event>` so the
/// runner can wrap the queue (profiling) and unit tests can pass a bare
/// [`EventQueue`].
pub trait EventSink<E> {
    /// Schedules `event` at instant `at`.
    ///
    /// Scheduling in the past is a logic error in the caller; in debug
    /// builds it panics, in release builds the event fires "now" (at the
    /// current clock) to preserve monotonicity.
    fn schedule(&mut self, at: SimTime, event: E);
}

/// A pending event: a payload scheduled for an instant.
#[derive(Debug)]
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

/// A time-ordered event queue with stable FIFO tie-breaking, implemented
/// as a hierarchical timing wheel.
///
/// ```
/// use hcloud_sim::{SimTime, event::EventQueue};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(1), "b");
/// q.schedule(SimTime::from_secs(1), "c");
/// q.schedule(SimTime::ZERO, "a");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, vec!["a", "b", "c"]);
/// ```
///
/// Invariant: every wheel entry agrees with the clock on all digits above
/// its level, and its slot digit is strictly greater than the clock's
/// digit at that level. This makes lower levels strictly earlier than
/// higher ones, so serving scans levels bottom-up and slots by lowest set
/// bit.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Events due exactly at `now`, in insertion order.
    due: VecDeque<Scheduled<E>>,
    /// `LEVELS × SLOTS` buckets, row-major by level.
    buckets: Vec<Vec<Scheduled<E>>>,
    /// Per-level slot-occupancy bitmaps.
    occupied: [u64; LEVELS],
    /// Events in `due` + buckets.
    pending: usize,
    /// Events drained by `drain_next_batch` but not yet `ack`ed.
    outstanding: usize,
    /// Scratch buffer the served bucket is swapped into; retains its
    /// capacity across serves so the advance path stops allocating once
    /// the wheel is warm.
    serving: Vec<Scheduled<E>>,
    /// Scratch buffer for entries arriving exactly at the cascade target.
    arrived: Vec<Scheduled<E>>,
    next_seq: u64,
    now: SimTime,
    max_depth: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            due: VecDeque::new(),
            buckets: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; LEVELS],
            pending: 0,
            outstanding: 0,
            serving: Vec::new(),
            arrived: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            max_depth: 0,
        }
    }

    /// The current simulation instant: the timestamp of the most recently
    /// popped event (or zero before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The wheel position for a future timestamp: the level of the highest
    /// digit differing from `now`, and that digit as the slot.
    fn level_slot(&self, at: SimTime) -> (usize, usize) {
        let d = at.as_micros() ^ self.now.as_micros();
        debug_assert!(d != 0, "level_slot is only defined for at != now");
        let level = ((63 - d.leading_zeros()) / LEVEL_BITS) as usize;
        let slot = ((at.as_micros() >> (level as u32 * LEVEL_BITS)) & SLOT_MASK) as usize;
        (level, slot)
    }

    /// Schedules `event` at instant `at`; see [`EventSink::schedule`].
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduled an event in the past: {at} < {now}",
            at = at,
            now = self.now
        );
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let s = Scheduled { at, seq, event };
        if at == self.now {
            // Sequence numbers only grow, so appending keeps `due` sorted.
            self.due.push_back(s);
        } else {
            let (level, slot) = self.level_slot(at);
            self.buckets[level * SLOTS + slot].push(s);
            self.occupied[level] |= 1 << slot;
        }
        self.pending += 1;
        self.max_depth = self.max_depth.max(self.len());
    }

    /// Serves the earliest occupied wheel position into `due`, advancing
    /// the clock. Caller guarantees `due` is empty and `pending > 0`.
    ///
    /// The served bucket is swapped into a reusable scratch buffer (and
    /// cascade arrivals into a second one) rather than moved out, so the
    /// steady state performs no allocation: capacities circulate between
    /// the scratch buffers and the buckets they serve.
    fn advance(&mut self) {
        debug_assert!(self.due.is_empty());
        for level in 0..LEVELS {
            if self.occupied[level] == 0 {
                continue;
            }
            let slot = self.occupied[level].trailing_zeros() as usize;
            debug_assert!(self.serving.is_empty());
            std::mem::swap(&mut self.buckets[level * SLOTS + slot], &mut self.serving);
            self.occupied[level] &= !(1u64 << slot);
            debug_assert!(!self.serving.is_empty(), "occupancy bit without entries");
            if level == 0 {
                // A level-0 bucket differs from `now` only in the digit it
                // is keyed by: every member shares one exact timestamp.
                let at = self.serving[0].at;
                debug_assert!(self.serving.iter().all(|s| s.at == at));
                debug_assert!(at > self.now, "event queue went backwards in time");
                self.now = at;
                // Cascades can interleave sequence numbers; restore FIFO.
                self.serving.sort_unstable_by_key(|s| s.seq);
                self.due.extend(self.serving.drain(..));
            } else {
                // Cascade: the bucket's earliest timestamp becomes the new
                // clock; everything later re-enters at a lower level.
                let target = self
                    .serving
                    .iter()
                    .map(|s| s.at)
                    .min()
                    .expect("bucket non-empty");
                debug_assert!(target > self.now, "event queue went backwards in time");
                self.now = target;
                let now_us = target.as_micros();
                debug_assert!(self.arrived.is_empty());
                for s in self.serving.drain(..) {
                    if s.at == target {
                        self.arrived.push(s);
                    } else {
                        // `level_slot` inlined against the new clock; the
                        // drain borrow keeps `&self` methods out of reach.
                        let d = s.at.as_micros() ^ now_us;
                        let l = ((63 - d.leading_zeros()) / LEVEL_BITS) as usize;
                        let sl =
                            ((s.at.as_micros() >> (l as u32 * LEVEL_BITS)) & SLOT_MASK) as usize;
                        debug_assert!(l <= level, "cascade must descend");
                        self.buckets[l * SLOTS + sl].push(s);
                        self.occupied[l] |= 1 << sl;
                    }
                }
                self.arrived.sort_unstable_by_key(|s| s.seq);
                self.due.extend(self.arrived.drain(..));
            }
            return;
        }
        unreachable!("advance called on an empty wheel");
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.due.is_empty() {
            if self.pending == 0 {
                return None;
            }
            self.advance();
        }
        let s = self.due.pop_front().expect("advance fills due");
        self.pending -= 1;
        Some((s.at, s.event))
    }

    /// Drains every event due at the earliest pending timestamp into
    /// `buf`, in (time, insertion) order, advancing the clock to that
    /// timestamp. Returns the batch timestamp, or `None` when empty.
    ///
    /// Drained events count toward [`len`] until [`ack`]ed, so depth
    /// telemetry matches a pop-one-dispatch-one loop exactly.
    ///
    /// [`len`]: EventQueue::len
    /// [`ack`]: EventQueue::ack
    pub fn drain_next_batch(&mut self, buf: &mut Vec<E>) -> Option<SimTime> {
        debug_assert_eq!(self.outstanding, 0, "previous batch not fully acked");
        buf.clear();
        if self.due.is_empty() {
            if self.pending == 0 {
                return None;
            }
            self.advance();
        }
        let n = self.due.len();
        buf.extend(self.due.drain(..).map(|s| s.event));
        self.pending -= n;
        self.outstanding += n;
        Some(self.now)
    }

    /// Acknowledges one drained event as dispatched (see
    /// [`drain_next_batch`](EventQueue::drain_next_batch)).
    pub fn ack(&mut self) {
        debug_assert!(self.outstanding > 0, "ack without a drained event");
        self.outstanding = self.outstanding.saturating_sub(1);
    }

    /// The timestamp of the earliest pending event, if any, without popping.
    /// May scan one bucket (O of its size); not a hot-path operation.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(s) = self.due.front() {
            return Some(s.at);
        }
        for level in 0..LEVELS {
            if self.occupied[level] == 0 {
                continue;
            }
            let slot = self.occupied[level].trailing_zeros() as usize;
            return self.buckets[level * SLOTS + slot]
                .iter()
                .map(|s| s.at)
                .min();
        }
        None
    }

    /// Number of pending events (drained-but-unacked events included).
    pub fn len(&self) -> usize {
        self.pending + self.outstanding
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// High-water mark of pending events — how deep the queue ever got.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }
}

impl<E> EventSink<E> for EventQueue<E> {
    fn schedule(&mut self, at: SimTime, event: E) {
        EventQueue::schedule(self, at, event)
    }
}

#[cfg(test)]
mod heap_reference;

#[cfg(test)]
mod tests {
    use super::heap_reference::HeapEventQueue;
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    /// Object-safe view of the queue contract, so each behaviour below
    /// is pinned for the wheel and the heap reference alike.
    trait DynQueue {
        fn schedule(&mut self, at: SimTime, e: i64);
        fn pop(&mut self) -> Option<(SimTime, i64)>;
        fn now(&self) -> SimTime;
        fn peek_time(&self) -> Option<SimTime>;
        fn len(&self) -> usize;
        fn is_empty(&self) -> bool;
        fn scheduled_total(&self) -> u64;
        fn max_depth(&self) -> usize;
        fn drain_next_batch(&mut self, buf: &mut Vec<i64>) -> Option<SimTime>;
        fn ack(&mut self);
    }

    macro_rules! dyn_queue {
        ($queue:ident) => {
            impl DynQueue for $queue<i64> {
                fn schedule(&mut self, at: SimTime, e: i64) {
                    $queue::schedule(self, at, e)
                }
                fn pop(&mut self) -> Option<(SimTime, i64)> {
                    $queue::pop(self)
                }
                fn now(&self) -> SimTime {
                    $queue::now(self)
                }
                fn peek_time(&self) -> Option<SimTime> {
                    $queue::peek_time(self)
                }
                fn len(&self) -> usize {
                    $queue::len(self)
                }
                fn is_empty(&self) -> bool {
                    $queue::is_empty(self)
                }
                fn scheduled_total(&self) -> u64 {
                    $queue::scheduled_total(self)
                }
                fn max_depth(&self) -> usize {
                    $queue::max_depth(self)
                }
                fn drain_next_batch(&mut self, buf: &mut Vec<i64>) -> Option<SimTime> {
                    $queue::drain_next_batch(self, buf)
                }
                fn ack(&mut self) {
                    $queue::ack(self)
                }
            }
        };
    }

    dyn_queue!(EventQueue);
    dyn_queue!(HeapEventQueue);

    /// A fresh wheel and a fresh heap reference.
    fn queues() -> [Box<dyn DynQueue>; 2] {
        [
            Box::new(EventQueue::<i64>::new()),
            Box::new(HeapEventQueue::<i64>::new()),
        ]
    }

    /// Runs `body` against both queue implementations.
    fn on_both(body: impl Fn(&mut dyn DynQueue)) {
        for mut q in queues() {
            body(q.as_mut());
        }
    }

    #[test]
    fn pops_in_time_order() {
        on_both(|q| {
            q.schedule(SimTime::from_secs(3), 3);
            q.schedule(SimTime::from_secs(1), 1);
            q.schedule(SimTime::from_secs(2), 2);
            let order: Vec<i64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec![1, 2, 3]);
        });
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        on_both(|q| {
            let t = SimTime::from_secs(7);
            for i in 0..100 {
                q.schedule(t, i);
            }
            let order: Vec<i64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>());
        });
    }

    #[test]
    fn clock_advances_with_pops() {
        on_both(|q| {
            q.schedule(SimTime::from_secs(5), 0);
            assert_eq!(q.now(), SimTime::ZERO);
            q.pop();
            assert_eq!(q.now(), SimTime::from_secs(5));
        });
    }

    #[test]
    fn peek_does_not_advance() {
        on_both(|q| {
            q.schedule(SimTime::from_secs(2), 0);
            assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)));
            assert_eq!(q.now(), SimTime::ZERO);
            assert_eq!(q.len(), 1);
        });
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_monotonic() {
        on_both(|q| {
            q.schedule(SimTime::from_secs(1), 0);
            let (t1, _) = q.pop().unwrap();
            q.schedule(t1 + SimDuration::from_secs(1), 1);
            q.schedule(t1 + SimDuration::from_secs(3), 3);
            q.schedule(t1 + SimDuration::from_secs(2), 2);
            let mut last = t1;
            while let Some((t, _)) = q.pop() {
                assert!(t >= last);
                last = t;
            }
        });
    }

    #[test]
    fn tracks_scheduling_statistics() {
        on_both(|q| {
            assert_eq!(q.scheduled_total(), 0);
            assert_eq!(q.max_depth(), 0);
            q.schedule(SimTime::from_secs(1), 1);
            q.schedule(SimTime::from_secs(2), 2);
            assert_eq!(q.max_depth(), 2);
            q.pop();
            q.pop();
            q.schedule(SimTime::from_secs(3), 3);
            assert_eq!(q.scheduled_total(), 3, "total counts every schedule");
            assert_eq!(q.max_depth(), 2, "high-water mark survives drains");
        });
    }

    #[test]
    fn empty_queue_behaviour() {
        on_both(|q| {
            assert!(q.is_empty());
            assert_eq!(q.pop(), None);
            assert_eq!(q.peek_time(), None);
        });
    }

    #[test]
    fn drain_serves_whole_timestamps_and_len_tracks_acks() {
        on_both(|q| {
            let t = SimTime::from_secs(4);
            q.schedule(t, 1);
            q.schedule(t, 2);
            q.schedule(SimTime::from_secs(9), 3);
            let mut buf = Vec::new();
            assert_eq!(q.drain_next_batch(&mut buf), Some(t));
            assert_eq!(buf, vec![1, 2]);
            assert_eq!(q.len(), 3, "drained events still count until acked");
            q.ack();
            assert_eq!(q.len(), 2, "ack mirrors a sequential pop");
            // Scheduling mid-batch lands the event in the next batch at
            // the same timestamp.
            q.schedule(t, 4);
            q.ack();
            assert_eq!(q.drain_next_batch(&mut buf), Some(t));
            assert_eq!(buf, vec![4]);
            q.ack();
            assert_eq!(q.drain_next_batch(&mut buf), Some(SimTime::from_secs(9)));
            assert_eq!(buf, vec![3]);
            q.ack();
            assert_eq!(q.drain_next_batch(&mut buf), None);
        });
    }

    #[test]
    fn wheel_cascades_across_levels() {
        // Timestamps chosen to span several 6-bit digit boundaries, so
        // serving exercises the cascade path repeatedly.
        let mut q = EventQueue::new();
        let times = [
            1u64,
            63,
            64,
            65,
            4095,
            4096,
            262_143,
            262_144,
            16_777_217,
            u64::from(u32::MAX),
            1 << 40,
            (1 << 40) + 1,
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i as i64);
        }
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_micros())
            .collect();
        let mut want = times.to_vec();
        want.sort_unstable();
        assert_eq!(popped, want);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Pops come out in (time, insertion) order — exactly a stable
        /// sort. Pinned for both the timing wheel and the heap reference.
        #[test]
        fn event_queue_is_a_stable_sort(times in prop::collection::vec(0u64..1000, 1..200)) {
            let mut reference: Vec<(u64, i64)> =
                times.iter().enumerate().map(|(i, &t)| (t, i as i64)).collect();
            reference.sort(); // stable: ties keep insertion order
            for mut q in queues() {
                for (i, &t) in times.iter().enumerate() {
                    q.schedule(SimTime::from_secs(t), i as i64);
                }
                let popped: Vec<(u64, i64)> = std::iter::from_fn(|| q.pop())
                    .map(|(t, i)| (t.as_micros() / 1_000_000, i))
                    .collect();
                prop_assert_eq!(popped, reference.clone());
            }
        }

        /// The clock never runs backwards regardless of interleaving.
        #[test]
        fn event_queue_clock_is_monotone(
            ops in prop::collection::vec((0u64..500, proptest::bool::ANY), 1..100),
        ) {
            for mut q in queues() {
                let mut last = SimTime::ZERO;
                for &(offset, pop) in &ops {
                    let at = q.now() + SimDuration::from_secs(offset);
                    q.schedule(at, 0);
                    if pop {
                        if let Some((t, _)) = q.pop() {
                            prop_assert!(t >= last);
                            last = t;
                        }
                    }
                }
            }
        }

        /// Differential test: the timing wheel and the heap reference
        /// agree on every observable — pop order, clock, depth
        /// telemetry — under random schedule/pop interleavings.
        #[test]
        fn wheel_matches_heap_on_random_interleavings(
            ops in prop::collection::vec((0u8..3, 0u64..2000), 1..300),
        ) {
            let mut wheel: EventQueue<u64> = EventQueue::new();
            let mut heap: HeapEventQueue<u64> = HeapEventQueue::new();
            let mut payload = 0u64;
            for (op, offset) in ops {
                if op < 2 {
                    // Schedule (twice as likely as a pop) — offsets are
                    // relative to the current clock, occasionally zero to
                    // exercise the same-instant FIFO path.
                    let at = wheel.now() + SimDuration::from_micros(offset * offset);
                    wheel.schedule(at, payload);
                    heap.schedule(at, payload);
                    payload += 1;
                } else {
                    prop_assert_eq!(wheel.pop(), heap.pop());
                }
                prop_assert_eq!(wheel.len(), heap.len());
                prop_assert_eq!(wheel.now(), heap.now());
                prop_assert_eq!(wheel.peek_time(), heap.peek_time());
                prop_assert_eq!(wheel.scheduled_total(), heap.scheduled_total());
                prop_assert_eq!(wheel.max_depth(), heap.max_depth());
            }
            // Drain both to the end: remaining order must match exactly.
            loop {
                let (w, h) = (wheel.pop(), heap.pop());
                prop_assert_eq!(w, h);
                if w.is_none() {
                    break;
                }
            }
        }

        /// Differential test for the batch API: draining same-timestamp
        /// batches yields identical slices and identical depth accounting
        /// on both implementations.
        #[test]
        fn wheel_matches_heap_on_batch_drains(
            times in prop::collection::vec(0u64..50, 1..200),
        ) {
            let mut wheel: EventQueue<usize> = EventQueue::new();
            let mut heap: HeapEventQueue<usize> = HeapEventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                wheel.schedule(SimTime::from_secs(t), i);
                heap.schedule(SimTime::from_secs(t), i);
            }
            let (mut wb, mut hb) = (Vec::new(), Vec::new());
            loop {
                let (wt, ht) = (wheel.drain_next_batch(&mut wb), heap.drain_next_batch(&mut hb));
                prop_assert_eq!(wt, ht);
                prop_assert_eq!(&wb, &hb);
                if wt.is_none() {
                    break;
                }
                for _ in 0..wb.len() {
                    prop_assert_eq!(wheel.len(), heap.len());
                    wheel.ack();
                    heap.ack();
                }
            }
            prop_assert!(wheel.is_empty() && heap.is_empty());
        }
    }
}
