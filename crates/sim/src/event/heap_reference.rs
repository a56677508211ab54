//! A `BinaryHeap` event queue: the reference model the timing wheel's
//! unit and property tests compare against.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A pending event, ordered for the max-heap so the earliest (then
/// lowest-sequence) entry surfaces first.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The reference queue: the same contract as
/// [`EventQueue`](super::EventQueue), one binary heap underneath.
pub(super) struct HeapEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    outstanding: usize,
    next_seq: u64,
    now: SimTime,
    max_depth: usize,
}

impl<E> HeapEventQueue<E> {
    pub(super) fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            outstanding: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            max_depth: 0,
        }
    }

    pub(super) fn schedule(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "scheduled an event in the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
        self.max_depth = self.max_depth.max(self.len());
    }

    pub(super) fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        self.now = s.at;
        Some((s.at, s.event))
    }

    pub(super) fn drain_next_batch(&mut self, buf: &mut Vec<E>) -> Option<SimTime> {
        buf.clear();
        let (t, first) = self.pop()?;
        buf.push(first);
        while self.heap.peek().is_some_and(|s| s.at == t) {
            buf.push(self.heap.pop().expect("peeked").event);
        }
        self.outstanding += buf.len();
        Some(t)
    }

    pub(super) fn ack(&mut self) {
        self.outstanding -= 1;
    }

    pub(super) fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    pub(super) fn len(&self) -> usize {
        self.heap.len() + self.outstanding
    }

    pub(super) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(super) fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    pub(super) fn max_depth(&self) -> usize {
        self.max_depth
    }

    pub(super) fn now(&self) -> SimTime {
        self.now
    }
}
