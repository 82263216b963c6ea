//! The discrete-event engine: the event vocabulary and a deterministic
//! time-ordered queue.
//!
//! # Ordering guarantee
//!
//! Events pop in `(time, insertion-seq)` order: earlier times first, and
//! events scheduled at the same instant in the order they were pushed. A run
//! is therefore fully determined by the topology, configuration and flow
//! list — the guarantee every campaign digest rests on.
//!
//! # The indexed event wheel
//!
//! [`EventQueue`] is a bucketed calendar queue, not a binary heap. Simulated
//! time (integer picoseconds) is divided into fixed-width buckets of
//! `2^BUCKET_SHIFT` ps; a ring of `NUM_BUCKETS` buckets covers a sliding
//! window of ~8.4 µs ahead of the cursor, which is enough for the dense event
//! classes (serialization at 100 Gbps ≈ 88 ns/packet, propagation ≈ 1 µs,
//! queue sampling 1–5 µs). Events beyond the window — flow starts, RTO
//! checks, DCQCN's ≈ 55 µs timers and other far-future timers — go to a
//! `BinaryHeap` overflow level and migrate into the ring as the cursor
//! reaches their bucket. The small ring keeps the memory the buckets retain
//! (each keeps its high-water capacity) independent of how many events a
//! dense fabric keeps in flight across a long window.
//!
//! Pushing appends to the target bucket in O(1). When the cursor first
//! enters a bucket, the bucket is sorted once by `(time, seq)`, which
//! restores the exact tie-break order of the original heap implementation.
//! Events scheduled *into the current bucket* while it drains go to a small
//! `BinaryHeap` "late" level in O(log k); `pop` takes the smaller
//! `(time, seq)` of the bucket front and the late-level top, so the
//! invariant holds mid-bucket too.

use hpcc_types::{FlowId, NodeId, Packet, PortId, SimTime};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Log2 of the bucket width in picoseconds: 2^17 ps ≈ 131 ns per bucket.
const BUCKET_SHIFT: u32 = 17;

/// Number of buckets in the ring; the window covers
/// `NUM_BUCKETS << BUCKET_SHIFT` ≈ 8.4 µs of simulated time.
const NUM_BUCKETS: usize = 64;

/// Everything that can happen in the simulation.
///
/// `PacketArrive` carries its packet boxed: the box comes from (and returns
/// to) the `Effects` packet pool, so the hot path moves an 8-byte pointer
/// through the queue instead of a ~500-byte inline `Packet`, without paying
/// an allocation per hop.
#[derive(Clone, Debug)]
pub enum Event {
    /// A flow (by index into the simulator's flow table) becomes active at
    /// its source host.
    FlowStart(usize),
    /// A port finished serializing the packet it was transmitting and may
    /// start the next one.
    PortReady {
        /// Node owning the port.
        node: NodeId,
        /// Port index within the node.
        port: PortId,
    },
    /// A packet fully arrived at a node (serialization + propagation done).
    PacketArrive {
        /// Receiving node.
        node: NodeId,
        /// Ingress port on the receiving node.
        port: PortId,
        /// The packet itself (pooled; see `Effects::alloc_packet`).
        packet: Box<Packet>,
    },
    /// A host asked to be woken up (pacing gap elapsed).
    HostWake {
        /// The host to wake.
        node: NodeId,
    },
    /// A congestion-control timer (DCQCN rate-increase / alpha timers).
    CcTimer {
        /// Host owning the flow.
        node: NodeId,
        /// Dense index of the flow in the host's sender table.
        slot: u32,
    },
    /// Retransmission-timeout check for a flow (lossy modes).
    RtoCheck {
        /// Host owning the flow.
        node: NodeId,
        /// Dense index of the flow in the host's sender table.
        slot: u32,
    },
    /// Periodic queue sampling for statistics.
    Sample,
    /// Periodic sampling of explicitly traced ports.
    TraceSample,
    /// The next batch of fault-timeline transitions (link down/up, degraded
    /// windows, straggler windows) is due. Scheduled only when the run has a
    /// fault config, so fault-free runs never see it.
    FaultTransition,
}

/// Side effects produced while a node handles one event.
///
/// Node methods never touch the event queue or other nodes directly; they
/// append to this buffer and the simulator applies it, which keeps borrows
/// local and the control flow explicit.
///
/// The simulator owns **one** `Effects` arena for the whole run and clears
/// it between events instead of dropping it, so the per-event buffers reach
/// a high-water mark early and the steady-state event loop performs no
/// allocation. The arena also carries the packet pool: boxes that carried an
/// arrived packet are recycled into the next transmitted one.
#[derive(Default, Debug)]
pub(crate) struct Effects {
    /// Events to schedule.
    pub events: Vec<(SimTime, Event)>,
    /// Ports that may now be able to start a transmission.
    pub kicks: Vec<(NodeId, PortId)>,
    /// Flows that completed (recorded by the sending host).
    pub completions: Vec<crate::output::FlowRecord>,
    /// PFC pause frames emitted (for propagation analysis).
    pub pfc_events: Vec<crate::output::PfcEvent>,
    /// Newly acknowledged bytes per flow (for goodput time series).
    pub goodput: Vec<(FlowId, u64)>,
    /// Data packets handed to receivers during this event.
    pub packets_delivered: u64,
    /// Data packets transmitted by hosts during this event.
    pub packets_sent: u64,
    /// Recycled packet boxes, reused by [`Effects::alloc_packet`]. The boxes
    /// themselves are the resource being pooled (they move into `Event`s and
    /// back), so `Vec<Box<_>>` is the point, not an accident.
    #[allow(clippy::vec_box)]
    pool: Vec<Box<Packet>>,
}

/// Upper bound on pooled packet boxes (safety valve, never reached by a
/// well-behaved run: the pool holds at most one box per consumed packet that
/// has not yet been re-emitted).
const PACKET_POOL_CAP: usize = 8192;

impl Effects {
    /// Reset the per-event buffers, keeping their capacity and the packet
    /// pool (clear, don't drop).
    pub fn clear(&mut self) {
        self.events.clear();
        self.kicks.clear();
        self.completions.clear();
        self.pfc_events.clear();
        self.goodput.clear();
        self.packets_delivered = 0;
        self.packets_sent = 0;
    }

    /// Box a packet, reusing a pooled box when one is available.
    pub fn alloc_packet(&mut self, pkt: Packet) -> Box<Packet> {
        match self.pool.pop() {
            Some(mut b) => {
                *b = pkt;
                b
            }
            None => Box::new(pkt),
        }
    }

    /// Return a consumed packet's box to the pool.
    pub fn recycle(&mut self, b: Box<Packet>) {
        if self.pool.len() < PACKET_POOL_CAP {
            self.pool.push(b);
        }
    }
}

/// An event scheduled at a given time with a tie-breaking sequence number.
#[derive(Clone, Debug)]
struct Scheduled {
    time: SimTime,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap and we want the earliest
        // (time, seq) first (used by the late and overflow levels).
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Deterministic time-ordered event queue: an indexed event wheel with a
/// binary-heap late level for the draining bucket and a binary-heap overflow
/// level for far-future timers.
#[derive(Debug)]
pub struct EventQueue {
    /// Ring of FIFO buckets; bucket for absolute slot `s` is `s % NUM_BUCKETS`.
    buckets: Vec<VecDeque<Scheduled>>,
    /// Absolute slot index (`time >> BUCKET_SHIFT`) the cursor is on.
    cursor: u64,
    /// Whether the bucket at `cursor` has been overflow-merged and sorted.
    current_prepared: bool,
    /// Events currently stored in the ring buckets.
    wheel_len: usize,
    /// Events pushed into the cursor's bucket after it was sorted.
    late: BinaryHeap<Scheduled>,
    /// Far-future events (beyond the ring window at push time).
    overflow: BinaryHeap<Scheduled>,
    next_seq: u64,
    scheduled: u64,
    peak_len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            buckets: (0..NUM_BUCKETS).map(|_| VecDeque::new()).collect(),
            cursor: 0,
            current_prepared: false,
            wheel_len: 0,
            late: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            next_seq: 0,
            scheduled: 0,
            peak_len: 0,
        }
    }
}

#[inline]
fn slot_of(time: SimTime) -> u64 {
    time.as_ps() >> BUCKET_SHIFT
}

#[inline]
fn ring_index(slot: u64) -> usize {
    (slot % NUM_BUCKETS as u64) as usize
}

impl EventQueue {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        let s = Scheduled { time, seq, event };
        // Anything at or before the cursor's bucket (the simulator never
        // schedules into the past; this clamps defensively) belongs to the
        // current bucket.
        let slot = slot_of(time).max(self.cursor);
        if slot >= self.cursor + NUM_BUCKETS as u64 {
            self.overflow.push(s);
        } else if slot == self.cursor && self.current_prepared {
            // The current bucket is sorted and partially drained: the late
            // level orders the newcomer against it at pop time.
            self.late.push(s);
        } else {
            self.buckets[ring_index(slot)].push_back(s);
            self.wheel_len += 1;
        }
        self.peak_len = self.peak_len.max(self.len());
    }

    /// Merge overflow events that belong to the cursor's bucket, then sort
    /// the bucket by `(time, seq)`.
    fn prepare_current(&mut self) {
        let bucket = &mut self.buckets[ring_index(self.cursor)];
        while let Some(top) = self.overflow.peek() {
            if slot_of(top.time) <= self.cursor {
                bucket.push_back(self.overflow.pop().expect("peeked above"));
                self.wheel_len += 1;
            } else {
                break;
            }
        }
        bucket
            .make_contiguous()
            .sort_unstable_by_key(|s| (s.time, s.seq));
        self.current_prepared = true;
    }

    /// Move the cursor to the next slot that has work. Caller guarantees the
    /// queue is non-empty and the current bucket and late level are drained.
    fn advance(&mut self) {
        self.current_prepared = false;
        let overflow_slot = self.overflow.peek().map(|s| slot_of(s.time));
        if self.wheel_len == 0 {
            // Jump straight to the earliest overflow bucket.
            self.cursor = overflow_slot.expect("advance called on an empty queue");
            return;
        }
        for d in 1..=NUM_BUCKETS as u64 {
            let slot = self.cursor + d;
            if let Some(os) = overflow_slot {
                if os <= slot {
                    self.cursor = os;
                    return;
                }
            }
            if !self.buckets[ring_index(slot)].is_empty() {
                self.cursor = slot;
                return;
            }
        }
        unreachable!("ring events always live within NUM_BUCKETS of the cursor");
    }

    /// Pop the earliest event, if any.
    ///
    /// The queue does not count popped events as "processed": an event popped
    /// after the simulation horizon is discarded unhandled, so the simulator
    /// owns the processed counter.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        loop {
            if self.is_empty() {
                return None;
            }
            if !self.current_prepared {
                self.prepare_current();
            }
            let bucket = &mut self.buckets[ring_index(self.cursor)];
            // `Scheduled` orders in reverse (for the max-heaps), so the
            // earlier `(time, seq)` compares greater.
            let from_late = match (bucket.front(), self.late.peek()) {
                (Some(front), Some(late)) => late > front,
                (None, Some(_)) => true,
                (Some(_), None) => false,
                (None, None) => {
                    self.advance();
                    continue;
                }
            };
            let s = if from_late {
                self.late.pop()
            } else {
                self.wheel_len -= 1;
                bucket.pop_front()
            };
            return s.map(|s| (s.time, s.event));
        }
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        let mut best = self
            .overflow
            .peek()
            .into_iter()
            .chain(self.late.peek())
            .map(|s| s.time)
            .min();
        if self.wheel_len > 0 {
            // The first non-empty bucket from the cursor holds the earliest
            // ring event (bucket slot is a monotone function of time).
            for d in 0..NUM_BUCKETS as u64 {
                let bucket = &self.buckets[ring_index(self.cursor + d)];
                if let Some(m) = bucket.iter().map(|s| s.time).min() {
                    best = Some(best.map_or(m, |b| b.min(m)));
                    break;
                }
            }
        }
        best
    }

    /// Number of pending events, wherever they are stored.
    pub fn len(&self) -> usize {
        self.wheel_len + self.late.len() + self.overflow.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events scheduled so far (for engine statistics).
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Largest number of simultaneously pending events seen so far.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_us(5), Event::Sample);
        q.push(SimTime::from_us(1), Event::HostWake { node: NodeId(0) });
        q.push(SimTime::from_us(3), Event::Sample);
        let t1 = q.pop().unwrap().0;
        let t2 = q.pop().unwrap().0;
        let t3 = q.pop().unwrap().0;
        assert!(t1 < t2 && t2 < t3);
        assert!(q.pop().is_none());
        assert_eq!(q.total_scheduled(), 3);
        assert_eq!(q.peak_len(), 3);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_us(7);
        q.push(t, Event::FlowStart(0));
        q.push(t, Event::FlowStart(1));
        q.push(t, Event::FlowStart(2));
        let mut order = Vec::new();
        while let Some((_, ev)) = q.pop() {
            if let Event::FlowStart(i) = ev {
                order.push(i);
            }
        }
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn ties_break_by_insertion_order_across_bucket_boundaries() {
        // Same-time ties exactly on a bucket boundary, plus ties in the
        // bucket before and after it, interleaved in push order.
        let mut q = EventQueue::new();
        let boundary = SimTime::from_ps(5 << BUCKET_SHIFT);
        let before = SimTime::from_ps((5 << BUCKET_SHIFT) - 1);
        let after = SimTime::from_ps((5 << BUCKET_SHIFT) + 1);
        q.push(boundary, Event::FlowStart(10));
        q.push(after, Event::FlowStart(20));
        q.push(before, Event::FlowStart(0));
        q.push(boundary, Event::FlowStart(11));
        q.push(after, Event::FlowStart(21));
        q.push(before, Event::FlowStart(1));
        q.push(boundary, Event::FlowStart(12));
        let mut order = Vec::new();
        while let Some((_, ev)) = q.pop() {
            if let Event::FlowStart(i) = ev {
                order.push(i);
            }
        }
        assert_eq!(order, vec![0, 1, 10, 11, 12, 20, 21]);
    }

    #[test]
    fn ties_break_by_insertion_order_across_ring_rollover() {
        // Events one full ring rotation apart share a ring index but must
        // still pop strictly by (time, seq); the far event starts out in the
        // overflow level and migrates when the cursor wraps to its slot.
        let mut q = EventQueue::new();
        let window = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        let near = SimTime::from_ps(3 << BUCKET_SHIFT);
        let far = SimTime::from_ps((3 << BUCKET_SHIFT) + 2 * window);
        q.push(far, Event::FlowStart(2));
        q.push(near, Event::FlowStart(0));
        q.push(far, Event::FlowStart(3));
        q.push(near, Event::FlowStart(1));
        let mut popped = Vec::new();
        while let Some((t, ev)) = q.pop() {
            if let Event::FlowStart(i) = ev {
                popped.push((t, i));
            }
        }
        assert_eq!(popped, vec![(near, 0), (near, 1), (far, 2), (far, 3)]);
    }

    #[test]
    fn push_into_the_draining_bucket_keeps_order() {
        // While the current bucket drains, schedule new events at the same
        // instant and slightly later within the same bucket: they must pop
        // after the already-pending same-time events (larger seq) and in
        // time order otherwise — exactly like the reference heap.
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(400);
        q.push(t, Event::FlowStart(0));
        q.push(t, Event::FlowStart(1));
        assert!(matches!(q.pop(), Some((_, Event::FlowStart(0)))));
        // The bucket is now prepared and half-drained; push same-time and
        // later-in-bucket events.
        q.push(t, Event::FlowStart(2));
        let later = t + hpcc_types::Duration::from_ns(1);
        q.push(later, Event::FlowStart(3));
        let mut order = Vec::new();
        while let Some((_, ev)) = q.pop() {
            if let Event::FlowStart(i) = ev {
                order.push(i);
            }
        }
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn peak_len_counts_ring_and_overflow_at_rollover() {
        // Regression: `peak_len` must report the max of the *combined*
        // occupancy (bucket ring + far-future overflow heap), sampled while
        // events straddle a bucket-boundary rollover — not just the ring
        // level. Five near events sit in the ring; five far events (beyond
        // the ring window) sit in the overflow heap at the same instant.
        let mut q = EventQueue::new();
        let window = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        let boundary = SimTime::from_ps(7 << BUCKET_SHIFT);
        for i in 0..5u64 {
            // In-ring: straddle the bucket boundary itself.
            q.push(SimTime::from_ps((7 << BUCKET_SHIFT) + i - 2), Event::Sample);
            // Overflow level: one full rotation later, same ring slot.
            q.push(
                SimTime::from_ps((7 << BUCKET_SHIFT) + i - 2 + 2 * window),
                Event::Sample,
            );
        }
        assert_eq!(q.len(), 10);
        assert_eq!(q.peak_len(), 10, "peak must count ring + overflow");
        // Drain through the rollover: far events migrate overflow -> ring as
        // the cursor wraps; the peak must not grow (no double counting) and
        // must survive the drain.
        let mut times = Vec::new();
        while let Some((t, _)) = q.pop() {
            times.push(t);
        }
        assert_eq!(times.len(), 10);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(times.contains(&boundary));
        assert_eq!(q.peak_len(), 10, "peak is a high-water mark across levels");
    }

    #[test]
    fn far_future_events_pass_through_the_overflow_level() {
        let mut q = EventQueue::new();
        // A sparse far-future timeline: every event is beyond the ring
        // window of its predecessor (RTO-like spacing).
        let times: Vec<SimTime> = (1..=5).map(|k| SimTime::from_ms(4 * k)).collect();
        for (i, &t) in times.iter().enumerate().rev() {
            q.push(t, Event::FlowStart(i));
        }
        assert_eq!(q.len(), 5);
        let mut popped = Vec::new();
        while let Some((t, ev)) = q.pop() {
            if let Event::FlowStart(i) = ev {
                popped.push((t, i));
            }
        }
        assert_eq!(
            popped,
            times
                .iter()
                .copied()
                .enumerate()
                .map(|(i, t)| (t, i))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::from_us(2), Event::Sample);
        assert_eq!(q.peek_time(), Some(SimTime::from_us(2)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.peek_time().is_none());
        // Peek also sees overflow-level events.
        q.push(SimTime::from_ms(500), Event::Sample);
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(500)));
    }

    #[test]
    fn packet_pool_recycles_boxes() {
        let mut eff = Effects::default();
        let p = Packet::data(FlowId(1), NodeId(0), NodeId(1), 0, 1000, SimTime::ZERO);
        let b1 = eff.alloc_packet(p);
        let addr = std::ptr::addr_of!(*b1) as usize;
        eff.recycle(b1);
        let b2 = eff.alloc_packet(Packet::pfc(hpcc_types::Priority::DATA, true));
        assert_eq!(std::ptr::addr_of!(*b2) as usize, addr, "box was reused");
        assert!(matches!(
            b2.kind,
            hpcc_types::PacketKind::Pfc { pause: true, .. }
        ));
    }

    #[test]
    fn wheel_matches_reference_heap_on_a_randomized_schedule() {
        // Drive the wheel and a plain (time, seq)-ordered reference with an
        // identical randomized push/pop script covering in-window pushes,
        // overflow pushes, ties and pushes into the draining bucket.
        use hpcc_types::rng::SplitMix64;
        let mut rng = SplitMix64::new(0xE1E7);
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, u64)> = Vec::new(); // (time ps, seq)
        let mut seq = 0u64;
        let mut now = 0u64;
        for _ in 0..20_000 {
            if rng.next_below(3) > 0 || reference.is_empty() {
                // Push at now + jitter: mostly near, sometimes far future.
                let jitter = if rng.next_below(50) == 0 {
                    rng.next_below(1 << 30)
                } else {
                    rng.next_below(1 << 20)
                };
                let t = now + jitter;
                q.push(SimTime::from_ps(t), Event::FlowStart(seq as usize));
                reference.push((t, seq));
                seq += 1;
            } else {
                let (t, ev) = q.pop().unwrap();
                let min = *reference.iter().min().unwrap();
                reference.retain(|&x| x != min);
                assert_eq!(t.as_ps(), min.0);
                assert!(matches!(ev, Event::FlowStart(i) if i as u64 == min.1));
                now = min.0;
            }
        }
        while let Some((t, _)) = q.pop() {
            let min = *reference.iter().min().unwrap();
            reference.retain(|&x| x != min);
            assert_eq!(t.as_ps(), min.0);
        }
        assert!(reference.is_empty());
    }

    #[test]
    fn wheel_matches_reference_heap_on_a_dense_schedule() {
        // The density of the paper's 320-host fabric: over a thousand events
        // per bucket, over 40% of pushes into the bucket that is draining,
        // same-time ties, and timers beyond the ring window. Pop order must
        // equal the (time, seq) reference, and `len`/`peak_len` must count
        // every pending event wherever the queue keeps it.
        use hpcc_types::rng::SplitMix64;
        use std::collections::{BTreeMap, BTreeSet};
        const WIDTH: u64 = 1 << BUCKET_SHIFT;
        const GRID: u64 = 4096; // coarse times: many same-time ties
        let window = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
        let mut rng = SplitMix64::new(0xDE45E);
        let mut q = EventQueue::new();
        let mut reference: BTreeSet<(u64, u64)> = BTreeSet::new();
        let mut peak = 0usize;
        let mut seq = 0u64;
        let mut now = 0u64;
        let mut draining = false;
        let (mut pushes, mut draining_pushes, mut far_pushes) = (0u64, 0u64, 0u64);
        let mut pops_per_slot: BTreeMap<u64, u64> = BTreeMap::new();
        let mut push = |q: &mut EventQueue,
                        reference: &mut BTreeSet<(u64, u64)>,
                        rng: &mut SplitMix64,
                        now: u64,
                        draining: bool| {
            let roll = rng.next_below(100);
            let t = if roll < 45 {
                // Same bucket as `now`: exactly now, or later in the bucket.
                if rng.next_below(8) == 0 {
                    now
                } else {
                    let bucket_end = (now / WIDTH + 1) * WIDTH;
                    let t = now + rng.next_below(bucket_end - now);
                    (t - t % GRID).max(now)
                }
            } else if roll < 98 {
                (now + WIDTH + rng.next_below(16 * WIDTH)).next_multiple_of(GRID)
            } else {
                far_pushes += 1;
                now + window + rng.next_below(1 << 26)
            };
            if draining {
                pushes += 1;
                if t >> BUCKET_SHIFT == now >> BUCKET_SHIFT {
                    draining_pushes += 1;
                }
            }
            q.push(SimTime::from_ps(t), Event::FlowStart(seq as usize));
            reference.insert((t, seq));
            seq += 1;
        };
        let check_pop = |q: &mut EventQueue, reference: &mut BTreeSet<(u64, u64)>| {
            let (t, ev) = q.pop().unwrap();
            let (rt, rseq) = reference.pop_first().unwrap();
            assert_eq!(t.as_ps(), rt);
            assert!(matches!(ev, Event::FlowStart(i) if i as u64 == rseq));
            rt
        };
        // Warm up to ~13 k pending, as on the paper fabric.
        for _ in 0..13_000 {
            push(&mut q, &mut reference, &mut rng, now, draining);
            peak = peak.max(reference.len());
            assert_eq!((q.len(), q.peak_len()), (reference.len(), peak));
        }
        // Steady state: one pop, then 0-2 pushes relative to the new time,
        // so the pending count random-walks around its start.
        for _ in 0..100_000 {
            now = check_pop(&mut q, &mut reference);
            *pops_per_slot.entry(now >> BUCKET_SHIFT).or_default() += 1;
            draining = true;
            assert_eq!((q.len(), q.peak_len()), (reference.len(), peak));
            for _ in 0..rng.next_below(3) {
                push(&mut q, &mut reference, &mut rng, now, draining);
                peak = peak.max(reference.len());
                assert_eq!((q.len(), q.peak_len()), (reference.len(), peak));
            }
        }
        while !reference.is_empty() {
            check_pop(&mut q, &mut reference);
            assert_eq!((q.len(), q.peak_len()), (reference.len(), peak));
        }
        assert!(q.pop().is_none());
        // The schedule really had the density it claims.
        let dense = pops_per_slot.values().filter(|&&n| n >= 1000).count();
        assert!(
            dense * 2 > pops_per_slot.len(),
            "most drained buckets held >= 1000 events: {dense} of {}",
            pops_per_slot.len()
        );
        assert!(
            draining_pushes * 100 >= 40 * pushes,
            "{draining_pushes} of {pushes} steady-state pushes hit the draining bucket"
        );
        assert!(far_pushes > 1000, "{far_pushes} far-future timers");
    }
}
