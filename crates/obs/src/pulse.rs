//! diode-pulse: a bounded multi-subscriber event bus for live campaign
//! telemetry.
//!
//! The engine publishes [`PulseEvent`]s — unit/site progress mirrored
//! from the `CampaignEvent` stream plus periodic [`HeartbeatSample`]s —
//! into a [`PulseBus`]. Each subscriber owns a bounded ring
//! ([`PulseRing`]): publishing is a claim-slot/write/release sequence
//! on atomic sequence numbers (Vyukov-style bounded queue), and a full
//! ring **drops the event and counts the drop** instead of blocking the
//! publisher. A slow subscriber therefore costs the campaign nothing
//! but its own completeness, which it can observe through
//! [`Subscriber::dropped`].
//!
//! Slot payloads sit behind per-slot mutexes, but the sequence protocol
//! guarantees each slot has exactly one owner between claim and
//! release, so those locks are uncontended single-CAS acquisitions via
//! `try_lock` — no publisher or consumer ever waits on one.
//!
//! The module also hosts the two shared-state tables the heartbeat
//! sampler reads: [`WorkerStateTable`] (what each worker is doing right
//! now) and [`SchedGauges`] (queue depth, steal count, jobs retired).
//! Both are written from the scheduler hot path only when telemetry is
//! enabled; with no bus configured the engine never touches them.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, Weak};

/// What one worker is doing, as sampled into a heartbeat.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum WorkerState {
    /// Waiting for work (empty local deque, nothing stolen).
    #[default]
    Idle,
    /// Running a unit-level job (site identification / warm-up).
    Unit {
        /// Application name.
        app: String,
        /// Seed index within the unit.
        seed: u32,
    },
    /// Analyzing one target site.
    Site {
        /// Application name.
        app: String,
        /// Seed index within the unit.
        seed: u32,
        /// Site label (e.g. `b0@7`).
        site: String,
    },
}

impl WorkerState {
    /// Short token for the wire format: `idle`, `unit`, or `site`.
    #[must_use]
    pub fn token(&self) -> &'static str {
        match self {
            WorkerState::Idle => "idle",
            WorkerState::Unit { .. } => "unit",
            WorkerState::Site { .. } => "site",
        }
    }
}

/// One periodic sample of campaign-wide liveness and resource state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HeartbeatSample {
    /// Dense heartbeat sequence number, starting at 0.
    pub seq: u64,
    /// Nanoseconds since the campaign started.
    pub t_ns: u64,
    /// Per-worker state, indexed by worker id.
    pub workers: Vec<WorkerState>,
    /// Jobs sitting in the injector + local deques right now.
    pub queued: u64,
    /// Jobs spawned but not yet retired (scheduler `pending`).
    pub pending: u64,
    /// Cumulative successful steals.
    pub steals: u64,
    /// Cumulative jobs retired.
    pub jobs_done: u64,
    /// Solver-cache resident bytes.
    pub cache_bytes: u64,
    /// Solver-cache entry count.
    pub cache_entries: u64,
    /// Snapshot-cache resident bytes.
    pub snapshot_bytes: u64,
    /// Snapshot-cache entry count.
    pub snapshot_entries: u64,
    /// Largest interpreter heap high-water mark seen on any site so far.
    pub interp_peak_heap_bytes: u64,
}

/// One event on the pulse bus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PulseEvent {
    /// A unit (app × seed) began site identification.
    UnitStarted {
        /// Application name.
        app: String,
        /// Seed index.
        seed: u32,
    },
    /// Identification finished for a unit.
    SitesIdentified {
        /// Application name.
        app: String,
        /// Seed index.
        seed: u32,
        /// Number of candidate sites found.
        sites: u64,
    },
    /// One site's full analysis completed.
    SiteFinished {
        /// Application name.
        app: String,
        /// Seed index.
        seed: u32,
        /// Site label.
        site: String,
        /// Outcome token (same vocabulary as `SiteOutcome::token`).
        outcome: String,
        /// Wall time the analysis took, in nanoseconds.
        wall_ns: u64,
        /// Solver-cache resident bytes at completion.
        cache_bytes: u64,
        /// Snapshot-cache resident bytes at completion.
        snapshot_bytes: u64,
        /// Interpreter heap high-water mark during this site's runs.
        peak_heap_bytes: u64,
    },
    /// Periodic liveness/resource sample.
    Heartbeat(HeartbeatSample),
    /// The campaign finished.
    Finished {
        /// Total campaign wall time in nanoseconds.
        wall_ns: u64,
        /// Total sites analyzed.
        sites: u64,
        /// Sites with an exposed overflow.
        exposed: u64,
    },
}

impl PulseEvent {
    /// Record-type token used in the telemetry wire format.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            PulseEvent::UnitStarted { .. } => "unit_started",
            PulseEvent::SitesIdentified { .. } => "sites_identified",
            PulseEvent::SiteFinished { .. } => "site_finished",
            PulseEvent::Heartbeat(_) => "heartbeat",
            PulseEvent::Finished { .. } => "finished",
        }
    }
}

/// One slot of a [`PulseRing`]. `seq` carries the Vyukov handshake;
/// the payload mutex is only ever touched by the slot's current owner.
struct Slot {
    seq: AtomicU64,
    value: Mutex<Option<PulseEvent>>,
}

/// A bounded ring buffer with drop-counting, non-blocking publish.
///
/// Multi-producer (any worker plus the sampler thread may publish),
/// single logical consumer (the subscriber), though the protocol is
/// safe for concurrent consumers too.
pub struct PulseRing {
    slots: Box<[Slot]>,
    mask: u64,
    enqueue_pos: AtomicU64,
    dequeue_pos: AtomicU64,
    dropped: AtomicU64,
}

impl PulseRing {
    /// A ring holding at most `capacity` events (rounded up to a power
    /// of two, minimum 2).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> PulseRing {
        let cap = capacity.max(2).next_power_of_two() as u64;
        let slots = (0..cap)
            .map(|i| Slot {
                seq: AtomicU64::new(i),
                value: Mutex::new(None),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        PulseRing {
            slots,
            mask: cap - 1,
            enqueue_pos: AtomicU64::new(0),
            dequeue_pos: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Number of slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Publishes `event`; returns `false` (and counts a drop) when the
    /// ring is full. Never blocks.
    pub fn try_push(&self, event: PulseEvent) -> bool {
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[(pos & self.mask) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos {
                match self.enqueue_pos.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // We own the slot until the seq release below;
                        // try_lock can only see an uncontended mutex.
                        if let Ok(mut value) = slot.value.try_lock() {
                            *value = Some(event);
                        }
                        slot.seq.store(pos + 1, Ordering::Release);
                        return true;
                    }
                    Err(seen) => pos = seen,
                }
            } else if seq < pos {
                // The slot still holds an unconsumed event from the
                // previous lap: the ring is full.
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return false;
            } else {
                pos = self.enqueue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Takes the oldest event, or `None` when the ring is empty.
    pub fn try_pop(&self) -> Option<PulseEvent> {
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[(pos & self.mask) as usize];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos + 1 {
                match self.dequeue_pos.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let event = slot.value.try_lock().ok().and_then(|mut v| v.take());
                        slot.seq.store(pos + self.mask + 1, Ordering::Release);
                        return event;
                    }
                    Err(seen) => pos = seen,
                }
            } else if seq <= pos {
                return None;
            } else {
                pos = self.dequeue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Events discarded because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// A subscriber's receiving end of the bus: a handle on its own ring.
pub struct Subscriber {
    ring: Arc<PulseRing>,
}

impl Subscriber {
    /// The oldest undelivered event, if any. Never blocks.
    pub fn try_recv(&self) -> Option<PulseEvent> {
        self.ring.try_pop()
    }

    /// Every currently buffered event, oldest first.
    pub fn drain(&self) -> Vec<PulseEvent> {
        let mut out = Vec::new();
        while let Some(ev) = self.ring.try_pop() {
            out.push(ev);
        }
        out
    }

    /// Events this subscriber lost to backpressure so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }
}

/// The multi-subscriber fan-out bus.
///
/// `subscribe` registers a fresh ring under a write lock;
/// [`publish`](PulseBus::publish) only ever takes the read side, and
/// registration happens before the campaign starts, so publishing from
/// workers is effectively lock-free.
///
/// The bus holds its rings weakly: a ring lives exactly as long as its
/// [`Subscriber`], so a long-lived bus (one per daemon job, kept for the
/// daemon's life) does not pin the rings of consumers that are gone.
/// Dead entries are skipped by every reader and pruned by the next
/// `subscribe`.
#[derive(Default)]
pub struct PulseBus {
    rings: RwLock<Vec<Weak<PulseRing>>>,
}

impl std::fmt::Debug for PulseBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PulseBus")
            .field("subscribers", &self.subscriber_count())
            .field("dropped", &self.total_dropped())
            .finish()
    }
}

impl PulseBus {
    /// An empty bus.
    #[must_use]
    pub fn new() -> PulseBus {
        PulseBus::default()
    }

    /// Registers a subscriber with its own ring of `capacity` events.
    pub fn subscribe(&self, capacity: usize) -> Subscriber {
        let ring = Arc::new(PulseRing::with_capacity(capacity));
        let mut rings = self.rings.write().expect("pulse bus lock poisoned");
        rings.retain(|r| r.strong_count() > 0);
        rings.push(Arc::downgrade(&ring));
        Subscriber { ring }
    }

    /// Calls `f` on every live subscriber's ring.
    fn for_each_live(&self, mut f: impl FnMut(&PulseRing)) {
        let rings = self.rings.read().expect("pulse bus lock poisoned");
        for ring in rings.iter().filter_map(Weak::upgrade) {
            f(&ring);
        }
    }

    /// Fans `event` out to every live subscriber; returns how many rings
    /// accepted it (the rest counted drops). Never blocks on a full
    /// ring.
    pub fn publish(&self, event: &PulseEvent) -> usize {
        let mut delivered = 0;
        self.for_each_live(|ring| {
            if ring.try_push(event.clone()) {
                delivered += 1;
            }
        });
        delivered
    }

    /// Live subscriber count.
    #[must_use]
    pub fn subscriber_count(&self) -> usize {
        let mut live = 0;
        self.for_each_live(|_| live += 1);
        live
    }

    /// Total events dropped across all live subscribers.
    #[must_use]
    pub fn total_dropped(&self) -> u64 {
        let mut dropped = 0;
        self.for_each_live(|ring| dropped += ring.dropped());
        dropped
    }
}

/// Per-worker "what am I doing" table, written by workers and sampled
/// by the heartbeat thread. One uncontended mutex per worker: a worker
/// only writes its own slot, the sampler reads all of them ~20×/s.
pub struct WorkerStateTable {
    slots: Vec<Mutex<WorkerState>>,
}

impl WorkerStateTable {
    /// A table for `workers` workers, all initially idle.
    #[must_use]
    pub fn new(workers: usize) -> WorkerStateTable {
        WorkerStateTable {
            slots: (0..workers)
                .map(|_| Mutex::new(WorkerState::Idle))
                .collect(),
        }
    }

    /// Number of workers tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the table tracks no workers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Records worker `index`'s current state. Out-of-range indices are
    /// ignored (can only happen on a misconfigured table).
    pub fn set(&self, index: usize, state: WorkerState) {
        if let Some(slot) = self.slots.get(index) {
            *slot.lock().expect("worker table lock poisoned") = state;
        }
    }

    /// A point-in-time copy of every worker's state.
    #[must_use]
    pub fn snapshot(&self) -> Vec<WorkerState> {
        self.slots
            .iter()
            .map(|s| s.lock().expect("worker table lock poisoned").clone())
            .collect()
    }
}

/// Scheduler-level gauges the heartbeat sampler reads: live queue
/// depth plus cumulative steal/retire counters. All relaxed atomics —
/// advisory telemetry, never a scheduling input.
#[derive(Debug, Default)]
pub struct SchedGauges {
    queued: AtomicI64,
    steals: AtomicU64,
    jobs_done: AtomicU64,
}

impl SchedGauges {
    /// Gauges at zero.
    #[must_use]
    pub fn new() -> SchedGauges {
        SchedGauges::default()
    }

    /// A job entered the injector or a local deque.
    pub fn job_queued(&self) {
        self.queued.fetch_add(1, Ordering::Relaxed);
    }

    /// A job left a queue to run.
    pub fn job_dequeued(&self) {
        self.queued.fetch_sub(1, Ordering::Relaxed);
    }

    /// A successful steal from a sibling deque.
    pub fn steal(&self) {
        self.steals.fetch_add(1, Ordering::Relaxed);
    }

    /// A job finished.
    pub fn job_done(&self) {
        self.jobs_done.fetch_add(1, Ordering::Relaxed);
    }

    /// Jobs currently queued (clamped at zero: decrements can race
    /// ahead of the matching increment's visibility).
    #[must_use]
    pub fn queued(&self) -> u64 {
        self.queued.load(Ordering::Relaxed).max(0) as u64
    }

    /// Cumulative successful steals.
    #[must_use]
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Cumulative jobs retired.
    #[must_use]
    pub fn jobs_done(&self) -> u64 {
        self.jobs_done.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn ev(i: u64) -> PulseEvent {
        PulseEvent::SitesIdentified {
            app: "a".into(),
            seed: 0,
            sites: i,
        }
    }

    #[test]
    fn ring_round_trips_in_order() {
        let ring = PulseRing::with_capacity(4);
        for i in 0..4 {
            assert!(ring.try_push(ev(i)));
        }
        for i in 0..4 {
            assert_eq!(ring.try_pop(), Some(ev(i)));
        }
        assert_eq!(ring.try_pop(), None);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn full_ring_drops_and_counts() {
        let ring = PulseRing::with_capacity(2);
        assert!(ring.try_push(ev(0)));
        assert!(ring.try_push(ev(1)));
        assert!(!ring.try_push(ev(2)));
        assert!(!ring.try_push(ev(3)));
        assert_eq!(ring.dropped(), 2);
        // Draining frees slots again.
        assert_eq!(ring.try_pop(), Some(ev(0)));
        assert!(ring.try_push(ev(4)));
        assert_eq!(ring.try_pop(), Some(ev(1)));
        assert_eq!(ring.try_pop(), Some(ev(4)));
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(PulseRing::with_capacity(0).capacity(), 2);
        assert_eq!(PulseRing::with_capacity(3).capacity(), 4);
        assert_eq!(PulseRing::with_capacity(64).capacity(), 64);
    }

    #[test]
    fn bus_fans_out_to_every_subscriber() {
        let bus = PulseBus::new();
        let a = bus.subscribe(8);
        let b = bus.subscribe(8);
        assert_eq!(bus.publish(&ev(7)), 2);
        assert_eq!(a.try_recv(), Some(ev(7)));
        assert_eq!(b.drain(), vec![ev(7)]);
        assert_eq!(bus.subscriber_count(), 2);
        assert_eq!(bus.total_dropped(), 0);
    }

    #[test]
    fn dropped_subscriber_frees_its_ring() {
        let bus = PulseBus::new();
        let sub = bus.subscribe(1 << 14);
        assert_eq!(bus.subscriber_count(), 1);
        drop(sub);
        assert_eq!(bus.subscriber_count(), 0);
        assert_eq!(bus.publish(&ev(1)), 0);
        assert_eq!(bus.total_dropped(), 0);
        // The next subscriber prunes the dead entry and alone receives.
        let next = bus.subscribe(8);
        assert_eq!(bus.rings.read().unwrap().len(), 1);
        assert_eq!(bus.publish(&ev(2)), 1);
        assert_eq!(next.drain(), vec![ev(2)]);
    }

    #[test]
    fn slow_subscriber_drops_without_blocking_publisher() {
        let bus = PulseBus::new();
        let fast = bus.subscribe(1024);
        let slow = bus.subscribe(2); // never drained
        for i in 0..100 {
            bus.publish(&ev(i));
        }
        assert_eq!(fast.drain().len(), 100);
        assert_eq!(fast.dropped(), 0);
        assert_eq!(slow.dropped(), 98);
        assert_eq!(slow.drain().len(), 2);
    }

    #[test]
    fn concurrent_publishers_lose_nothing_in_a_big_ring() {
        let bus = Arc::new(PulseBus::new());
        let sub = bus.subscribe(4096);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let bus = Arc::clone(&bus);
                thread::spawn(move || {
                    for i in 0..200 {
                        bus.publish(&ev(t * 1000 + i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let got = sub.drain();
        assert_eq!(got.len(), 800);
        assert_eq!(sub.dropped(), 0);
        // Per-publisher order is preserved.
        for t in 0..4u64 {
            let mine: Vec<u64> = got
                .iter()
                .filter_map(|e| match e {
                    PulseEvent::SitesIdentified { sites, .. }
                        if sites / 1000 == t && *sites >= t * 1000 =>
                    {
                        Some(*sites)
                    }
                    _ => None,
                })
                .collect();
            assert!(mine.windows(2).all(|w| w[0] < w[1]), "publisher {t} order");
        }
    }

    #[test]
    fn worker_table_snapshot_reflects_sets() {
        let table = WorkerStateTable::new(3);
        table.set(
            1,
            WorkerState::Unit {
                app: "x".into(),
                seed: 2,
            },
        );
        table.set(
            2,
            WorkerState::Site {
                app: "y".into(),
                seed: 0,
                site: "b0@3".into(),
            },
        );
        let snap = table.snapshot();
        assert_eq!(snap[0], WorkerState::Idle);
        assert_eq!(snap[1].token(), "unit");
        assert_eq!(snap[2].token(), "site");
        table.set(99, WorkerState::Idle); // out of range: ignored
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn sched_gauges_clamp_and_count() {
        let g = SchedGauges::new();
        g.job_queued();
        g.job_queued();
        g.job_dequeued();
        assert_eq!(g.queued(), 1);
        g.job_dequeued();
        g.job_dequeued(); // racing decrement: clamped, not wrapped
        assert_eq!(g.queued(), 0);
        g.steal();
        g.job_done();
        assert_eq!((g.steals(), g.jobs_done()), (1, 1));
    }
}
