//! diode-pulse: a bounded multi-subscriber event bus for live campaign
//! telemetry.
//!
//! The engine publishes [`PulseEvent`]s — unit/site progress plus
//! periodic [`HeartbeatSample`]s — into a [`PulseBus`]. Each subscriber
//! owns one bounded `std::sync::mpsc::sync_channel`: publishing
//! `try_send`s a clone into every channel, and a full channel **drops the
//! event and counts the drop** instead of blocking the publisher. A slow
//! subscriber therefore costs the campaign nothing but its own
//! completeness, which it can observe through [`Subscriber::dropped`].
//!
//! Publishing the campaign's terminal [`PulseEvent::Finished`] closes
//! the bus: it drops every sender, so a consumer blocked in
//! [`Subscriber::recv`] takes the buffered events and then gets `None`,
//! and a channel's buffer is freed as soon as its subscriber drops. A
//! subscriber that arrives after the close gets a stream that has
//! already ended.
//!
//! The module also hosts the two shared-state tables the heartbeat
//! sampler reads: [`WorkerStateTable`] (what each worker is doing right
//! now) and [`SchedGauges`] (queue depth, steal count, jobs retired).
//! Both are written from the scheduler hot path only when telemetry is
//! enabled; with no bus configured the engine never touches them.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard};

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

/// A subscriber's receiving end of the bus: its own bounded channel.
pub struct Subscriber {
    rx: Receiver<PulseEvent>,
    dropped: Arc<AtomicU64>,
}

impl Subscriber {
    /// Blocks until the next event; `None` once the bus has closed and
    /// every buffered event has been taken.
    pub fn recv(&self) -> Option<PulseEvent> {
        self.rx.recv().ok()
    }

    /// The oldest undelivered event, if any. Never blocks.
    pub fn try_recv(&self) -> Option<PulseEvent> {
        self.rx.try_recv().ok()
    }

    /// Every currently buffered event, oldest first. Never blocks.
    pub fn drain(&self) -> Vec<PulseEvent> {
        self.rx.try_iter().collect()
    }

    /// Events this subscriber lost to backpressure so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// The bus's half of one subscription.
struct Tap {
    tx: SyncSender<PulseEvent>,
    dropped: Arc<AtomicU64>,
}

/// Every open subscription, plus whether the stream has ended.
#[derive(Default)]
struct Taps {
    open: Vec<Tap>,
    closed: bool,
}

impl Taps {
    /// Drops every sender, ending each subscriber's stream.
    fn close(&mut self) {
        self.open.clear();
        self.closed = true;
    }
}

/// The multi-subscriber fan-out bus.
///
/// Subscribing and publishing share one short lock; publishing never
/// waits on a subscriber. A tap whose [`Subscriber`] has dropped is
/// pruned by the next [`publish`](PulseBus::publish), and
/// [`close`](PulseBus::close) drops them all, so a long-lived bus (one
/// per daemon job, kept for the daemon's life) pins no channel once its
/// stream has ended.
#[derive(Default)]
pub struct PulseBus {
    taps: Mutex<Taps>,
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

    fn taps(&self) -> MutexGuard<'_, Taps> {
        self.taps.lock().expect("pulse bus lock poisoned")
    }

    /// Registers a subscriber with its own channel of `capacity` events
    /// (at least 1). On a closed bus the stream has already ended.
    pub fn subscribe(&self, capacity: usize) -> Subscriber {
        let (tx, rx) = mpsc::sync_channel(capacity.max(1));
        let dropped = Arc::new(AtomicU64::new(0));
        let mut taps = self.taps();
        if !taps.closed {
            taps.open.push(Tap {
                tx,
                dropped: Arc::clone(&dropped),
            });
        }
        Subscriber { rx, dropped }
    }

    /// Fans `event` out to every subscriber; returns how many channels
    /// accepted it (a full one counts a drop). Never blocks. Publishing
    /// [`PulseEvent::Finished`] closes the bus afterwards.
    pub fn publish(&self, event: &PulseEvent) -> usize {
        let mut delivered = 0;
        let mut taps = self.taps();
        taps.open
            .retain(|tap| match tap.tx.try_send(event.clone()) {
                Ok(()) => {
                    delivered += 1;
                    true
                }
                Err(TrySendError::Full(_)) => {
                    tap.dropped.fetch_add(1, Ordering::Relaxed);
                    true
                }
                Err(TrySendError::Disconnected(_)) => false,
            });
        if matches!(event, PulseEvent::Finished { .. }) {
            taps.close();
        }
        delivered
    }

    /// Ends every stream without an event: each subscriber takes what
    /// is buffered, then [`recv`](Subscriber::recv) returns `None`.
    /// Later publishes deliver nothing.
    pub fn close(&self) {
        self.taps().close();
    }

    /// Subscribers still registered (a dropped one counts until the
    /// next publish prunes it; none once the bus has closed).
    #[must_use]
    pub fn subscriber_count(&self) -> usize {
        self.taps().open.len()
    }

    /// Total events dropped across the registered subscribers.
    #[must_use]
    pub fn total_dropped(&self) -> u64 {
        self.taps()
            .open
            .iter()
            .map(|tap| tap.dropped.load(Ordering::Relaxed))
            .sum()
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

    fn finished() -> PulseEvent {
        PulseEvent::Finished {
            wall_ns: 1,
            sites: 2,
            exposed: 1,
        }
    }

    #[test]
    fn ring_round_trips_in_order() {
        let bus = PulseBus::new();
        let sub = bus.subscribe(4);
        for i in 0..4 {
            assert_eq!(bus.publish(&ev(i)), 1);
        }
        for i in 0..4 {
            assert_eq!(sub.try_recv(), Some(ev(i)));
        }
        assert_eq!(sub.try_recv(), None);
        assert_eq!(sub.dropped(), 0);
    }

    #[test]
    fn full_ring_drops_and_counts() {
        let bus = PulseBus::new();
        let sub = bus.subscribe(2);
        assert_eq!(bus.publish(&ev(0)), 1);
        assert_eq!(bus.publish(&ev(1)), 1);
        assert_eq!(bus.publish(&ev(2)), 0);
        assert_eq!(bus.publish(&ev(3)), 0);
        assert_eq!(sub.dropped(), 2);
        assert_eq!(bus.total_dropped(), 2);
        // Draining frees slots again.
        assert_eq!(sub.try_recv(), Some(ev(0)));
        assert_eq!(bus.publish(&ev(4)), 1);
        assert_eq!(sub.drain(), vec![ev(1), ev(4)]);
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
        let next = bus.subscribe(8);
        assert_eq!(bus.subscriber_count(), 2);
        drop(sub);
        // The next publish finds the channel disconnected and prunes it;
        // the remaining subscriber alone receives.
        assert_eq!(bus.publish(&ev(1)), 1);
        assert_eq!(bus.subscriber_count(), 1);
        assert_eq!(bus.total_dropped(), 0);
        assert_eq!(next.drain(), vec![ev(1)]);
    }

    #[test]
    fn finished_closes_the_bus() {
        let bus = Arc::new(PulseBus::new());
        let sub = bus.subscribe(8);
        let reader = thread::spawn(move || std::iter::from_fn(|| sub.recv()).collect::<Vec<_>>());
        let publisher = Arc::clone(&bus);
        thread::spawn(move || {
            publisher.publish(&ev(0));
            publisher.publish(&ev(1));
            publisher.publish(&finished());
        })
        .join()
        .unwrap();
        // The reader, blocking in `recv`, got every event, then the end
        // of the stream.
        assert_eq!(reader.join().unwrap(), vec![ev(0), ev(1), finished()]);
        assert_eq!(bus.subscriber_count(), 0);
        // Publishing after `finished` reaches nobody, and a late
        // subscriber's stream has already ended.
        let late = bus.subscribe(8);
        assert_eq!(bus.publish(&ev(2)), 0);
        assert_eq!(late.recv(), None);
        assert_eq!(bus.subscriber_count(), 0);
    }

    #[test]
    fn close_ends_streams_without_an_event() {
        let bus = PulseBus::new();
        let sub = bus.subscribe(8);
        bus.publish(&ev(0));
        bus.close();
        assert_eq!(sub.recv(), Some(ev(0)));
        assert_eq!(sub.recv(), None);
        assert_eq!(bus.publish(&finished()), 0);
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
