//! Prefix-snapshot cache for the enforcement loop.
//!
//! Figure 7 re-executes every candidate input from `main`, yet the
//! execution prefix up to the first byte the solver may have changed is
//! identical on every iteration (and, for multi-site programs, covers the
//! processing of every earlier site). This module owns the cache that
//! turns those re-executions into resumed suffixes:
//!
//! * a [`SiteSlot`] holds one site's prefix snapshot. It is *unset*
//!   until the unit's warm pass ([`warm_unit_slots`]) reaches it, which
//!   then sets it once, for good: *ready* (the boundary step and the
//!   snapshot) or *inert* (the seed run never read the site's bytes, or
//!   ended before the first read, so the site runs every candidate from
//!   `main`). The warm pass is the only producer of snapshots. It
//!   captures under `Concrete`, and every snapshot it places serves both
//!   the site's candidates, which resume it at concrete speed, and the
//!   stage-2 extraction, which lifts it into the site's symbolic policy;
//! * a [`SnapshotCache`] maps `(unit, site label)` keys to slots and is
//!   shared across campaign workers behind an `Arc`, with the same
//!   discipline as the solver-query cache; its counters ([`hits`,
//!   `misses`, `resumes`](SnapshotStats)) surface in campaign reports.
//!
//! Correctness never depends on the cache: every resume revalidates the
//! snapshot's input-observation log against the candidate (see
//! `diode_interp::Snapshot::validates`), and a mismatch falls back to a
//! full run. The lift likewise refuses a prefix that read a byte the
//! site's policy tags, and the extraction then runs from `main`.
//! Snapshot-on and snapshot-off runs are byte-identical by contract.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use diode_format::{Fixup, FormatDesc};
use diode_interp::{run_capture_multi, Concrete, MachineConfig, Snapshot};
use diode_lang::{Label, Program};
use diode_obs::Json;

use crate::pipeline::TargetSite;

/// Aggregate snapshot-cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Candidate tests that found a ready snapshot, whether or not it
    /// validated for the candidate.
    pub hits: u64,
    /// Candidate tests whose slot held no snapshot (unset or inert), so
    /// they ran from `main`. A failed validation is a hit, not a miss.
    pub misses: u64,
    /// Candidate tests actually resumed from a snapshot (hits whose
    /// validation passed). `hits - resumes` counts invalidations.
    pub resumes: u64,
    /// Prefix snapshots captured into a slot. A capture that finds its
    /// slot already holding a snapshot (two identical units warming the
    /// same slot) is discarded and not counted.
    pub captures: u64,
    /// Stage-2 extractions resumed from a prefix snapshot (the per-site
    /// symbolic seed run replayed only its suffix).
    pub extract_resumes: u64,
    /// Ready snapshots currently held.
    pub entries: u64,
    /// Approximate bytes pinned by ready snapshots (COW heap payloads,
    /// frames, validation logs).
    pub bytes: u64,
    /// High-water mark of `bytes` over the cache's lifetime.
    pub peak_bytes: u64,
}

impl SnapshotStats {
    /// Resumed fraction of all candidate executions.
    #[must_use]
    pub fn resume_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.resumes as f64 / total as f64
        }
    }
}

/// The one serialised shape of the counters, shared by the daemon's
/// replies and the harness's `--json` outputs.
impl From<SnapshotStats> for Json {
    fn from(s: SnapshotStats) -> Json {
        Json::obj()
            .field("hits", s.hits)
            .field("misses", s.misses)
            .field("resumes", s.resumes)
            .field("captures", s.captures)
            .field("extract_resumes", s.extract_resumes)
            .field("entries", s.entries)
            .field("bytes", s.bytes)
            .field("peak_bytes", s.peak_bytes)
            .field("resume_rate", s.resume_rate())
    }
}

#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    resumes: AtomicU64,
    captures: AtomicU64,
    extract_resumes: AtomicU64,
    /// Bytes pinned by ready snapshots. A slot is set once and a ready
    /// slot stays ready, so the gauge grows monotonically and current ==
    /// peak until a future eviction policy subtracts.
    bytes: diode_obs::ByteGauge,
}

/// A ready slot's content: the boundary step and the prefix captured
/// just before it.
#[derive(Debug)]
struct Ready {
    step: u64,
    snapshot: Arc<Snapshot<Concrete>>,
}

/// The per-site snapshot slot. Obtained from a shared [`SnapshotCache`]
/// (campaigns) or created locally, and set by [`warm_unit_slots`].
#[derive(Debug)]
pub struct SiteSlot {
    /// Unset until the warm pass reaches the slot; then ready (`Some`)
    /// or inert (`None`). The first setting wins.
    state: OnceLock<Option<Ready>>,
    counters: Arc<Counters>,
}

impl SiteSlot {
    /// A standalone slot with its own counters, for single-site analyses
    /// outside a campaign cache.
    #[must_use]
    pub fn local() -> SiteSlot {
        SiteSlot::with_counters(Arc::new(Counters::default()))
    }

    fn with_counters(counters: Arc<Counters>) -> SiteSlot {
        SiteSlot {
            state: OnceLock::new(),
            counters,
        }
    }

    fn ready(&self) -> Option<&Ready> {
        self.state.get()?.as_ref()
    }

    /// The step of the first read of the site's relevant or checksum
    /// bytes on the seed run, just before which the ready snapshot was
    /// captured (`None` unless the slot is ready).
    #[must_use]
    pub fn first_divergent_step(&self) -> Option<u64> {
        self.ready().map(|r| r.step)
    }

    /// The ready prefix snapshot, which serves the site's extraction and
    /// its candidates alike: candidates resume it as it is, stage 2
    /// lifts it into the site's symbolic policy.
    pub(crate) fn snapshot(&self) -> Option<Arc<Snapshot<Concrete>>> {
        self.ready().map(|r| Arc::clone(&r.snapshot))
    }

    /// Sets the slot ready, unless it is already set. A snapshot that
    /// loses that race (two identical units warming the same slot) is
    /// dropped and not counted.
    fn record_snapshot(&self, step: u64, snapshot: Snapshot<Concrete>) {
        let bytes = snapshot.approx_bytes();
        let ready = Ready {
            step,
            snapshot: Arc::new(snapshot),
        };
        if self.state.set(Some(ready)).is_ok() {
            self.counters.captures.fetch_add(1, Ordering::Relaxed);
            self.counters.bytes.add(bytes);
        }
    }

    /// Sets the slot inert, unless it is already set.
    fn mark_inert(&self) {
        let _ = self.state.set(None);
    }

    pub(crate) fn count_hit(&self, resumed: bool) {
        self.counters.hits.fetch_add(1, Ordering::Relaxed);
        if resumed {
            self.counters.resumes.fetch_add(1, Ordering::Relaxed);
        }
        // A failed validation (hit without resume) re-executes from
        // scratch but still counts as ONE candidate execution: hits and
        // misses partition the tests, so `hits + misses` is the run
        // count and `hits - resumes` the invalidations.
    }

    pub(crate) fn count_miss(&self) {
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_extract_resume(&self) {
        self.counters
            .extract_resumes
            .fetch_add(1, Ordering::Relaxed);
    }

    fn is_ready(&self) -> bool {
        self.ready().is_some()
    }

    /// This slot's counters as stats (entries counts this slot only).
    #[must_use]
    pub fn stats(&self) -> SnapshotStats {
        SnapshotStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            resumes: self.counters.resumes.load(Ordering::Relaxed),
            captures: self.counters.captures.load(Ordering::Relaxed),
            extract_resumes: self.counters.extract_resumes.load(Ordering::Relaxed),
            entries: u64::from(self.is_ready()),
            bytes: self.counters.bytes.current(),
            peak_bytes: self.counters.bytes.peak(),
        }
    }
}

/// A thread-safe map from `(unit, site label)` to [`SiteSlot`]s, shared
/// across campaign workers behind an `Arc` (the same discipline as the
/// solver-query cache). The `unit` key is caller-chosen — campaigns use a
/// fingerprint of the unit's program text and seed bytes — so snapshots
/// are shared only between workloads whose prefixes are identical.
#[derive(Debug, Default)]
pub struct SnapshotCache {
    slots: Mutex<HashMap<(u64, Label), Arc<SiteSlot>>>,
    counters: Arc<Counters>,
}

impl SnapshotCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> SnapshotCache {
        SnapshotCache::default()
    }

    /// The slot for one `(unit, site)` — created on first use; every slot
    /// shares the cache's counters.
    #[must_use]
    pub fn slot(&self, unit: u64, label: Label) -> Arc<SiteSlot> {
        let mut slots = self.slots.lock().unwrap();
        Arc::clone(
            slots
                .entry((unit, label))
                .or_insert_with(|| Arc::new(SiteSlot::with_counters(Arc::clone(&self.counters)))),
        )
    }

    /// Aggregate counters plus the number of ready snapshots held.
    #[must_use]
    pub fn stats(&self) -> SnapshotStats {
        let entries = self
            .slots
            .lock()
            .unwrap()
            .values()
            .filter(|s| s.is_ready())
            .count() as u64;
        SnapshotStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            resumes: self.counters.resumes.load(Ordering::Relaxed),
            captures: self.counters.captures.load(Ordering::Relaxed),
            extract_resumes: self.counters.extract_resumes.load(Ordering::Relaxed),
            entries,
            bytes: self.counters.bytes.current(),
            peak_bytes: self.counters.bytes.peak(),
        }
    }
}

/// The input offsets whose first read marks a site's snapshot boundary
/// when warming from stage-1 data alone: the site's relevant bytes (a
/// superset of β's bytes) plus every checksum-fixup destination.
#[must_use]
pub(crate) fn warm_watch_bytes(target: &TargetSite, format: &FormatDesc) -> Vec<u32> {
    let mut set: std::collections::BTreeSet<u32> = target.relevant_bytes.iter().copied().collect();
    for fixup in format.fixups() {
        let Fixup::Crc32 { dest, .. } = fixup;
        set.extend(*dest..dest + 4);
    }
    set.into_iter().collect()
}

/// Warms every site slot of one `(program, seed)` unit in a single pass:
/// given the first-read trace of the identification run (see
/// `diode_interp::run_traced`), each site's snapshot boundary is the
/// earliest first-read among its watch bytes, and **one** capture run —
/// under `Concrete`, stopping at the last boundary — produces every
/// site's prefix snapshot. Every enforcement candidate resumes its
/// site's snapshot as it is, at concrete speed. Stage-2 extraction lifts
/// it into the site's own relevant-byte policy (`run_to_alloc`): the
/// prefix ends before the first read of any of the site's bytes, so that
/// policy would have tagged nothing in it. The capture runs under the
/// caller's machine config (recording on by default), so the lift has
/// the prefix branch log.
///
/// `slots` is parallel to `targets`. Sites whose watch bytes were never
/// read, or whose boundary the capture run never reached, are marked
/// inert. Slots that are already ready or inert (a warm daemon job's)
/// are left out of the pass, and when none is left it runs nothing.
pub fn warm_unit_slots(
    program: &Program,
    seed: &[u8],
    format: &FormatDesc,
    targets: &[TargetSite],
    machine: &MachineConfig,
    first_reads: &HashMap<u64, u64>,
    slots: &[Arc<SiteSlot>],
) {
    assert_eq!(targets.len(), slots.len(), "slots parallel to targets");
    let _span = diode_obs::span(diode_obs::Phase::Warm);
    let mut stops: Vec<(u64, usize)> = Vec::new();
    for (i, target) in targets.iter().enumerate() {
        if slots[i].state.get().is_some() {
            continue;
        }
        let step = warm_watch_bytes(target, format)
            .iter()
            .filter_map(|&o| first_reads.get(&u64::from(o)).copied())
            .min();
        match step {
            Some(step) => stops.push((step, i)),
            None => slots[i].mark_inert(),
        }
    }
    if stops.is_empty() {
        return;
    }
    stops.sort_unstable();
    let steps: Vec<u64> = stops.iter().map(|&(s, _)| s).collect();
    let snapshots = run_capture_multi(program, seed, Concrete, machine, &steps);
    for (&(step, i), snapshot) in stops.iter().zip(snapshots) {
        match snapshot {
            Some(s) => slots[i].record_snapshot(step, s),
            None => slots[i].mark_inert(),
        }
    }
}

#[allow(unused)]
fn _assert_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<SnapshotCache>();
    check::<SiteSlot>();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_sites_stay_plain() {
        let slot = SiteSlot::local();
        slot.mark_inert();
        assert!(slot.snapshot().is_none());
        assert_eq!(slot.first_divergent_step(), None);
        assert!(slot.state.get().is_some(), "inert is set, not unset");
        // The first setting wins: a later capture leaves it inert.
        let program = diode_lang::parse("fn main() { x = in[0]; }").unwrap();
        let machine = MachineConfig::default();
        let snapshot = run_capture_multi(&program, &[1], Concrete, &machine, &[1])
            .pop()
            .flatten();
        slot.record_snapshot(1, snapshot.expect("step 1 is reached"));
        assert!(slot.snapshot().is_none());
        assert_eq!(slot.stats().captures, 0);
    }

    #[test]
    fn cache_shares_counters_and_keys_by_unit_and_label() {
        let cache = SnapshotCache::new();
        let a = cache.slot(1, Label(3));
        let b = cache.slot(1, Label(3));
        assert!(Arc::ptr_eq(&a, &b));
        let c = cache.slot(2, Label(3));
        assert!(!Arc::ptr_eq(&a, &c));
        a.count_miss();
        c.count_hit(true);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.resumes, 1);
        assert_eq!(stats.entries, 0);
    }
}
