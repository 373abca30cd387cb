//! Stall and anomaly detection over the pulse stream.
//!
//! A [`Watchdog`] consumes [`PulseEvent`]s (live from a
//! [`Subscriber`](crate::Subscriber), or replayed from a telemetry
//! JSONL) and raises typed [`AnomalyReport`]s:
//!
//! - [`SlowSite`](AnomalyKind::SlowSite): a site's wall time exceeded
//!   `slow_site_factor` × the median site wall time (with an absolute
//!   floor so fast suites don't flag noise). Evaluated at
//!   [`finish`](Watchdog::finish), once the median is known.
//! - [`BudgetNoProgress`](AnomalyKind::BudgetNoProgress): a site burned
//!   its entire enforcement budget without reaching a classification
//!   (outcome `prevented:budget` — the Figure-7 loop ran
//!   `max_enforcements` candidates and learned nothing decisive).
//! - [`IdleWorker`](AnomalyKind::IdleWorker): a worker sat idle for
//!   `idle_heartbeats` consecutive samples while the queues held work —
//!   the scheduler failed to route runnable jobs to a free worker.
//! - [`CachePressure`](AnomalyKind::CachePressure): combined cache
//!   resident bytes crossed the configured ceiling.
//!
//! Reports are deduplicated (one per kind × subject). A stream's
//! anomalies travel as `anomaly` records of its telemetry
//! ([`TelemetryLog::anomalies`](crate::TelemetryLog::anomalies)) and as
//! the rows of a daemon job report's `anomalies` array
//! ([`AnomalyReport::to_json`]).
//!
//! Default thresholds are deliberately conservative — the CI deep suite
//! gates on *zero* anomalies, so only order-of-magnitude outliers may
//! fire.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::pulse::{PulseEvent, WorkerState};

/// The typed anomaly taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AnomalyKind {
    /// Site wall time far above the campaign median.
    SlowSite,
    /// Enforcement budget exhausted with no decisive classification.
    BudgetNoProgress,
    /// Worker idle across consecutive heartbeats while work was queued.
    IdleWorker,
    /// Cache resident bytes above the configured ceiling.
    CachePressure,
}

impl AnomalyKind {
    /// Stable wire token.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            AnomalyKind::SlowSite => "slow_site",
            AnomalyKind::BudgetNoProgress => "budget_no_progress",
            AnomalyKind::IdleWorker => "idle_worker",
            AnomalyKind::CachePressure => "cache_pressure",
        }
    }

    /// Inverse of [`as_str`](Self::as_str).
    #[must_use]
    pub fn parse(token: &str) -> Option<AnomalyKind> {
        match token {
            "slow_site" => Some(AnomalyKind::SlowSite),
            "budget_no_progress" => Some(AnomalyKind::BudgetNoProgress),
            "idle_worker" => Some(AnomalyKind::IdleWorker),
            "cache_pressure" => Some(AnomalyKind::CachePressure),
            _ => None,
        }
    }
}

/// One raised anomaly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnomalyReport {
    /// Which detector fired.
    pub kind: AnomalyKind,
    /// Subject: `app/seed/site` for site anomalies, `worker:<i>` for
    /// idle workers, `cache` for cache pressure.
    pub subject: String,
    /// Human-readable explanation.
    pub detail: String,
    /// Observed value (ns for time anomalies, bytes for cache,
    /// heartbeat count for idle workers).
    pub value: u64,
    /// Threshold the value crossed.
    pub threshold: u64,
}

impl AnomalyReport {
    /// The report as one JSON object — a row of a daemon job report's
    /// `anomalies` array.
    #[must_use]
    pub fn to_json(&self) -> Json {
        self.fields(Json::obj())
    }

    /// The report as a telemetry `anomaly` record: the same object
    /// behind a `"type":"anomaly"` tag.
    pub(crate) fn record(&self) -> Json {
        self.fields(Json::obj().field("type", "anomaly"))
    }

    /// The report's fields appended to `obj`.
    fn fields(&self, obj: Json) -> Json {
        obj.field("kind", self.kind.as_str())
            .field("subject", self.subject.as_str())
            .field("detail", self.detail.as_str())
            .field("value", self.value)
            .field("threshold", self.threshold)
    }

    /// Reads a report back from [`to_json`](Self::to_json)'s object (or
    /// a telemetry `anomaly` record; its `type` tag is not checked here).
    pub fn from_json(doc: &Json) -> Result<AnomalyReport, String> {
        let kind = doc.str_field("kind")?;
        Ok(AnomalyReport {
            kind: AnomalyKind::parse(kind).ok_or_else(|| format!("unknown kind {kind:?}"))?,
            subject: doc.str_field("subject")?.to_string(),
            detail: doc.str_field("detail")?.to_string(),
            value: doc.u64_field("value")?,
            threshold: doc.u64_field("threshold")?,
        })
    }
}

/// Detector thresholds. Defaults are conservative enough that a
/// healthy deep-suite CI run raises nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchdogConfig {
    /// SlowSite fires above `slow_site_factor` × median site wall time.
    pub slow_site_factor: f64,
    /// ... but never below this absolute wall time (ns).
    pub slow_site_floor_ns: u64,
    /// Median is only trusted with at least this many finished sites.
    pub min_sites_for_median: usize,
    /// IdleWorker fires after this many consecutive idle-with-backlog
    /// heartbeats; `0` disables the detector.
    pub idle_heartbeats: u32,
    /// CachePressure ceiling over combined solver + snapshot resident
    /// bytes; `None` disables the detector.
    pub cache_ceiling_bytes: Option<u64>,
}

impl Default for WatchdogConfig {
    fn default() -> WatchdogConfig {
        WatchdogConfig {
            slow_site_factor: 8.0,
            slow_site_floor_ns: 250_000_000,
            min_sites_for_median: 8,
            idle_heartbeats: 40,
            cache_ceiling_bytes: None,
        }
    }
}

/// Accumulating anomaly detector over a pulse stream.
pub struct Watchdog {
    config: WatchdogConfig,
    /// (subject, wall_ns) per finished site, in arrival order.
    sites: Vec<(String, u64)>,
    /// Consecutive idle-with-backlog heartbeats per worker index.
    idle_streaks: Vec<u32>,
    anomalies: Vec<AnomalyReport>,
    /// Dedup set: (kind token, subject).
    raised: BTreeMap<(&'static str, String), ()>,
}

impl Watchdog {
    /// A watchdog with the given thresholds.
    #[must_use]
    pub fn new(config: WatchdogConfig) -> Watchdog {
        Watchdog {
            config,
            sites: Vec::new(),
            idle_streaks: Vec::new(),
            anomalies: Vec::new(),
            raised: BTreeMap::new(),
        }
    }

    fn raise(
        &mut self,
        kind: AnomalyKind,
        subject: String,
        detail: String,
        value: u64,
        threshold: u64,
    ) {
        if self
            .raised
            .insert((kind.as_str(), subject.clone()), ())
            .is_none()
        {
            self.anomalies.push(AnomalyReport {
                kind,
                subject,
                detail,
                value,
                threshold,
            });
        }
    }

    /// Feeds one event through every detector.
    pub fn feed(&mut self, event: &PulseEvent) {
        match event {
            PulseEvent::SiteFinished {
                app,
                seed,
                site,
                outcome,
                wall_ns,
                ..
            } => {
                let subject = format!("{app}/{seed}/{site}");
                self.sites.push((subject.clone(), *wall_ns));
                if outcome == "prevented:budget" {
                    self.raise(
                        AnomalyKind::BudgetNoProgress,
                        subject,
                        "enforcement budget exhausted without a decisive classification".into(),
                        *wall_ns,
                        0,
                    );
                }
            }
            PulseEvent::Heartbeat(hb) => {
                if self.idle_streaks.len() < hb.workers.len() {
                    self.idle_streaks.resize(hb.workers.len(), 0);
                }
                let watch_idle = self.config.idle_heartbeats > 0 && hb.queued > 0;
                for (i, state) in hb.workers.iter().enumerate() {
                    if watch_idle && matches!(state, WorkerState::Idle) {
                        self.idle_streaks[i] += 1;
                        if self.idle_streaks[i] >= self.config.idle_heartbeats {
                            let streak = self.idle_streaks[i];
                            self.raise(
                                AnomalyKind::IdleWorker,
                                format!("worker:{i}"),
                                format!(
                                    "worker {i} idle for {streak} consecutive heartbeats \
                                     with {} queued job(s)",
                                    hb.queued
                                ),
                                u64::from(streak),
                                u64::from(self.config.idle_heartbeats),
                            );
                        }
                    } else {
                        self.idle_streaks[i] = 0;
                    }
                }
                if let Some(ceiling) = self.config.cache_ceiling_bytes {
                    let resident = hb.cache_bytes + hb.snapshot_bytes;
                    if resident > ceiling {
                        self.raise(
                            AnomalyKind::CachePressure,
                            "cache".into(),
                            format!(
                                "solver+snapshot caches hold {resident} bytes \
                                 (ceiling {ceiling})"
                            ),
                            resident,
                            ceiling,
                        );
                    }
                }
            }
            PulseEvent::UnitStarted { .. }
            | PulseEvent::SitesIdentified { .. }
            | PulseEvent::Finished { .. } => {}
        }
    }

    /// Runs the end-of-stream detectors (SlowSite needs the final
    /// median) and returns every anomaly raised.
    #[must_use]
    pub fn finish(mut self) -> Vec<AnomalyReport> {
        if self.sites.len() >= self.config.min_sites_for_median {
            let mut walls: Vec<u64> = self.sites.iter().map(|(_, w)| *w).collect();
            walls.sort_unstable();
            let median = walls[walls.len() / 2];
            let scaled = (median as f64 * self.config.slow_site_factor) as u64;
            let threshold = scaled.max(self.config.slow_site_floor_ns);
            let slow: Vec<(String, u64)> = self
                .sites
                .iter()
                .filter(|(_, w)| *w > threshold)
                .cloned()
                .collect();
            for (subject, wall) in slow {
                let ms = wall / 1_000_000;
                let med_ms = median / 1_000_000;
                self.raise(
                    AnomalyKind::SlowSite,
                    subject,
                    format!("site took {ms}ms against a campaign median of {med_ms}ms"),
                    wall,
                    threshold,
                );
            }
        }
        self.anomalies
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pulse::HeartbeatSample;

    fn finished(site: &str, outcome: &str, wall_ns: u64) -> PulseEvent {
        PulseEvent::SiteFinished {
            app: "app".into(),
            seed: 0,
            site: site.into(),
            outcome: outcome.into(),
            wall_ns,
            cache_bytes: 0,
            snapshot_bytes: 0,
            peak_heap_bytes: 0,
        }
    }

    fn heartbeat(queued: u64, workers: Vec<WorkerState>) -> PulseEvent {
        PulseEvent::Heartbeat(HeartbeatSample {
            queued,
            workers,
            ..HeartbeatSample::default()
        })
    }

    fn tight_config() -> WatchdogConfig {
        WatchdogConfig {
            slow_site_factor: 4.0,
            slow_site_floor_ns: 0,
            min_sites_for_median: 4,
            idle_heartbeats: 3,
            cache_ceiling_bytes: Some(1000),
        }
    }

    #[test]
    fn slow_site_fires_above_factor_times_median() {
        let mut wd = Watchdog::new(tight_config());
        for i in 0..8 {
            wd.feed(&finished(&format!("b0@{i}"), "exposed", 100));
        }
        wd.feed(&finished("b0@99", "exposed", 10_000));
        let anomalies = wd.finish();
        assert_eq!(anomalies.len(), 1);
        assert_eq!(anomalies[0].kind, AnomalyKind::SlowSite);
        assert_eq!(anomalies[0].subject, "app/0/b0@99");
        assert_eq!(anomalies[0].value, 10_000);
    }

    #[test]
    fn slow_site_respects_floor_and_minimum_sample() {
        // Floor above every wall time: nothing fires.
        let mut cfg = tight_config();
        cfg.slow_site_floor_ns = 1_000_000;
        let mut wd = Watchdog::new(cfg);
        for i in 0..8 {
            wd.feed(&finished(&format!("b0@{i}"), "exposed", 100));
        }
        wd.feed(&finished("b0@99", "exposed", 10_000));
        assert!(wd.finish().is_empty());

        // Too few sites for a trustworthy median: nothing fires.
        let mut wd = Watchdog::new(tight_config());
        wd.feed(&finished("b0@0", "exposed", 100));
        wd.feed(&finished("b0@1", "exposed", 10_000));
        assert!(wd.finish().is_empty());
    }

    #[test]
    fn budget_exhaustion_raises_once_per_site() {
        let mut wd = Watchdog::new(tight_config());
        wd.feed(&finished("b0@0", "prevented:budget", 50));
        wd.feed(&finished("b0@0", "prevented:budget", 60));
        wd.feed(&finished("b0@1", "prevented:constraint-unsat:3", 50));
        let anomalies = wd.finish();
        assert_eq!(anomalies.len(), 1);
        assert_eq!(anomalies[0].kind, AnomalyKind::BudgetNoProgress);
    }

    #[test]
    fn idle_worker_needs_consecutive_backlogged_heartbeats() {
        let mut wd = Watchdog::new(tight_config());
        let idle_pair = vec![WorkerState::Idle, WorkerState::Idle];
        let busy = vec![
            WorkerState::Unit {
                app: "a".into(),
                seed: 0,
            },
            WorkerState::Idle,
        ];
        wd.feed(&heartbeat(1, idle_pair.clone()));
        wd.feed(&heartbeat(1, idle_pair.clone()));
        wd.feed(&heartbeat(0, idle_pair.clone())); // no backlog: streak resets
        wd.feed(&heartbeat(1, idle_pair.clone()));
        wd.feed(&heartbeat(1, idle_pair.clone()));
        assert!(Watchdog::new(tight_config()).finish().is_empty());
        // Streaks were reset, so nothing fired yet.
        let wd_anoms = wd.finish();
        assert!(wd_anoms.is_empty(), "{wd_anoms:?}");

        let mut wd = Watchdog::new(tight_config());
        for _ in 0..3 {
            wd.feed(&heartbeat(2, busy.clone()));
        }
        let anomalies = wd.finish();
        assert_eq!(anomalies.len(), 1);
        assert_eq!(anomalies[0].kind, AnomalyKind::IdleWorker);
        assert_eq!(anomalies[0].subject, "worker:1");
    }

    #[test]
    fn zero_idle_heartbeats_disables_the_idle_detector() {
        let mut wd = Watchdog::new(WatchdogConfig {
            idle_heartbeats: 0,
            ..tight_config()
        });
        let busy_and_idle = vec![
            WorkerState::Unit {
                app: "a".into(),
                seed: 0,
            },
            WorkerState::Idle,
        ];
        for _ in 0..3 {
            wd.feed(&heartbeat(3, busy_and_idle.clone()));
        }
        let anomalies = wd.finish();
        assert!(anomalies.is_empty(), "{anomalies:?}");
    }

    #[test]
    fn cache_pressure_fires_once_above_ceiling() {
        let mut wd = Watchdog::new(tight_config());
        let mut hb = HeartbeatSample {
            cache_bytes: 600,
            snapshot_bytes: 300,
            ..HeartbeatSample::default()
        };
        wd.feed(&PulseEvent::Heartbeat(hb.clone()));
        hb.cache_bytes = 900;
        wd.feed(&PulseEvent::Heartbeat(hb.clone()));
        wd.feed(&PulseEvent::Heartbeat(hb));
        let anomalies = wd.finish();
        assert_eq!(anomalies.len(), 1);
        assert_eq!(anomalies[0].kind, AnomalyKind::CachePressure);
        assert_eq!(anomalies[0].value, 1200);
        assert_eq!(anomalies[0].threshold, 1000);
    }

    #[test]
    fn anomaly_kind_tokens_round_trip() {
        for kind in [
            AnomalyKind::SlowSite,
            AnomalyKind::BudgetNoProgress,
            AnomalyKind::IdleWorker,
            AnomalyKind::CachePressure,
        ] {
            assert_eq!(AnomalyKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(AnomalyKind::parse("nope"), None);
    }
}
