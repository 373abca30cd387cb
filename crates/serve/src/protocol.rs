//! The daemon's wire protocol: one JSON request line per operation,
//! one JSON response line back (plus a telemetry stream for `watch`).
//! The codec is `diode-obs`'s round-tripping [`Json`] — the same one
//! every artifact in the workspace uses — so `u64` payloads (RNG seeds,
//! byte counters) survive exactly.
//!
//! Requests:
//!
//! ```text
//! {"op":"submit","spec":{"apps":10,"depth":3,"rng_seed":123},"wait":true}
//! {"op":"submit","suite":"suite-00a1b2c3d4e5f607"}
//! {"op":"submit","spec":{"apps":5},"watchdog":{"slow_floor_ms":0},"wait":true}
//! {"op":"status"}
//! {"op":"status","job":"job-2"}
//! {"op":"watch","job":"job-2"}
//! {"op":"metrics"}
//! {"op":"metrics","format":"prometheus"}
//! {"op":"health"}
//! {"op":"shutdown"}
//! ```
//!
//! Every response carries `"ok"` (except `metrics` in Prometheus
//! format, which streams the raw text exposition and closes). Failures
//! add an HTTP-flavoured `"code"` plus a stable `"error"` token —
//! `400 bad_request`, `404 not_found`, `429 queue_full`,
//! `500 job_failed`, `503 shutting_down` — so clients can branch on
//! semantics without string-matching free-text detail.
//!
//! A submit may carry `"watchdog"` (`true` for library defaults, or an
//! object tuning `slow_factor`, `slow_floor_ms`, `min_sites`,
//! `idle_heartbeats` — `0` disables the idle detector — and
//! `cache_ceiling` bytes): the daemon runs the job under those
//! thresholds and the job report gains an `"anomalies"` array; any
//! anomaly also cuts the job's flight dump. A forge spec may carry
//! `"stall_work"` to plant one extra single-site app with that much
//! per-site work — the operational fire drill for the slow-site
//! detector (plants lie outside the forge oracle, so `"recall"` is
//! null for such jobs).
//!
//! Requests are the daemon's input boundary, so every size a client
//! chooses is bounded by a constant: a request line by
//! [`MAX_REQUEST_LINE`] bytes, its JSON nesting by the codec's 128
//! levels, a `watch` ring by [`MAX_WATCH_RING`] events, a job's
//! worker threads by [`MAX_THREADS`], and a forge spec's size by
//! [`MAX_APPS`], [`MAX_DEPTH`], [`MAX_SITES`], [`MAX_SEEDS_PER_APP`],
//! [`MAX_SITE_WORK`] and [`MAX_STALL_WORK`]. Anything larger is a typed
//! `400`, answered before any forging.
//! A client has [`REQUEST_READ_TIMEOUT`] to send its request line; an
//! idle connection is closed without a reply.

use std::time::Duration;

use diode_obs::{Json, WatchdogConfig};
use diode_synth::SynthConfig;

/// Version stamped into `status` responses; bump on wire changes.
pub const PROTOCOL_VERSION: u64 = 2;

/// One parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Enqueue a campaign job.
    Submit {
        /// What to run.
        source: JobSource,
        /// Block until the job finishes and reply with its full report
        /// (instead of replying immediately with the job id).
        wait: bool,
        /// Pin the campaign's worker-thread count (`None`: all cores).
        threads: Option<usize>,
        /// Run the job under these watchdog thresholds and report its
        /// anomalies (`None`: the daemon's default, if any).
        watchdog: Option<WatchdogConfig>,
    },
    /// Daemon-wide counters, or one job's state when `job` is set.
    Status {
        /// Job id to inspect, or `None` for the daemon summary.
        job: Option<String>,
    },
    /// Stream a job's live telemetry JSONL until its `finished` record.
    Watch {
        /// Job id to stream.
        job: String,
        /// Subscriber channel capacity (events); a slow reader drops
        /// events beyond this instead of slowing the campaign.
        ring: usize,
    },
    /// Scrape the service metrics registry.
    Metrics {
        /// Stream the Prometheus text exposition instead of the
        /// one-line JSON reply.
        prometheus: bool,
    },
    /// Typed readiness/liveness probe with queue headroom and worker
    /// states.
    Health,
    /// Drain queued jobs, then stop accepting and exit.
    Shutdown,
}

/// What a submitted job runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobSource {
    /// Forge a fresh synthetic suite from this config, then run it.
    /// `stall_work > 0` plants one extra single-site app with that much
    /// per-site busy work (the flight-dump fire drill).
    Forge {
        /// The forge knobs.
        cfg: SynthConfig,
        /// Per-site busy work for the planted stall app (0: no plant).
        stall_work: u32,
    },
    /// Load a suite from the daemon's corpus root by id (or unique id
    /// prefix), then run it.
    Suite(String),
}

/// Default `watch` subscriber channel capacity (events).
pub const DEFAULT_WATCH_RING: usize = 4096;

/// Largest `watch` ring a client may ask for (events).
pub const MAX_WATCH_RING: usize = 65_536;

/// Most worker threads a submit may pin.
pub const MAX_THREADS: usize = 256;

/// Most apps a forge spec may ask for.
pub const MAX_APPS: usize = 1024;

/// Deepest guard chain (`depth`) a forge spec may ask for.
pub const MAX_DEPTH: usize = 64;

/// Most target sites per app (`sites`) a forge spec may ask for.
pub const MAX_SITES: usize = 64;

/// Most seeds per app a forge spec may ask for.
pub const MAX_SEEDS_PER_APP: usize = 64;

/// Largest per-site prefix work (`site_work`) a forge spec may ask for.
pub const MAX_SITE_WORK: usize = 100_000_000;

/// Largest per-site work of the planted stall app (`stall_work`).
pub const MAX_STALL_WORK: usize = 100_000_000;

/// Longest request line the daemon reads, newline included (bytes).
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// How long one read of the request line (or of the rest of an
/// over-long one) may wait for the client before the connection closes.
pub const REQUEST_READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Parses one request line. The error is a ready-to-send `400` response.
pub fn parse_request(line: &str) -> Result<Request, Json> {
    let obj = match Json::parse(line) {
        Ok(j) => j,
        Err(e) => return Err(reject(400, "bad_request", &format!("malformed JSON: {e}"))),
    };
    let op = match obj.get("op").and_then(Json::as_str) {
        Some(op) => op.to_string(),
        None => return Err(reject(400, "bad_request", "missing string field \"op\"")),
    };
    match op.as_str() {
        "submit" => {
            let source = match (obj.get("spec"), obj.get("suite").and_then(Json::as_str)) {
                (Some(_), Some(_)) => {
                    return Err(reject(
                        400,
                        "bad_request",
                        "submit takes \"spec\" or \"suite\", not both",
                    ))
                }
                (Some(spec), None) => {
                    let (cfg, stall_work) = parse_spec(spec)?;
                    JobSource::Forge { cfg, stall_work }
                }
                (None, Some(suite)) => JobSource::Suite(suite.to_string()),
                (None, None) => {
                    return Err(reject(
                        400,
                        "bad_request",
                        "submit needs a \"spec\" object or a \"suite\" id",
                    ))
                }
            };
            Ok(Request::Submit {
                source,
                wait: obj.get("wait").and_then(Json::as_bool).unwrap_or(false),
                threads: at_most(&obj, "threads", MAX_THREADS)?.map(|t| t.max(1)),
                watchdog: match obj.get("watchdog") {
                    None => None,
                    Some(v) => parse_watchdog(v)?,
                },
            })
        }
        "status" => Ok(Request::Status {
            job: obj.get("job").and_then(Json::as_str).map(str::to_string),
        }),
        "metrics" => match obj.get("format").map(|f| f.as_str()) {
            None => Ok(Request::Metrics { prometheus: false }),
            Some(Some("json")) => Ok(Request::Metrics { prometheus: false }),
            Some(Some("prometheus")) => Ok(Request::Metrics { prometheus: true }),
            Some(other) => Err(reject(
                400,
                "bad_request",
                &format!("metrics format must be \"json\" or \"prometheus\", got {other:?}"),
            )),
        },
        "health" => Ok(Request::Health),
        "watch" => match obj.get("job").and_then(Json::as_str) {
            Some(job) => Ok(Request::Watch {
                job: job.to_string(),
                ring: at_most(&obj, "ring", MAX_WATCH_RING)?
                    .map_or(DEFAULT_WATCH_RING, |r| r.max(2)),
            }),
            None => Err(reject(400, "bad_request", "watch needs a \"job\" id")),
        },
        "shutdown" => Ok(Request::Shutdown),
        other => Err(reject(400, "bad_request", &format!("unknown op {other:?}"))),
    }
}

/// An optional integer field a client sizes, rejected above `max`.
fn at_most(obj: &Json, key: &str, max: usize) -> Result<Option<usize>, Json> {
    match obj.get(key).and_then(Json::as_u64) {
        Some(v) if v > max as u64 => Err(reject(
            400,
            "bad_request",
            &format!("{key} {v} exceeds the limit of {max}"),
        )),
        v => Ok(v.map(|v| v as usize)),
    }
}

/// The submit-level watchdog field: `true` for library defaults, or an
/// object tuning individual thresholds (`false`/`null` mean "none").
fn parse_watchdog(v: &Json) -> Result<Option<WatchdogConfig>, Json> {
    let bad = |detail: &str| reject(400, "bad_request", detail);
    match v {
        Json::Bool(true) => Ok(Some(WatchdogConfig::default())),
        Json::Bool(false) | Json::Null => Ok(None),
        Json::Obj(fields) => {
            let mut cfg = WatchdogConfig::default();
            for (key, value) in fields {
                match key.as_str() {
                    "slow_factor" => {
                        cfg.slow_site_factor = value
                            .as_f64()
                            .ok_or_else(|| bad("watchdog.slow_factor must be a number"))?;
                    }
                    "slow_floor_ms" => {
                        let ms = value
                            .as_u64()
                            .ok_or_else(|| bad("watchdog.slow_floor_ms must be an integer"))?;
                        cfg.slow_site_floor_ns = ms.saturating_mul(1_000_000);
                    }
                    "min_sites" => {
                        cfg.min_sites_for_median = value
                            .as_u64()
                            .ok_or_else(|| bad("watchdog.min_sites must be an integer"))?
                            as usize;
                    }
                    "idle_heartbeats" => {
                        // A streak past u32::MAX heartbeats cannot occur,
                        // so a larger limit means the same as u32::MAX.
                        let n = value
                            .as_u64()
                            .ok_or_else(|| bad("watchdog.idle_heartbeats must be an integer"))?;
                        cfg.idle_heartbeats = u32::try_from(n).unwrap_or(u32::MAX);
                    }
                    "cache_ceiling" => {
                        cfg.cache_ceiling_bytes = Some(
                            value
                                .as_u64()
                                .ok_or_else(|| bad("watchdog.cache_ceiling must be an integer"))?,
                        );
                    }
                    other => {
                        return Err(bad(&format!("unknown watchdog field {other:?}")));
                    }
                }
            }
            Ok(Some(cfg))
        }
        _ => Err(bad(
            "\"watchdog\" must be a boolean or an object of thresholds",
        )),
    }
}

/// A forge spec as sent on the wire (every field optional, defaulting
/// to [`SynthConfig::default`] — the same knobs `synth_campaign`
/// exposes as flags, plus the `stall_work` plant).
fn parse_spec(spec: &Json) -> Result<(SynthConfig, u32), Json> {
    let num = |key: &str| -> Result<Option<u64>, Json> {
        match spec.get(key) {
            None => Ok(None),
            Some(v) => v.as_u64().map(Some).ok_or_else(|| {
                reject(
                    400,
                    "bad_request",
                    &format!("spec field {key:?} must be a non-negative integer"),
                )
            }),
        }
    };
    // A size the client picks: an integer, at most `max`.
    let size = |key: &str, max: usize| -> Result<Option<usize>, Json> {
        num(key)?;
        at_most(spec, key, max)
    };
    let work = |key: &str, max: usize| -> Result<Option<u32>, Json> {
        size(key, max)?
            .map(|w| {
                u32::try_from(w).map_err(|_| {
                    reject(
                        400,
                        "bad_request",
                        &format!("spec field {key:?} does not fit in 32 bits"),
                    )
                })
            })
            .transpose()
    };
    let mut cfg = SynthConfig::default();
    if let Some(apps) = size("apps", MAX_APPS)? {
        if apps == 0 {
            return Err(reject(400, "bad_request", "spec.apps must be at least 1"));
        }
        cfg.apps = apps;
    }
    if let Some(depth) = size("depth", MAX_DEPTH)? {
        cfg.branch_depth = depth;
    }
    if let Some(sites) = size("sites", MAX_SITES)? {
        let sites = sites.max(1);
        cfg.min_sites = sites;
        cfg.max_sites = sites;
    }
    if let Some(k) = size("seeds_per_app", MAX_SEEDS_PER_APP)? {
        cfg.seeds_per_app = k.max(1);
    }
    if let Some(w) = work("site_work", MAX_SITE_WORK)? {
        cfg.site_work = w;
    }
    if let Some(seed) = num("rng_seed")? {
        cfg.rng_seed = seed;
    }
    let stall_work = work("stall_work", MAX_STALL_WORK)?.unwrap_or(0);
    Ok((cfg, stall_work))
}

/// Serialises a forge spec for the wire (only the protocol-visible
/// knobs; the structural fields everything else derives from).
#[must_use]
pub fn spec_json(cfg: &SynthConfig) -> Json {
    Json::obj()
        .field("apps", cfg.apps)
        .field("depth", cfg.branch_depth)
        .field("sites", cfg.min_sites)
        .field("seeds_per_app", cfg.seeds_per_app)
        .field("site_work", cfg.site_work)
        .field("rng_seed", cfg.rng_seed)
}

/// A typed rejection line: `{"ok":false,"code":...,"error":...,...}`.
#[must_use]
pub fn reject(code: u64, error: &str, detail: &str) -> Json {
    Json::obj()
        .field("ok", false)
        .field("code", code)
        .field("error", error)
        .field("detail", detail)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_spec_round_trips_defaults() {
        let req = parse_request(r#"{"op":"submit","spec":{},"wait":true}"#).unwrap();
        let Request::Submit {
            source: JobSource::Forge { cfg, stall_work },
            wait,
            threads,
            watchdog,
        } = req
        else {
            panic!("expected forge submit");
        };
        assert_eq!(cfg, SynthConfig::default());
        assert_eq!(stall_work, 0);
        assert!(wait);
        assert_eq!(threads, None);
        assert_eq!(watchdog, None);
    }

    #[test]
    fn submit_spec_applies_knobs() {
        let line = r#"{"op":"submit","spec":{"apps":12,"depth":2,"sites":3,
            "seeds_per_app":2,"site_work":40,"rng_seed":18446744073709551615,
            "stall_work":2000000},"threads":4}"#;
        let Request::Submit {
            source: JobSource::Forge { cfg, stall_work },
            wait,
            threads,
            watchdog,
        } = parse_request(line).unwrap()
        else {
            panic!("expected forge submit");
        };
        assert_eq!(
            (cfg.apps, cfg.branch_depth, cfg.min_sites, cfg.max_sites),
            (12, 2, 3, 3)
        );
        assert_eq!((cfg.seeds_per_app, cfg.site_work), (2, 40));
        assert_eq!(cfg.rng_seed, u64::MAX, "u64 seeds survive exactly");
        assert_eq!(stall_work, 2_000_000);
        assert!(!wait);
        assert_eq!(threads, Some(4));
        assert_eq!(watchdog, None);
    }

    #[test]
    fn submit_watchdog_defaults_and_overrides() {
        let Request::Submit { watchdog, .. } =
            parse_request(r#"{"op":"submit","spec":{},"watchdog":true}"#).unwrap()
        else {
            panic!("expected submit");
        };
        assert_eq!(watchdog, Some(WatchdogConfig::default()));

        let line = r#"{"op":"submit","spec":{},"watchdog":{"slow_factor":4.5,
            "slow_floor_ms":0,"min_sites":4,"idle_heartbeats":0,"cache_ceiling":1024}}"#;
        let Request::Submit { watchdog, .. } = parse_request(line).unwrap() else {
            panic!("expected submit");
        };
        let cfg = watchdog.expect("thresholds parsed");
        assert_eq!(cfg.slow_site_factor, 4.5);
        assert_eq!(cfg.slow_site_floor_ns, 0);
        assert_eq!(cfg.min_sites_for_median, 4);
        assert_eq!(cfg.idle_heartbeats, 0, "0 disables the detector");
        assert_eq!(cfg.cache_ceiling_bytes, Some(1024));

        let Request::Submit { watchdog, .. } =
            parse_request(r#"{"op":"submit","spec":{},"watchdog":false}"#).unwrap()
        else {
            panic!("expected submit");
        };
        assert_eq!(watchdog, None);
    }

    #[test]
    fn submit_suite_and_watch_and_status() {
        assert_eq!(
            parse_request(r#"{"op":"submit","suite":"suite-0011223344556677"}"#).unwrap(),
            Request::Submit {
                source: JobSource::Suite("suite-0011223344556677".into()),
                wait: false,
                threads: None,
                watchdog: None,
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"watch","job":"job-3","ring":16}"#).unwrap(),
            Request::Watch {
                job: "job-3".into(),
                ring: 16
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"status"}"#).unwrap(),
            Request::Status { job: None }
        );
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn metrics_and_health_parse() {
        assert_eq!(
            parse_request(r#"{"op":"metrics"}"#).unwrap(),
            Request::Metrics { prometheus: false }
        );
        assert_eq!(
            parse_request(r#"{"op":"metrics","format":"json"}"#).unwrap(),
            Request::Metrics { prometheus: false }
        );
        assert_eq!(
            parse_request(r#"{"op":"metrics","format":"prometheus"}"#).unwrap(),
            Request::Metrics { prometheus: true }
        );
        assert_eq!(
            parse_request(r#"{"op":"health"}"#).unwrap(),
            Request::Health
        );
    }

    #[test]
    fn spec_caps_are_inclusive_and_named_in_the_rejection() {
        let line = format!(
            r#"{{"op":"submit","spec":{{"apps":{MAX_APPS},"depth":{MAX_DEPTH},"sites":{MAX_SITES},
            "seeds_per_app":{MAX_SEEDS_PER_APP},"site_work":{MAX_SITE_WORK},
            "stall_work":{MAX_STALL_WORK}}}}}"#
        );
        let Request::Submit {
            source: JobSource::Forge { cfg, stall_work },
            ..
        } = parse_request(&line).unwrap()
        else {
            panic!("not a forge submit");
        };
        assert_eq!((cfg.apps, cfg.branch_depth, cfg.max_sites), (1024, 64, 64));
        assert_eq!(cfg.seeds_per_app, 64);
        assert_eq!((cfg.site_work, stall_work), (100_000_000, 100_000_000));
        let err = parse_request(r#"{"op":"submit","spec":{"site_work":4294967297}}"#).unwrap_err();
        assert_eq!(
            err.get("detail").and_then(Json::as_str),
            Some("site_work 4294967297 exceeds the limit of 100000000")
        );
    }

    #[test]
    fn rejections_are_typed() {
        for (line, want) in [
            ("not json", "bad_request"),
            (r#"{"op":"submit"}"#, "bad_request"),
            (r#"{"op":"submit","spec":{},"suite":"s"}"#, "bad_request"),
            (r#"{"op":"submit","spec":{"apps":0}}"#, "bad_request"),
            (r#"{"op":"submit","spec":{"apps":-1}}"#, "bad_request"),
            (
                r#"{"op":"submit","spec":{},"watchdog":"yes"}"#,
                "bad_request",
            ),
            (
                r#"{"op":"submit","spec":{},"watchdog":{"gremlin":1}}"#,
                "bad_request",
            ),
            (r#"{"op":"metrics","format":"xml"}"#, "bad_request"),
            (r#"{"op":"watch"}"#, "bad_request"),
            (r#"{"op":"frobnicate"}"#, "bad_request"),
            (
                r#"{"op":"watch","job":"job-1","ring":1099511627776}"#,
                "bad_request",
            ),
            (
                r#"{"op":"submit","spec":{"apps":1},"threads":1099511627776}"#,
                "bad_request",
            ),
            (
                r#"{"op":"submit","spec":{"apps":1000000000000}}"#,
                "bad_request",
            ),
            (r#"{"op":"submit","spec":{"apps":1025}}"#, "bad_request"),
            (r#"{"op":"submit","spec":{"depth":65}}"#, "bad_request"),
            (r#"{"op":"submit","spec":{"sites":65}}"#, "bad_request"),
            (
                r#"{"op":"submit","spec":{"seeds_per_app":65}}"#,
                "bad_request",
            ),
            (
                r#"{"op":"submit","spec":{"site_work":4294967297}}"#,
                "bad_request",
            ),
            (
                r#"{"op":"submit","spec":{"site_work":100000001}}"#,
                "bad_request",
            ),
            (
                r#"{"op":"submit","spec":{"stall_work":4294967297}}"#,
                "bad_request",
            ),
            (r#"{"op":"submit","spec":{"depth":"deep"}}"#, "bad_request"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.get("ok").and_then(Json::as_bool), Some(false));
            assert_eq!(err.get("code").and_then(Json::as_u64), Some(400));
            assert_eq!(err.get("error").and_then(Json::as_str), Some(want));
        }
    }
}
