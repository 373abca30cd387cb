//! `daemon-mixed`: an in-process `diode-serve` on loopback under a
//! closed loop. [`CLIENTS`] clients each send `submit` with `wait:true`
//! and send the next only after the reply. One worker runs each job at
//! [`THREADS`] engine threads, so workers × job threads = 2.
//!
//! Jobs come from a seeded stream of forged specs. Every
//! [`COLD_EVERY`]-th job uses a fresh forge seed: a cold job that fills
//! the shared solver and snapshot caches. The others resubmit an earlier
//! seed, either the same spec or a prefix of its apps: warm jobs that
//! read shared cache entries. The cold specs are the same fixed sequence
//! for every `--seed`, which picks what the warm jobs resubmit.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use diode_obs::{parse_prometheus, PromSample};
use diode_serve::{serve, Json, ServeConfig, ServerHandle};
use diode_synth::{forge, SynthConfig};

use crate::stats::{median, percentile, ratio, samples_beyond, spread};
use crate::suite::{campaign_layers, Suite, FORGE_SEED};
use crate::{ms, peak_rss_mb, splitmix, Args, Measured, THREADS};

/// Closed-loop client connections.
pub const CLIENTS: usize = 2;
/// Forged apps per job spec.
const APPS: usize = 6;
/// Guard-chain depth of every spec.
const DEPTH: usize = 3;
/// Per-site prefix work of every spec.
const SITE_WORK: u32 = 1000;
/// One job in this many is cold.
const COLD_EVERY: usize = 4;
/// Jobs whose specs are forged during set-up (the stream extends lazily
/// past this).
const PREFORGED_JOBS: usize = 400;
/// Jobs per daemon in a `--trace 1` run.
const TRACE_JOBS: usize = 32;
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Heartbeat interval of every job's telemetry sampler. A campaign ends
/// only after its sampler wakes, so each job's wall time rounds up to a
/// heartbeat tick: at the daemon's default of 50 ms, latency percentiles
/// jump between ticks instead of following compute.
const HEARTBEAT: Duration = Duration::from_millis(5);
/// Forge seed of the warm-up job, outside the stream.
const WARMUP_SEED: u64 = 0x005E_ED0F_3A7E;

/// Outcome counts: (total, exposed, unsat, prevented).
type Counts = (usize, usize, usize, usize);

/// One job of the stream.
#[derive(Debug, Clone, Copy)]
struct JobSpec {
    rng_seed: u64,
    apps: usize,
    cold: bool,
}

impl JobSpec {
    fn config(self) -> SynthConfig {
        SynthConfig {
            apps: self.apps,
            branch_depth: DEPTH,
            site_work: SITE_WORK,
            rng_seed: self.rng_seed,
            ..SynthConfig::default()
        }
    }

    fn request(self) -> String {
        let spec = Json::obj()
            .field("apps", self.apps)
            .field("depth", DEPTH)
            .field("site_work", SITE_WORK)
            .field("rng_seed", self.rng_seed);
        Json::obj()
            .field("op", "submit")
            .field("spec", spec)
            .field("wait", true)
            .field("threads", THREADS)
            .to_string()
    }
}

/// The seeded job stream plus each cold spec's per-app oracle counts.
struct Stream {
    state: u64,
    jobs: Vec<JobSpec>,
    colds: Vec<u64>,
    expected: HashMap<u64, Vec<Counts>>,
    next: usize,
}

impl Stream {
    fn new(seed: u64, jobs: usize) -> Stream {
        let mut s = Stream {
            state: seed ^ 0xDAE0_0D15_C0DE_5EED,
            jobs: Vec::new(),
            colds: Vec::new(),
            expected: HashMap::new(),
            next: 0,
        };
        s.extend_to(jobs);
        s
    }

    fn extend_to(&mut self, n: usize) {
        while self.jobs.len() < n {
            let r = splitmix(&mut self.state);
            let job = if self.jobs.len().is_multiple_of(COLD_EVERY) {
                let spec = JobSpec {
                    rng_seed: FORGE_SEED + 1 + self.colds.len() as u64,
                    apps: APPS,
                    cold: true,
                };
                let oracle = forge(&spec.config()).oracle;
                let counts = oracle
                    .apps
                    .iter()
                    .map(|a| oracle.expected_counts_for(&a.app))
                    .collect();
                self.expected.insert(spec.rng_seed, counts);
                self.colds.push(spec.rng_seed);
                spec
            } else {
                let base = self.colds[(r % self.colds.len() as u64) as usize];
                let pick = splitmix(&mut self.state);
                let apps = if pick.is_multiple_of(2) {
                    APPS
                } else {
                    APPS / 2 + (pick / 2 % (APPS / 2) as u64) as usize
                };
                JobSpec {
                    rng_seed: base,
                    apps,
                    cold: false,
                }
            };
            self.jobs.push(job);
        }
    }

    /// The next job for a client, or `None` once `limit` jobs went out.
    fn take(&mut self, limit: Option<usize>) -> Option<(usize, JobSpec)> {
        let i = self.next;
        if limit.is_some_and(|l| i >= l) {
            return None;
        }
        self.next += 1;
        self.extend_to(i + 1);
        Some((i, self.jobs[i]))
    }

    /// Oracle counts for a spec: the sum over its apps.
    fn expected(&self, spec: JobSpec) -> Counts {
        self.expected[&spec.rng_seed][..spec.apps]
            .iter()
            .fold((0, 0, 0, 0), |a, c| {
                (a.0 + c.0, a.1 + c.1, a.2 + c.2, a.3 + c.3)
            })
    }
}

/// Sends one request line on a fresh connection.
fn send(addr: SocketAddr, line: &str) -> Result<TcpStream, String> {
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    writeln!(conn, "{line}").map_err(|e| format!("send: {e}"))?;
    Ok(conn)
}

/// Sends one request line and reads the reply line.
fn request(addr: SocketAddr, line: &str) -> Result<Json, String> {
    let mut reply = String::new();
    BufReader::new(send(addr, line)?)
        .read_line(&mut reply)
        .map_err(|e| format!("receive: {e}"))?;
    Json::parse(reply.trim()).map_err(|e| format!("reply {reply:?}: {e}"))
}

/// The daemon's Prometheus exposition, parsed.
fn scrape(addr: SocketAddr) -> Result<Vec<PromSample>, String> {
    let mut text = String::new();
    send(addr, r#"{"op":"metrics","format":"prometheus"}"#)?
        .read_to_string(&mut text)
        .map_err(|e| format!("receive: {e}"))?;
    parse_prometheus(&text)
}

/// The `q`-quantile of a daemon histogram, interpolated linearly inside
/// its bucket as Prometheus's `histogram_quantile` does. (The JSON
/// `metrics` reply gives bucket bounds, which repeat run after run.)
fn histogram_quantile(samples: &[PromSample], name: &str, q: f64) -> Option<f64> {
    let series = format!("{name}_bucket");
    let mut buckets: Vec<(f64, f64)> = samples
        .iter()
        .filter(|s| s.name == series)
        .filter_map(|s| {
            let le = &s.labels.iter().find(|(k, _)| k == "le")?.1;
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((bound, s.value))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    let rank = q * buckets.last()?.1;
    let (mut lower, mut below) = (0.0, 0.0);
    for (upper, cumulative) in buckets {
        if cumulative >= rank && cumulative > 0.0 {
            if upper.is_infinite() {
                return Some(lower);
            }
            return Some(lower + (upper - lower) * (rank - below) / (cumulative - below));
        }
        (lower, below) = (upper, cumulative);
    }
    None
}

/// A daemon gauge from its Prometheus exposition.
fn gauge(samples: &[PromSample], name: &str) -> f64 {
    samples
        .iter()
        .find(|s| s.name == name)
        .map_or(0.0, |s| s.value)
}

/// A running daemon.
struct Daemon {
    handle: ServerHandle,
}

impl Daemon {
    fn start(metrics: bool) -> Result<Daemon, String> {
        let handle = serve(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            metrics,
            heartbeat: HEARTBEAT,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let daemon = Daemon { handle };
        let health = daemon.request(r#"{"op":"health"}"#)?;
        if health.get("ready").and_then(Json::as_bool) != Some(true) {
            return Err(format!("daemon not ready: {health}"));
        }
        Ok(daemon)
    }

    fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    fn request(&self, line: &str) -> Result<Json, String> {
        request(self.addr(), line)
    }

    /// One job outside the stream, to warm code paths; excluded.
    fn warm_up(&self) -> Result<(), String> {
        let reply = self.request(
            &JobSpec {
                rng_seed: WARMUP_SEED,
                apps: 2,
                cold: true,
            }
            .request(),
        )?;
        match reply.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(()),
            _ => Err(format!("warm-up job failed: {reply}")),
        }
    }

    /// Drains and stops the daemon, waiting for its threads.
    fn stop(self) -> Result<(), String> {
        self.request(r#"{"op":"shutdown"}"#)?;
        self.handle.join();
        Ok(())
    }
}

/// One finished request.
struct Done {
    index: usize,
    spec: JobSpec,
    latency: Duration,
    reply: Result<Json, String>,
}

/// Runs the closed loop until `deadline` passes or `limit` jobs were
/// sent; returns the jobs in stream order and the loop's wall time.
fn closed_loop(
    daemon: &Daemon,
    stream: &Mutex<Stream>,
    deadline: Option<Instant>,
    limit: Option<usize>,
) -> (Vec<Done>, Duration) {
    let start = Instant::now();
    let mut done: Vec<Done> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    while deadline.is_none_or(|d| Instant::now() < d) {
                        let next = stream.lock().expect("stream lock poisoned").take(limit);
                        let Some((index, spec)) = next else { break };
                        let sent = Instant::now();
                        let reply = daemon.request(&spec.request());
                        mine.push(Done {
                            index,
                            spec,
                            latency: sent.elapsed(),
                            reply,
                        });
                    }
                    mine
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let window = start.elapsed();
    done.sort_by_key(|d| d.index);
    (done, window)
}

/// A job reply's fields the benchmark checks and measures.
struct Reply {
    counts: Counts,
    fingerprint: String,
    wall_ms: f64,
    cache_hits: u64,
    cache_misses: u64,
}

fn parse_reply(reply: &Json) -> Option<Reply> {
    let c = reply.get("counts")?;
    let n = |k: &str| c.get(k).and_then(Json::as_u64).map(|v| v as usize);
    let cache = reply.get("cache")?;
    Some(Reply {
        counts: (n("total")?, n("exposed")?, n("unsat")?, n("prevented")?),
        fingerprint: reply.get("fingerprint")?.as_str()?.to_string(),
        wall_ms: reply.get("wall_ms")?.as_f64()?,
        cache_hits: cache.get("hits")?.as_u64()?,
        cache_misses: cache.get("misses")?.as_u64()?,
    })
}

/// The checked jobs of one closed loop.
#[derive(Default)]
struct Checked {
    /// Per completed job: (spec, latency ms, parsed reply).
    jobs: Vec<(JobSpec, f64, Reply)>,
    /// First fingerprint per `(forge seed, apps)`.
    fingerprints: HashMap<(u64, usize), String>,
    tp: usize,
    reported_exposed: usize,
    exposable: usize,
}

/// Checks every reply: accepted, `recall` 1.0, outcome counts equal to
/// the forge oracle's, and each resubmitted spec's fingerprint equal to
/// its first.
fn check_jobs(m: &mut Measured, stream: &Stream, done: Vec<Done>) -> Checked {
    let mut out = Checked::default();
    for d in done {
        let reply = match d.reply {
            Ok(r) if r.get("ok").and_then(Json::as_bool) == Some(true) => r,
            Ok(r) => {
                m.check(false, || format!("job {} rejected or failed: {r}", d.index));
                continue;
            }
            Err(e) => {
                m.check(false, || format!("job {}: {e}", d.index));
                continue;
            }
        };
        let recall = reply.get("recall").and_then(Json::as_f64);
        let Some(parsed) = parse_reply(&reply) else {
            m.check(false, || {
                format!("job {}: malformed report {reply}", d.index)
            });
            continue;
        };
        let expected = stream.expected(d.spec);
        let first = out
            .fingerprints
            .entry((d.spec.rng_seed, d.spec.apps))
            .or_insert_with(|| parsed.fingerprint.clone());
        let same = *first == parsed.fingerprint;
        m.check(
            recall == Some(1.0) && parsed.counts == expected && same,
            || {
                format!(
                    "job {} ({:?}): recall {recall:?}, counts {:?} vs oracle {expected:?}, \
                 fingerprint {} vs first {first}",
                    d.index, d.spec, parsed.counts, parsed.fingerprint
                )
            },
        );
        let tp = (recall.unwrap_or(0.0) * expected.1 as f64).round() as usize;
        out.tp += tp;
        out.exposable += expected.1;
        out.reported_exposed += parsed.counts.1;
        out.jobs.push((d.spec, ms(d.latency), parsed));
    }
    out
}

/// Runs the `daemon-mixed` workload.
pub fn run(args: &Args, m: &mut Measured) -> Result<(), String> {
    if args.trace {
        traced(args, m)
    } else {
        end_to_end(args, m)
    }
}

fn end_to_end(args: &Args, m: &mut Measured) -> Result<(), String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, daemon)) = ready.take() {
            Daemon::stop(daemon)?;
        }
        let start = Instant::now();
        let stream = Stream::new(args.seed, PREFORGED_JOBS);
        let daemon = Daemon::start(false)?;
        setups.push(start.elapsed().as_secs_f64());
        ready = Some((stream, daemon));
    }
    let (stream, daemon) = ready.expect("at least one set-up");
    daemon.warm_up()?;

    let stream = Mutex::new(stream);
    let (done, window) = closed_loop(&daemon, &stream, Some(Instant::now() + args.seconds), None);
    daemon.stop()?;
    let stream = stream.into_inner().expect("stream lock poisoned");
    let attempted = done.len();
    let first = done
        .first()
        .and_then(|d| d.reply.as_ref().ok())
        .and_then(|r| r.get("fingerprint"))
        .and_then(Json::as_str)
        .map(str::to_string);
    let checked = check_jobs(m, &stream, done);
    if let Some(fp) = first {
        m.check_reference_fingerprint(args, &fp);
    }

    let latencies: Vec<f64> = checked.jobs.iter().map(|j| j.1).collect();
    let mut verdicts = Vec::new();
    for (_, latency, reply) in &checked.jobs {
        // A daemon user receives every verdict of a job with its reply.
        verdicts.extend(std::iter::repeat_n(*latency, reply.counts.0));
    }
    let sites: usize = checked.jobs.iter().map(|j| j.2.counts.0).sum();
    let campaign_s: f64 = checked.jobs.iter().map(|j| j.2.wall_ms).sum::<f64>() / 1e3;

    m.set("setup_s", median(&setups).expect("set-ups ran"));
    m.set("sites_per_s", sites as f64 / campaign_s.max(1e-9));
    m.set("verdict_p50_ms", median(&verdicts).unwrap_or(0.0));
    m.set("verdict_p90_ms", percentile(&verdicts, 90.0).unwrap_or(0.0));
    m.set("jobs_per_s", attempted as f64 / window.as_secs_f64());
    m.set("job_p50_ms", median(&latencies).unwrap_or(0.0));
    m.set("job_p90_ms", percentile(&latencies, 90.0).unwrap_or(0.0));
    m.set("peak_rss_mb", peak_rss_mb().ok_or("cannot read VmHWM")?);
    m.set("recall", ratio(checked.tp, checked.exposable));
    m.set("precision", ratio(checked.tp, checked.reported_exposed));
    let cold = checked.jobs.iter().filter(|j| j.0.cold).count();
    m.note(
        "samples",
        Json::obj()
            .field("setups", setups.len())
            .field("jobs", attempted)
            .field("cold_jobs", cold)
            .field("jobs_beyond_p90", samples_beyond(&latencies, 90.0))
            .field("verdicts", verdicts.len())
            .field("verdicts_beyond_p90", samples_beyond(&verdicts, 90.0)),
    );
    m.note(
        "spread",
        Json::obj()
            .field("setup_s", spread(&setups))
            .field("job_ms", spread(&latencies)),
    );
    Ok(())
}

/// Pooled marginal solver-cache hit rate of the jobs `keep` selects.
fn hit_rate(checked: &Checked, keep: impl Fn(&JobSpec) -> bool) -> f64 {
    let (hits, misses) = checked
        .jobs
        .iter()
        .filter(|j| keep(&j.0))
        .fold((0, 0), |a, j| {
            (a.0 + j.2.cache_hits, a.1 + j.2.cache_misses)
        });
    ratio(hits as usize, (hits + misses) as usize)
}

/// One fixed-length closed loop on a fresh daemon.
fn fixed_loop(
    args: &Args,
    m: &mut Measured,
    metrics: bool,
) -> Result<(Checked, Vec<PromSample>, Json), String> {
    let daemon = Daemon::start(metrics)?;
    daemon.warm_up()?;
    let stream = Mutex::new(Stream::new(args.seed, TRACE_JOBS));
    let (done, _) = closed_loop(&daemon, &stream, None, Some(TRACE_JOBS));
    let scraped = if metrics {
        scrape(daemon.addr())?
    } else {
        Vec::new()
    };
    let status = daemon.request(r#"{"op":"status"}"#)?;
    daemon.stop()?;
    let stream = stream.into_inner().expect("stream lock poisoned");
    Ok((check_jobs(m, &stream, done), scraped, status))
}

fn traced(args: &Args, m: &mut Measured) -> Result<(), String> {
    // The same job prefix on a daemon without and with its service
    // metrics (which record phase spans for every job): outcomes must
    // be identical, and the wall-time ratio is the tracing overhead.
    let (plain, _, _) = fixed_loop(args, m, false)?;
    let (observed, scraped, status) = fixed_loop(args, m, true)?;
    for (key, fp) in &observed.fingerprints {
        let plain_fp = plain.fingerprints.get(key);
        m.check(plain_fp == Some(fp), || {
            format!("spec {key:?}: fingerprint {fp} with metrics, {plain_fp:?} without")
        });
    }
    let walls = |c: &Checked| c.jobs.iter().map(|j| j.2.wall_ms).collect::<Vec<_>>();
    let overhead = median(&walls(&observed)).unwrap_or(0.0) / median(&walls(&plain)).unwrap_or(1.0);

    let p50_ms = |name| histogram_quantile(&scraped, name, 0.5).map_or(0.0, |ns| ns / 1e6);
    m.set(
        "serve.admission_wait_p50_ms",
        p50_ms("diode_admission_wait_ns"),
    );
    m.set("serve.job_wall_p50_ms", p50_ms("diode_job_wall_ns"));
    m.set("serve.cold_hit_rate", hit_rate(&observed, |s| s.cold));
    m.set("serve.warm_hit_rate", hit_rate(&observed, |s| !s.cold));
    m.set(
        "serve.solver_cache_bytes",
        gauge(&scraped, "diode_solver_cache_bytes"),
    );
    m.set(
        "serve.snapshot_cache_bytes",
        gauge(&scraped, "diode_snapshot_cache_bytes"),
    );
    m.set(
        "serve.rejected",
        status.get("rejected").and_then(Json::as_f64).unwrap_or(0.0),
    );
    m.note(
        "serve_racy",
        Json::obj()
            .field(
                "cold_hit_rate_without_metrics",
                hit_rate(&plain, |s| s.cold),
            )
            .field(
                "warm_hit_rate_without_metrics",
                hit_rate(&plain, |s| !s.cold),
            )
            .field("job_wall_spread", spread(&walls(&observed))),
    );

    // The campaign layers, on the stream's first spec run locally.
    let first = Stream::new(args.seed, 1).jobs[0];
    let start = Instant::now();
    let suite = Suite::forged(&first.config());
    m.set("synth.forge_ms", ms(start.elapsed()));
    let local = campaign_layers(args, &suite, m);
    let daemon_fp = observed.fingerprints.get(&(first.rng_seed, first.apps));
    m.check(daemon_fp == Some(&local.fingerprint), || {
        format!(
            "first spec: daemon fingerprint {daemon_fp:?}, one-shot campaign {}",
            local.fingerprint
        )
    });
    // Daemon tracing overhead, not the local campaign's.
    m.set("obs.trace_overhead", overhead);
    Ok(())
}
