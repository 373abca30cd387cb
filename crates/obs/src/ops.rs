//! Service-level metrics: an always-on registry of counters, gauges,
//! and histograms with dual exposition (JSON and Prometheus text).
//!
//! The registry is built for a resident daemon: handles are registered
//! once (a brief registry lock), then the hot path is an atomic add
//! ([`Counter::inc`]) or a short mutex around a fixed-size [`Hist`]
//! ([`Histogram::observe`]) — no allocation, no formatting, nothing a
//! campaign could observe. Scrapes ([`MetricsRegistry::snapshot`]) copy
//! the current values into a [`MetricsSnapshot`], which renders to
//! either exposition:
//!
//! * [`MetricsSnapshot::to_json`] — one JSON object per metric kind,
//!   built with the [`Json`] codec every other diode artifact uses.
//! * [`MetricsSnapshot::to_prometheus`] — the Prometheus text format,
//!   hand-rolled: `# HELP`/`# TYPE` comments, backslash/quote/newline
//!   escaping in label values, and histogram buckets exposed
//!   *cumulatively* with the mandatory `+Inf` terminal bucket.
//!
//! [`parse_prometheus`] parses a scraped payload back into samples, so
//! clients (and the round-trip tests) never have to screen-scrape.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::Json;
use crate::metrics::Hist;

/// Version stamped into the JSON exposition; bump on shape changes.
pub const METRICS_SCHEMA_VERSION: u64 = 1;

/// A metric's identity: its name plus an ordered label set.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name (Prometheus-safe: `[a-zA-Z_:][a-zA-Z0-9_:]*`).
    pub name: String,
    /// Label pairs, in registration order.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> MetricKey {
        MetricKey {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    /// The Prometheus selector: `name{label="value",...}` (bare name
    /// when unlabelled). Label values are escaped.
    #[must_use]
    pub fn selector(&self) -> String {
        let mut out = self.name.clone();
        if !self.labels.is_empty() {
            out.push('{');
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
            }
            out.push('}');
        }
        out
    }
}

/// A monotonic counter handle. Cloning shares the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A point-in-time gauge handle (stores `f64` bits atomically).
#[derive(Debug, Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Default for Gauge {
    fn default() -> Gauge {
        Gauge {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }
}

impl Gauge {
    /// Set the current value.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A histogram handle over a log2-bucketed [`Hist`].
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    inner: Arc<Mutex<Hist>>,
}

impl Histogram {
    /// Record one observation (a duration in ns, a byte count, ...).
    pub fn observe(&self, value: u64) {
        self.inner
            .lock()
            .expect("histogram lock poisoned")
            .record(value);
    }

    fn snapshot(&self) -> Hist {
        self.inner.lock().expect("histogram lock poisoned").clone()
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// The service-level metric registry: register-or-get handles by
/// `(name, labels)`, snapshot on scrape.
#[derive(Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<MetricKey, Metric>>,
    help: Mutex<BTreeMap<String, String>>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn register<T: Clone>(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        wrap: impl Fn(T) -> Metric,
        unwrap: impl Fn(&Metric) -> Option<T>,
        fresh: impl Fn() -> T,
    ) -> T {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        for (k, _) in labels {
            assert!(valid_metric_name(k), "invalid label name {k:?}");
        }
        if !help.is_empty() {
            self.help
                .lock()
                .expect("help lock poisoned")
                .entry(name.to_string())
                .or_insert_with(|| help.to_string());
        }
        let key = MetricKey::new(name, labels);
        let mut metrics = self.metrics.lock().expect("registry lock poisoned");
        match metrics.get(&key) {
            Some(existing) => unwrap(existing).unwrap_or_else(|| {
                panic!(
                    "metric {:?} re-registered as a different kind (was {})",
                    key.selector(),
                    existing.kind()
                )
            }),
            None => {
                let handle = fresh();
                metrics.insert(key, wrap(handle.clone()));
                handle
            }
        }
    }

    /// Register-or-get a counter.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        self.register(
            name,
            help,
            labels,
            Metric::Counter,
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
            Counter::default,
        )
    }

    /// Register-or-get a gauge.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        self.register(
            name,
            help,
            labels,
            Metric::Gauge,
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            Gauge::default,
        )
    }

    /// Register-or-get a histogram.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        self.register(
            name,
            help,
            labels,
            Metric::Histogram,
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            Histogram::default,
        )
    }

    /// A point-in-time copy of every registered metric.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.metrics.lock().expect("registry lock poisoned");
        let help = self.help.lock().expect("help lock poisoned").clone();
        let samples = metrics
            .iter()
            .map(|(key, metric)| MetricSample {
                key: key.clone(),
                value: match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
                },
            })
            .collect();
        MetricsSnapshot { samples, help }
    }
}

/// One metric's value at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic count.
    Counter(u64),
    /// Point-in-time value.
    Gauge(f64),
    /// Full histogram state (buckets, count, sum); boxed so a
    /// snapshot row stays small next to the scalar variants.
    Histogram(Box<Hist>),
}

/// One `(key, value)` pair out of a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// The metric's identity.
    pub key: MetricKey,
    /// Its value when the snapshot was taken.
    pub value: MetricValue,
}

/// A point-in-time copy of the registry, ready to render.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Every sample, ordered by `(name, labels)`.
    pub samples: Vec<MetricSample>,
    /// Help text per metric name.
    pub help: BTreeMap<String, String>,
}

impl MetricsSnapshot {
    /// The Prometheus text exposition: `# HELP`/`# TYPE` per name,
    /// escaped label values, cumulative histogram buckets ending in
    /// `+Inf`, plus `_sum`/`_count` series.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name = "";
        for sample in &self.samples {
            let name = sample.key.name.as_str();
            if name != last_name {
                if let Some(help) = self.help.get(name) {
                    let _ = writeln!(out, "# HELP {name} {}", escape_help(help));
                }
                let kind = match &sample.value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) => "histogram",
                };
                let _ = writeln!(out, "# TYPE {name} {kind}");
                last_name = name;
            }
            match &sample.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{} {v}", sample.key.selector());
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{} {}", sample.key.selector(), fmt_f64(*v));
                }
                MetricValue::Histogram(h) => {
                    for (le, cumulative) in h.cumulative_buckets() {
                        let _ = writeln!(
                            out,
                            "{} {cumulative}",
                            selector_with(&sample.key, "_bucket", Some(("le", &le.to_string())))
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{} {}",
                        selector_with(&sample.key, "_bucket", Some(("le", "+Inf"))),
                        h.count()
                    );
                    let _ = writeln!(
                        out,
                        "{} {}",
                        selector_with(&sample.key, "_sum", None),
                        h.sum()
                    );
                    let _ = writeln!(
                        out,
                        "{} {}",
                        selector_with(&sample.key, "_count", None),
                        h.count()
                    );
                }
            }
        }
        out
    }

    /// The JSON exposition: one object with `counters`, `gauges`, and
    /// `histograms` maps keyed by the Prometheus selector. Histograms
    /// carry their summary (count/sum/max/p50/p99) rather than buckets.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut hists = Vec::new();
        for sample in &self.samples {
            let selector = sample.key.selector();
            match &sample.value {
                MetricValue::Counter(v) => counters.push((selector, Json::from(*v))),
                MetricValue::Gauge(v) => gauges.push((selector, Json::from(*v))),
                MetricValue::Histogram(h) => {
                    let s = h.summary();
                    let summary = Json::obj()
                        .field("count", s.count)
                        .field("sum", s.sum)
                        .field("max", s.max)
                        .field("p50", s.p50)
                        .field("p99", s.p99);
                    hists.push((selector, summary));
                }
            }
        }
        Json::obj()
            .field("schema", METRICS_SCHEMA_VERSION)
            .field("counters", Json::Obj(counters))
            .field("gauges", Json::Obj(gauges))
            .field("histograms", Json::Obj(hists))
    }
}

fn selector_with(key: &MetricKey, suffix: &str, extra: Option<(&str, &str)>) -> String {
    let mut out = format!("{}{suffix}", key.name);
    let has_labels = !key.labels.is_empty() || extra.is_some();
    if has_labels {
        out.push('{');
        let mut first = true;
        for (k, v) in &key.labels {
            if !first {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
            first = false;
        }
        if let Some((k, v)) = extra {
            if !first {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{}\"", escape_label_value(v));
        }
        out.push('}');
    }
    out
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Prometheus label-value escaping: backslash, double-quote, newline.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Prometheus HELP escaping: backslash and newline only.
fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Round-trippable float formatting for the Prometheus text: integers
/// keep a bare integer form (Prometheus accepts both), everything else
/// uses Rust's shortest round-trip `Display`.
fn fmt_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// One parsed Prometheus sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Series name (histogram series keep their `_bucket`/`_sum`/
    /// `_count` suffix).
    pub name: String,
    /// Label pairs in line order (`le` included for buckets).
    pub labels: Vec<(String, String)>,
    /// The sample value (`+Inf` bucket bounds only appear in labels;
    /// values themselves parse as finite floats or `NaN`).
    pub value: f64,
}

/// Parses a Prometheus text payload back into samples. Comment lines
/// (`# HELP`, `# TYPE`) are validated as comments and skipped; every
/// other non-empty line must be a well-formed sample.
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut out = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, rest) = parse_series(line).map_err(|e| format!("line {lineno}: {e}"))?;
        let value = rest.trim();
        let value = match value {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            v => v
                .parse::<f64>()
                .map_err(|_| format!("line {lineno}: bad sample value {v:?}"))?,
        };
        out.push(PromSample {
            name: series.0,
            labels: series.1,
            value,
        });
    }
    Ok(out)
}

type Series = (String, Vec<(String, String)>);

/// Parses `name{label="value",...}` off the front of a sample line,
/// returning the remainder (the value).
fn parse_series(line: &str) -> Result<(Series, &str), String> {
    let name_end = line
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
        .unwrap_or(line.len());
    let name = &line[..name_end];
    if name.is_empty() || !valid_metric_name(name) {
        return Err(format!("bad metric name in {line:?}"));
    }
    let rest = &line[name_end..];
    if !rest.starts_with('{') {
        return Ok(((name.to_string(), Vec::new()), rest));
    }
    let mut labels = Vec::new();
    let mut chars = rest[1..].char_indices().peekable();
    loop {
        // Label name up to '='.
        let mut label = String::new();
        for (_, c) in chars.by_ref() {
            if c == '=' {
                break;
            }
            if c == '}' && label.trim().is_empty() && labels.is_empty() {
                // Empty label set: `name{}`.
                let consumed = rest[1..]
                    .find('}')
                    .expect("matched '}' above exists in the string");
                return Ok(((name.to_string(), labels), &rest[1 + consumed + 1..]));
            }
            label.push(c);
        }
        let label = label.trim().to_string();
        if label.is_empty() {
            return Err(format!("empty label name in {line:?}"));
        }
        match chars.next() {
            Some((_, '"')) => {}
            _ => return Err(format!("label {label:?} value must be quoted")),
        }
        // Escaped label value up to the closing quote.
        let mut value = String::new();
        loop {
            match chars.next() {
                Some((_, '\\')) => match chars.next() {
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    Some((_, 'n')) => value.push('\n'),
                    other => return Err(format!("bad escape {other:?} in {line:?}")),
                },
                Some((_, '"')) => break,
                Some((_, c)) => value.push(c),
                None => return Err(format!("unterminated label value in {line:?}")),
            }
        }
        labels.push((label, value));
        match chars.next() {
            Some((_, ',')) => continue,
            Some((i, '}')) => return Ok(((name.to_string(), labels), &rest[1 + i + 1..])),
            other => return Err(format!("expected ',' or '}}' after label, got {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_histograms_register_once() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("jobs_total", "jobs", &[("code", "429")]);
        c.inc();
        reg.counter("jobs_total", "", &[("code", "429")]).add(2);
        assert_eq!(c.get(), 3, "same (name, labels) shares one cell");
        let g = reg.gauge("depth", "queue depth", &[]);
        g.set(4.5);
        let h = reg.histogram("wait_ns", "admission wait", &[]);
        h.observe(7);
        h.observe(100);
        let snap = reg.snapshot();
        assert_eq!(snap.samples.len(), 3);
        assert!(snap
            .samples
            .iter()
            .any(|s| s.value == MetricValue::Counter(3)));
        assert!(snap
            .samples
            .iter()
            .any(|s| s.value == MetricValue::Gauge(4.5)));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x_total", "", &[]);
        reg.gauge("x_total", "", &[]);
    }

    #[test]
    fn selector_escapes_label_values() {
        let key = MetricKey::new("m", &[("path", "a\\b\"c\nd")]);
        assert_eq!(key.selector(), "m{path=\"a\\\\b\\\"c\\nd\"}");
    }

    #[test]
    fn prometheus_exposition_round_trips() {
        let reg = MetricsRegistry::new();
        reg.counter("diode_jobs_total", "total jobs", &[("code", "200")])
            .add(7);
        reg.counter("diode_jobs_total", "", &[("code", "4\"2\\9\n")])
            .inc();
        reg.gauge("diode_uptime_seconds", "uptime", &[]).set(12.25);
        let h = reg.histogram("diode_wait_ns", "admission wait", &[("queue", "0")]);
        for v in [1u64, 2, 3, 900, 7000] {
            h.observe(v);
        }
        let text = reg.snapshot().to_prometheus();
        let samples = parse_prometheus(&text).expect("exposition parses");
        // Counters and gauges come back exactly.
        assert!(samples.iter().any(|s| s.name == "diode_jobs_total"
            && s.labels == vec![("code".into(), "200".into())]
            && s.value == 7.0));
        assert!(samples.iter().any(|s| s.name == "diode_jobs_total"
            && s.labels == vec![("code".into(), "4\"2\\9\n".into())]
            && s.value == 1.0));
        assert!(samples
            .iter()
            .any(|s| s.name == "diode_uptime_seconds" && s.value == 12.25));
        // The histogram exposes sum/count plus a +Inf bucket equal to
        // the count.
        assert!(samples
            .iter()
            .any(|s| s.name == "diode_wait_ns_sum" && s.value == 7906.0));
        assert!(samples
            .iter()
            .any(|s| s.name == "diode_wait_ns_count" && s.value == 5.0));
        let inf = samples
            .iter()
            .find(|s| {
                s.name == "diode_wait_ns_bucket"
                    && s.labels.iter().any(|(k, v)| k == "le" && v == "+Inf")
            })
            .expect("+Inf bucket present");
        assert_eq!(inf.value, 5.0);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("h_ns", "", &[]);
        for v in [1u64, 2, 3, 900] {
            h.observe(v);
        }
        let text = reg.snapshot().to_prometheus();
        let buckets: Vec<(f64, f64)> = parse_prometheus(&text)
            .unwrap()
            .into_iter()
            .filter(|s| s.name == "h_ns_bucket")
            .map(|s| {
                let le = s
                    .labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .map(|(_, v)| {
                        if v == "+Inf" {
                            f64::INFINITY
                        } else {
                            v.parse().unwrap()
                        }
                    })
                    .expect("bucket has le");
                (le, s.value)
            })
            .collect();
        assert!(buckets.len() >= 2);
        // Bounds strictly increase; counts never decrease; last is +Inf
        // with the total count.
        for pair in buckets.windows(2) {
            assert!(pair[0].0 < pair[1].0, "bounds must increase: {buckets:?}");
            assert!(
                pair[0].1 <= pair[1].1,
                "counts must be cumulative: {buckets:?}"
            );
        }
        let last = buckets.last().unwrap();
        assert_eq!((last.0, last.1), (f64::INFINITY, 4.0));
        // Spot-check one interior bound: values 1,2,3 all fit in le=3.
        assert!(buckets.iter().any(|(le, n)| *le == 3.0 && *n == 3.0));
    }

    #[test]
    fn json_exposition_carries_all_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter("c_total", "", &[("k", "v")]).add(2);
        reg.gauge("g", "", &[]).set(0.5);
        reg.histogram("h_ns", "", &[]).observe(9);
        let json = reg.snapshot().to_json().to_string();
        assert!(json.starts_with("{\"schema\":1,"));
        assert!(json.contains("\"c_total{k=\\\"v\\\"}\":2"));
        assert!(json.contains("\"g\":0.5"));
        assert!(json.contains("\"count\":1"));
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_prometheus("1bad_name 3\n").is_err());
        assert!(parse_prometheus("m{x=unquoted} 3\n").is_err());
        assert!(parse_prometheus("m{x=\"open} 3\n").is_err());
        assert!(parse_prometheus("m notanumber\n").is_err());
        assert!(parse_prometheus("# just a comment\n\n").unwrap().is_empty());
        let ok = parse_prometheus("m{} 3\n").unwrap();
        assert_eq!(ok[0].name, "m");
        assert!(ok[0].labels.is_empty());
    }
}
