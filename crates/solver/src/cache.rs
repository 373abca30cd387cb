//! A thread-safe solver-query cache.
//!
//! DIODE's enforcement loop (paper Figure 7) re-solves a growing
//! constraint φ′∧β on every iteration, the success-rate experiments
//! re-solve the final constraints of every exposed bug, and campaign runs
//! analyze the same applications under several experiments — the same
//! queries recur constantly. This module memoizes `solve` outcomes behind
//! a **structural fingerprint** of the query so any repeat, from any
//! thread, is answered without re-blasting.
//!
//! Keys are 128-bit fingerprints computed bottom-up over the
//! [`SymBool`]/[`SymExpr`] DAG with per-node memoization (shared subtrees
//! hashed once), mixed with the solver-relevant configuration, so two
//! structurally identical queries built independently collide on the same
//! entry while queries solved under different budgets stay separate.
//! `Unknown` outcomes are *not* cached: they indicate an exhausted budget,
//! not a property of the query.
//!
//! The table is sharded: concurrent workers of the `diode-engine`
//! scheduler contend only on the shard owning their key, and the solve
//! itself runs with no lock held (two threads racing on the same fresh
//! query both solve it — wasted work, never wrong answers, because every
//! cacheable outcome is deterministic for a fixed configuration).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use diode_obs::Json;
use diode_symbolic::{Sym, SymBool, SymExpr};

use crate::solve::{solve_with, SolveResult, SolverConfig};

const SHARD_COUNT: usize = 16;

/// Aggregate cache counters (cheap to copy into reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that had to be solved.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
    /// Approximate bytes resident in stored entries (keys + results).
    pub bytes: u64,
    /// High-water mark of `bytes` over the cache's lifetime.
    pub peak_bytes: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; `0` when no queries were issued.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The one serialised shape of the counters, shared by the daemon's
/// replies and the harness's `--json` outputs.
impl From<CacheStats> for Json {
    fn from(s: CacheStats) -> Json {
        Json::obj()
            .field("hits", s.hits)
            .field("misses", s.misses)
            .field("entries", s.entries)
            .field("bytes", s.bytes)
            .field("peak_bytes", s.peak_bytes)
            .field("hit_rate", s.hit_rate())
    }
}

/// A sharded, thread-safe memo table for solver queries.
pub struct SolverCache {
    shards: Vec<Mutex<HashMap<u128, SolveResult>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    bytes: diode_obs::ByteGauge,
}

/// Approximate resident cost of one cache entry: the 16-byte key, the
/// hash-map bucket, and the result's model bytes (each a `BTreeMap`
/// node).
fn entry_cost(result: &SolveResult) -> u64 {
    let payload = match result {
        SolveResult::Sat(model) => 24 * model.bytes().len() as u64,
        SolveResult::Unsat | SolveResult::Unknown => 0,
    };
    48 + payload
}

impl Default for SolverCache {
    fn default() -> Self {
        SolverCache::new()
    }
}

impl std::fmt::Debug for SolverCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("SolverCache")
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("entries", &s.entries)
            .finish()
    }
}

impl SolverCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        SolverCache {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bytes: diode_obs::ByteGauge::new(),
        }
    }

    fn shard(&self, key: u128) -> &Mutex<HashMap<u128, SolveResult>> {
        &self.shards[(key >> 64) as usize % SHARD_COUNT]
    }

    /// Solves `cond` under `config`, answering from the cache when a
    /// structurally identical query was solved before.
    ///
    /// Only diversity-free queries go through here; sampled solving (the
    /// success-rate experiments) intentionally varies decision polarities
    /// per call and must not be memoized.
    #[must_use]
    pub fn solve(&self, cond: &SymBool, config: &SolverConfig) -> SolveResult {
        self.solve_with_info(cond, config).0
    }

    /// Like [`SolverCache::solve`], additionally reporting whether the
    /// query was answered from the cache — for per-query hit/miss
    /// attribution in traces. The flag is advisory under concurrency
    /// (two threads racing on a fresh query both report a miss).
    #[must_use]
    pub fn solve_with_info(&self, cond: &SymBool, config: &SolverConfig) -> (SolveResult, bool) {
        let mut span = diode_obs::span(diode_obs::Phase::Solve);
        diode_obs::count("solver.queries", 1);
        let key = query_key(cond, config);
        if let Some(found) = self.shard(key).lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            span.cache_hit(true);
            diode_obs::count("solver.cache_hits", 1);
            return (found.clone(), true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        span.cache_hit(false);
        let (result, stats) = solve_with(cond, config, None);
        stats.count();
        if !matches!(result, SolveResult::Unknown) {
            let cost = entry_cost(&result);
            if self
                .shard(key)
                .lock()
                .unwrap()
                .insert(key, result.clone())
                .is_none()
            {
                // Only a genuinely new entry grows the gauge; a racing
                // duplicate insert replaces an identical result.
                self.bytes.add(cost);
            }
        }
        (result, false)
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.shards.iter().map(|s| s.lock().unwrap().len()).sum(),
            bytes: self.bytes.current(),
            peak_bytes: self.bytes.peak(),
        }
    }

    /// Drops every entry and zeroes the counters (byte gauges included).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().unwrap().clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.bytes.reset();
    }
}

fn query_key(cond: &SymBool, config: &SolverConfig) -> u128 {
    let fp = constraint_fingerprint(cond);
    // Mix in the solver-relevant configuration so budget changes don't
    // resurrect results proved under different limits.
    let mut h = seeded_hasher(0xC0FF);
    config.max_conflicts.hash(&mut h);
    config.interval_presolve.hash(&mut h);
    fp ^ u128::from(h.finish())
}

/// A 128-bit structural fingerprint of a constraint: equal for any two
/// structurally identical conditions regardless of how their DAGs are
/// shared or where they were built.
#[must_use]
pub fn constraint_fingerprint(cond: &SymBool) -> u128 {
    let mut memo = HashMap::new();
    fingerprint_cond(cond, &mut memo)
}

/// [`constraint_fingerprint`] rendered as 32 lowercase hex digits — the
/// wire form provenance query events carry, so an audit record's queries
/// can be correlated with the shared cache's keys across runs.
#[must_use]
pub fn fingerprint_hex(cond: &SymBool) -> String {
    format!("{:032x}", constraint_fingerprint(cond))
}

fn seeded_hasher(seed: u64) -> DefaultHasher {
    let mut h = DefaultHasher::new();
    seed.hash(&mut h);
    h
}

fn combine(tag: u64, parts: &[u128]) -> u128 {
    let mut lo = seeded_hasher(tag);
    let mut hi = seeded_hasher(tag.rotate_left(17) ^ 0x9E37_79B9_7F4A_7C15);
    for p in parts {
        p.hash(&mut lo);
        p.hash(&mut hi);
    }
    (u128::from(hi.finish()) << 64) | u128::from(lo.finish())
}

fn fingerprint_cond(cond: &SymBool, memo: &mut HashMap<usize, u128>) -> u128 {
    match cond {
        SymBool::Const(b) => combine(0x10, &[u128::from(*b)]),
        SymBool::Cmp(op, a, b) => {
            let t = 0x20 + *op as u64;
            let (fa, fb) = (fingerprint_expr(a, memo), fingerprint_expr(b, memo));
            combine(t, &[fa, fb])
        }
        SymBool::Not(inner) => combine(0x30, &[fingerprint_cond(inner, memo)]),
        SymBool::And(a, b) => combine(
            0x31,
            &[fingerprint_cond(a, memo), fingerprint_cond(b, memo)],
        ),
        SymBool::Or(a, b) => combine(
            0x32,
            &[fingerprint_cond(a, memo), fingerprint_cond(b, memo)],
        ),
        SymBool::Ovf(kind, a, b) => {
            let t = match kind {
                diode_symbolic::OvfKind::Add => 0x40,
                diode_symbolic::OvfKind::Sub => 0x41,
                diode_symbolic::OvfKind::Mul => 0x42,
                diode_symbolic::OvfKind::Shl => 0x43,
                diode_symbolic::OvfKind::Neg => 0x44,
                diode_symbolic::OvfKind::Trunc(w) => 0x100 + u64::from(*w),
            };
            let (fa, fb) = (fingerprint_expr(a, memo), fingerprint_expr(b, memo));
            combine(t, &[fa, fb])
        }
    }
}

fn fingerprint_expr(expr: &SymExpr, memo: &mut HashMap<usize, u128>) -> u128 {
    if let Some(&fp) = memo.get(&expr.node_id()) {
        return fp;
    }
    let fp = match expr.sym() {
        Sym::Const(bv) => combine(0x50, &[u128::from(bv.width()), bv.value()]),
        Sym::InputByte(off) => combine(0x51, &[u128::from(*off)]),
        Sym::Un(op, a) => combine(0x60 + *op as u64, &[fingerprint_expr(a, memo)]),
        Sym::Bin(op, a, b) => {
            let t = 0x70 + *op as u64;
            let (fa, fb) = (fingerprint_expr(a, memo), fingerprint_expr(b, memo));
            combine(t, &[u128::from(expr.width()), fa, fb])
        }
        Sym::Cast(kind, w, a) => {
            let t = 0x90 + *kind as u64;
            combine(t, &[u128::from(*w), fingerprint_expr(a, memo)])
        }
    };
    memo.insert(expr.node_id(), fp);
    fp
}

#[cfg(test)]
mod tests {
    use super::*;
    use diode_lang::{BinOp, Bv, CastKind, CmpOp};
    use diode_symbolic::overflow_condition;

    fn byte32(off: u32) -> SymExpr {
        SymExpr::input_byte(off).cast(CastKind::Zext, 32)
    }

    fn c32(v: u32) -> SymExpr {
        SymExpr::constant(Bv::u32(v))
    }

    fn beta() -> SymBool {
        let field = byte32(0).bin(BinOp::Shl, c32(8)).bin(BinOp::Or, byte32(1));
        overflow_condition(&field.bin(BinOp::Mul, c32(80_000)))
    }

    #[test]
    fn structurally_equal_queries_share_a_fingerprint() {
        // Built twice, no node sharing between the two.
        assert_eq!(
            constraint_fingerprint(&beta()),
            constraint_fingerprint(&beta())
        );
    }

    #[test]
    fn different_queries_get_different_fingerprints() {
        let a = SymBool::cmp(CmpOp::Ult, byte32(0), c32(10));
        let b = SymBool::cmp(CmpOp::Ult, byte32(0), c32(11));
        let c = SymBool::cmp(CmpOp::Ule, byte32(0), c32(10));
        let d = SymBool::cmp(CmpOp::Ult, byte32(1), c32(10));
        let fps = [
            constraint_fingerprint(&a),
            constraint_fingerprint(&b),
            constraint_fingerprint(&c),
            constraint_fingerprint(&d),
        ];
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "{i} vs {j}");
            }
        }
    }

    #[test]
    fn and_order_is_significant_but_stable() {
        let x = SymBool::cmp(CmpOp::Ult, byte32(0), c32(10));
        let y = SymBool::cmp(CmpOp::Ugt, byte32(1), c32(3));
        assert_eq!(
            constraint_fingerprint(&x.and(&y)),
            constraint_fingerprint(&x.and(&y))
        );
        assert_ne!(
            constraint_fingerprint(&x.and(&y)),
            constraint_fingerprint(&y.and(&x))
        );
    }

    #[test]
    fn repeat_queries_hit() {
        let cache = SolverCache::new();
        let config = SolverConfig::default();
        let first = cache.solve(&beta(), &config);
        assert!(matches!(first, SolveResult::Sat(_)));
        let again = cache.solve(&beta(), &config);
        assert_eq!(first, again);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn cached_results_agree_with_direct_solving() {
        let cache = SolverCache::new();
        let config = SolverConfig::default();
        let queries = [
            beta(),
            SymBool::cmp(CmpOp::Ugt, byte32(0), c32(1000)), // unsat
            SymBool::cmp(CmpOp::Ult, byte32(2), c32(7)),
        ];
        for q in &queries {
            let direct = solve_with(q, &config, None).0;
            let cached_cold = cache.solve(q, &config);
            let cached_warm = cache.solve(q, &config);
            // Deterministic solver ⇒ identical models, not just same status.
            assert_eq!(direct, cached_cold);
            assert_eq!(direct, cached_warm);
        }
    }

    #[test]
    fn config_changes_separate_entries() {
        let cache = SolverCache::new();
        let a = SolverConfig::default();
        let b = SolverConfig {
            interval_presolve: false,
            ..SolverConfig::default()
        };
        let unsat = SymBool::cmp(CmpOp::Ugt, byte32(0), c32(1000));
        let _ = cache.solve(&unsat, &a);
        let _ = cache.solve(&unsat, &b);
        assert_eq!(cache.stats().misses, 2, "distinct configs must not collide");
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn byte_gauge_grows_per_entry_and_survives_as_peak() {
        let cache = SolverCache::new();
        let config = SolverConfig::default();
        assert_eq!(cache.stats().bytes, 0);
        let _ = cache.solve(&beta(), &config); // sat: key + model bytes
        let after_sat = cache.stats().bytes;
        assert!(
            after_sat > 48,
            "sat entry should charge a model: {after_sat}"
        );
        let _ = cache.solve(&beta(), &config); // hit: no growth
        assert_eq!(cache.stats().bytes, after_sat);
        let unsat = SymBool::cmp(CmpOp::Ugt, byte32(0), c32(1000));
        let _ = cache.solve(&unsat, &config);
        let s = cache.stats();
        assert_eq!(s.bytes, after_sat + 48, "unsat entry is key-only");
        assert_eq!(s.peak_bytes, s.bytes);
        assert_eq!(s.entries, 2);
    }

    #[test]
    fn clear_resets_everything() {
        let cache = SolverCache::new();
        let _ = cache.solve(&beta(), &SolverConfig::default());
        cache.clear();
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        let cache = std::sync::Arc::new(SolverCache::new());
        let config = SolverConfig::default();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = std::sync::Arc::clone(&cache);
                let config = config.clone();
                scope.spawn(move || {
                    for _ in 0..4 {
                        assert!(matches!(cache.solve(&beta(), &config), SolveResult::Sat(_)));
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, 16);
        assert!(s.hits >= 12, "expected mostly hits, got {s:?}");
        assert_eq!(s.entries, 1);
    }
}
