//! JSON emission for the `--json` harness outputs.
//!
//! The value type is `diode-obs`'s round-tripping [`Json`] — one codec
//! for the whole workspace, so corpus documents and `BENCH_*.json`
//! artifacts share canonical formatting and `u64` payloads (RNG seeds,
//! guard limits) stay exact instead of passing through `f64`. This
//! module adds the serializers only the harness needs; cache and
//! snapshot counters convert with `Json::from`, next to their types.

use std::time::Duration;

use diode_obs::Json;

/// Serializes a duration as fractional milliseconds (every `*_ms` field
/// in the BENCH schema).
#[must_use]
pub fn ms(d: Duration) -> Json {
    Json::from(d.as_secs_f64() * 1e3)
}

/// Serializes `(total, exposed, unsat, prevented)` counts.
#[must_use]
pub fn counts_json(c: (usize, usize, usize, usize)) -> Json {
    Json::obj()
        .field("total", c.0)
        .field("exposed", c.1)
        .field("unsat", c.2)
        .field("prevented", c.3)
}

/// Serializes a forge score card (recall/precision grading).
#[must_use]
pub fn score_json(card: &diode_synth::ScoreCard) -> Json {
    Json::obj()
        .field("graded", card.graded)
        .field("recall", card.recall())
        .field("precision", card.precision())
        .field("exact", card.exact)
        .field("exact_rate", card.exact_rate())
        .field("true_pos", card.true_pos)
        .field("false_pos", card.false_pos)
        .field("false_neg", card.false_neg)
        .field("true_neg", card.true_neg)
        .field(
            "mismatches",
            card.mismatches
                .iter()
                .map(|m| Json::Str(m.to_string()))
                .collect::<Vec<_>>(),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_shapes() {
        let j = Json::obj()
            .field("name", "a\"b\\c\n")
            .field("n", 3usize)
            .field("frac", 1.5f64)
            .field("ok", true)
            .field("none", Json::Null)
            .field("list", vec![1u32, 2, 3]);
        assert_eq!(
            j.to_string(),
            r#"{"name":"a\"b\\c\n","n":3,"frac":1.5,"ok":true,"none":null,"list":[1,2,3]}"#
        );
    }

    #[test]
    fn durations_are_fractional_ms() {
        assert_eq!(ms(Duration::from_micros(1500)).to_string(), "1.5");
    }

    #[test]
    fn u64_payloads_stay_exact() {
        let j = Json::obj().field("rng_seed", u64::MAX);
        assert_eq!(j.to_string(), r#"{"rng_seed":18446744073709551615}"#);
    }

    #[test]
    fn counts_and_cache_helpers() {
        assert_eq!(
            counts_json((40, 14, 17, 9)).to_string(),
            r#"{"total":40,"exposed":14,"unsat":17,"prevented":9}"#
        );
        assert_eq!(
            Json::from(None::<diode_solver::CacheStats>).to_string(),
            "null"
        );
        let s = diode_solver::CacheStats {
            hits: 3,
            misses: 1,
            entries: 1,
            bytes: 96,
            peak_bytes: 120,
        };
        assert_eq!(
            Json::from(s).to_string(),
            r#"{"hits":3,"misses":1,"entries":1,"bytes":96,"peak_bytes":120,"hit_rate":0.75}"#
        );
    }
}
