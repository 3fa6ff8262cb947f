//! Folds: order statistics over per-round samples, and the span fold
//! over the program's `OLIVE_METRICS`-schema JSONL stream.

use std::collections::BTreeMap;

/// The `p`-quantile of `values` by the rule Python's
/// `statistics.quantiles` uses by default (exclusive, linear
/// interpolation), so the spreads reported here read like the driver's.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() == 1 {
        return v[0];
    }
    let pos = p * (v.len() + 1) as f64;
    let j = (pos.floor() as usize).clamp(1, v.len() - 1);
    v[j - 1] + (pos - j as f64) * (v[j] - v[j - 1])
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The timing an end-to-end run reports for one repeated operation: the
/// 10th percentile (the fastest sample when there are fewer than ten).
///
/// This host's noise only ever slows an operation, in bursts that last
/// from a second to tens of seconds, so the median of a window moves with
/// how much of the window a burst covered; the low tail is what the code
/// itself takes and is what repeats from run to run. A change that slows
/// the code moves the tail as much as it moves the median.
pub fn undisturbed(values: &[f64]) -> f64 {
    let fastest = values.iter().copied().fold(f64::INFINITY, f64::min);
    quantile(values, 0.1).max(fastest)
}

/// `[p25, p50, p75]`.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    [0.25, 0.5, 0.75].map(|p| quantile(values, p))
}

/// Per-round totals of every span name in a telemetry JSONL stream.
///
/// Span records are written when they close, and the `round` span closes
/// last, so the records between two `round` records belong to the later
/// one. Returns one `name → summed seconds` map per completed round
/// (the `round` span itself included).
pub fn fold_spans(jsonl: &str) -> Vec<BTreeMap<String, f64>> {
    let mut rounds = Vec::new();
    let mut open: BTreeMap<String, f64> = BTreeMap::new();
    for line in jsonl.lines() {
        if !line.starts_with("{\"record\":\"span\"") {
            continue;
        }
        let (Some(name), Some(ns)) = (str_field(line, "name"), u64_field(line, "ns")) else {
            continue;
        };
        *open.entry(name.to_string()).or_insert(0.0) += ns as f64 * 1e-9;
        if name == "round" {
            rounds.push(std::mem::take(&mut open));
        }
    }
    rounds
}

/// The string value of `"key":"…"` in a one-line JSON record whose
/// strings hold no escaped quotes (true of every span name).
fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let rest = &line[line.find(&pat)? + pat.len()..];
    Some(&rest[..rest.find('"')?])
}

/// The integer value of the last `"key":123` in a one-line JSON record
/// (the wall-clock object is always the final key).
fn u64_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.rfind(&pat)? + pat.len()..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_pythons_exclusive_rule() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert_eq!(median(&v), 5.5);
        // Order must not matter, odd counts hit a sample, one sample is itself.
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(quantile(&[4.0], 0.25), 4.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.75), 2.25);
    }

    #[test]
    fn undisturbed_is_the_tenth_percentile_and_never_extrapolates() {
        // statistics.quantiles(range(1, 21), n=10)[0] == 2.1
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert!((undisturbed(&v) - 2.1).abs() < 1e-12);
        // Fewer than ten samples: the fastest, not a value below it.
        assert_eq!(undisturbed(&[3.0, 2.0, 5.0]), 2.0);
        assert_eq!(undisturbed(&[4.0]), 4.0);
    }

    #[test]
    fn span_fold_sums_per_round_and_ignores_other_records() {
        let t = olive_telemetry::Telemetry::to_buffer();
        for round in 0..2u64 {
            let _r = t.span("round", &[("round", round.into())]);
            for chunk in 0..3u64 {
                let _c = t.span("ingest_chunk", &[("chunk", chunk.into())]);
                t.count("opened_bytes", "hw", 10);
            }
            t.span("finalize", &[("ns", 7u64.into())]).end();
            t.flush_stats();
        }
        let rounds = fold_spans(&t.buffer_contents().expect("buffer sink"));
        assert_eq!(rounds.len(), 2);
        for r in &rounds {
            assert_eq!(
                r.keys().map(String::as_str).collect::<Vec<_>>(),
                ["finalize", "ingest_chunk", "round"]
            );
            assert!(r["round"] >= r["ingest_chunk"] + r["finalize"]);
        }
    }

    #[test]
    fn field_extraction_reads_the_wall_suffix() {
        let line = "{\"record\":\"span\",\"name\":\"finalize\",\"id\":3,\"parent\":1,\
                    \"deterministic\":{\"ns\":7},\"wall\":{\"ns\":1500}}";
        assert_eq!(str_field(line, "name"), Some("finalize"));
        assert_eq!(u64_field(line, "ns"), Some(1500));
        assert_eq!(fold_spans(line), vec![]);
    }
}
