//! Prometheus text exposition (format version 0.0.4) for the registry.
//!
//! [`prometheus_text`] renders every registered counter, gauge, and
//! histogram into the plain-text scrape format served by
//! `zenesis-serve --metrics-addr` at `/metrics`:
//!
//! * Metric names are sanitized (`.` and any other invalid character →
//!   `_`) and prefixed `zenesis_`; counters get the conventional
//!   `_total` suffix.
//! * `*.lat` histograms hold microseconds internally (see
//!   [`crate::record_ms`]); they are exposed in **seconds** with a
//!   `_seconds` name, matching Prometheus base-unit conventions.
//! * Each histogram is rendered twice: a `summary` family carrying the
//!   p50/p90/p99 quantiles plus `_sum`/`_count`, and a `histogram`
//!   family (`<name>_hist`) with cumulative `le=` buckets (only
//!   non-empty buckets plus the mandatory `+Inf`), so both
//!   quantile-reading and bucket-aggregating consumers work.
//! * The bounded stores' drop counts are always exposed, as
//!   `zenesis_obs_events_dropped_total` and
//!   `zenesis_obs_spans_dropped_total`, even before the first drop
//!   registers the counter.
//!
//! The full schema is documented in `docs/OBSERVABILITY.md`.

use std::fmt::Write as _;

/// Sanitize one metric name into the Prometheus alphabet
/// `[a-zA-Z_:][a-zA-Z0-9_:]*` and prefix it with `zenesis_`.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 8);
    out.push_str("zenesis_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escape a HELP text or label value: backslash, double quote (label
/// values only — harmless in HELP), and newline.
fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Format a float the way Prometheus expects: no exponent surprises,
/// `+Inf` spelled out, integral values without a trailing `.0` noise
/// being fine either way (parsers accept both).
fn fmt_f64(v: f64) -> String {
    if v.is_infinite() {
        if v > 0.0 {
            "+Inf".into()
        } else {
            "-Inf".into()
        }
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Render the entire metrics registry in Prometheus text exposition
/// format. Deterministic ordering (names sorted within each section);
/// safe to call from any thread at any time.
pub fn prometheus_text() -> String {
    let snap = crate::metrics_snapshot();
    let mut out = String::with_capacity(4096);

    // The bounded stores' drop counts: always present, sourced from
    // their authoritative atomics. Skip the registry counters of the
    // same names below so no family is duplicated.
    let drops = [
        ("obs.events.dropped", "Events", "event buffer"),
        ("obs.spans.dropped", "Spans", "span store"),
    ];
    let counts = [
        crate::events::dropped_events(),
        crate::span::dropped_spans(),
    ];
    for ((name, what, store), dropped) in drops.into_iter().zip(counts) {
        let pname = format!("{}_total", sanitize(name));
        let _ = writeln!(
            out,
            "# HELP {pname} {what} dropped from the bounded in-memory {store}."
        );
        let _ = writeln!(out, "# TYPE {pname} counter");
        let _ = writeln!(out, "{pname} {dropped}");
    }

    for (name, v) in &snap.counters {
        if drops.iter().any(|d| d.0 == name) {
            continue;
        }
        let mut pname = sanitize(name);
        if !pname.ends_with("_total") {
            pname.push_str("_total");
        }
        let _ = writeln!(out, "# HELP {pname} Counter {}.", escape(name));
        let _ = writeln!(out, "# TYPE {pname} counter");
        let _ = writeln!(out, "{pname} {v}");
    }

    for (name, v) in &snap.gauges {
        let pname = sanitize(name);
        let _ = writeln!(out, "# HELP {pname} Gauge {}.", escape(name));
        let _ = writeln!(out, "# TYPE {pname} gauge");
        let _ = writeln!(out, "{pname} {v}");
    }

    for (name, hist) in crate::metrics::histogram_handles() {
        let stats = hist.stats();
        if stats.count == 0 {
            continue;
        }
        // `*.lat` histograms store µs; expose seconds per conventions.
        let is_lat = name.ends_with(".lat");
        let (pname, scale) = if is_lat {
            let base = name.trim_end_matches(".lat");
            (format!("{}_seconds", sanitize(base)), 1e-6)
        } else {
            (sanitize(&name), 1.0)
        };
        let _ = writeln!(
            out,
            "# HELP {pname} Latency histogram {} ({}).",
            escape(&name),
            if is_lat { "seconds" } else { "native unit" }
        );
        let _ = writeln!(out, "# TYPE {pname} summary");
        for (q, v) in [(0.5, stats.p50), (0.9, stats.p90), (0.99, stats.p99)] {
            let _ = writeln!(out, "{pname}{{quantile=\"{q}\"}} {}", fmt_f64(v * scale));
        }
        let _ = writeln!(out, "{pname}_sum {}", fmt_f64(hist.sum() as f64 * scale));
        let _ = writeln!(out, "{pname}_count {}", stats.count);

        let hname = format!("{pname}_hist");
        let _ = writeln!(
            out,
            "# HELP {hname} Cumulative buckets of {}.",
            escape(&name)
        );
        let _ = writeln!(out, "# TYPE {hname} histogram");
        let mut last = 0u64;
        for (hi, cum) in hist.cumulative_buckets() {
            let _ = writeln!(out, "{hname}_bucket{{le=\"{}\"}} {cum}", fmt_f64(hi * scale));
            last = cum;
        }
        // The mandatory +Inf bucket equals the total count; under
        // concurrent recording `count` may race ahead of the bucket
        // sweep, so take the max to stay monotone.
        let _ = writeln!(
            out,
            "{hname}_bucket{{le=\"+Inf\"}} {}",
            stats.count.max(last)
        );
        let _ = writeln!(out, "{hname}_sum {}", fmt_f64(hist.sum() as f64 * scale));
        let _ = writeln!(out, "{hname}_count {}", stats.count.max(last));
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn sanitize_and_escape() {
        assert_eq!(sanitize("serve.job.ok"), "zenesis_serve_job_ok");
        assert_eq!(sanitize("io.tiff/open 1"), "zenesis_io_tiff_open_1");
        assert_eq!(escape("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
        assert_eq!(fmt_f64(f64::INFINITY), "+Inf");
        assert_eq!(fmt_f64(3.0), "3");
    }

    /// Minimal exposition-format parser: validates `# TYPE` lines,
    /// sample-line shape, and returns samples keyed by
    /// `name{labels}`. Panics on any malformed line — that *is* the
    /// format test.
    fn parse(text: &str) -> (HashMap<String, String>, HashMap<String, f64>) {
        let mut types = HashMap::new();
        let mut samples = HashMap::new();
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.splitn(2, ' ');
                let name = it.next().unwrap().to_string();
                let ty = it.next().expect("TYPE must carry a type").to_string();
                assert!(
                    ["counter", "gauge", "summary", "histogram"].contains(&ty.as_str()),
                    "bad type {ty}"
                );
                assert!(valid_name(&name), "bad metric name {name}");
                assert!(
                    types.insert(name, ty).is_none(),
                    "duplicate TYPE line in:\n{line}"
                );
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let (key, value) = line.rsplit_once(' ').expect("sample line needs a value");
            let name_part = key.split('{').next().unwrap();
            assert!(valid_name(name_part), "bad sample name {name_part}");
            if value != "+Inf" && value != "-Inf" {
                value.parse::<f64>().expect("sample value must parse");
            }
            samples.insert(key.to_string(), value.parse().unwrap_or(f64::INFINITY));
        }
        (types, samples)
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .enumerate()
                .all(|(i, c)| c == '_' || c == ':' || c.is_ascii_alphabetic() || (i > 0 && c.is_ascii_digit()))
    }

    #[test]
    fn exposition_parses_and_buckets_are_monotone() {
        crate::counter("test.prom.jobs").add(3);
        crate::gauge("test.prom.depth").set(-2);
        let h = crate::histogram("test.prom.stage.lat");
        for v in [120u64, 950, 950, 950, 14_000, 14_000, 2_000_000] {
            h.record(v);
        }
        let text = prometheus_text();
        let (types, samples) = parse(&text);

        assert_eq!(
            types.get("zenesis_test_prom_jobs_total").map(String::as_str),
            Some("counter")
        );
        assert_eq!(samples["zenesis_test_prom_jobs_total"], 3.0);
        assert_eq!(
            types.get("zenesis_test_prom_depth").map(String::as_str),
            Some("gauge")
        );
        assert_eq!(samples["zenesis_test_prom_depth"], -2.0);
        assert_eq!(
            types
                .get("zenesis_test_prom_stage_seconds")
                .map(String::as_str),
            Some("summary")
        );
        assert_eq!(
            types
                .get("zenesis_test_prom_stage_seconds_hist")
                .map(String::as_str),
            Some("histogram")
        );
        assert_eq!(samples["zenesis_test_prom_stage_seconds_count"], 7.0);
        // µs → seconds scaling: the p50 sample (950 µs bucket) lands
        // near 0.00095 s.
        let p50 = samples["zenesis_test_prom_stage_seconds{quantile=\"0.5\"}"];
        assert!(p50 > 0.0005 && p50 < 0.0015, "p50={p50}");

        // Cumulative buckets: sorted by le, counts monotone, +Inf = count.
        let mut buckets: Vec<(f64, f64)> = samples
            .iter()
            .filter_map(|(k, v)| {
                let le = k
                    .strip_prefix("zenesis_test_prom_stage_seconds_hist_bucket{le=\"")?
                    .strip_suffix("\"}")?;
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().unwrap()
                };
                Some((le, *v))
            })
            .collect();
        buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        assert!(buckets.len() >= 4, "expected several buckets: {buckets:?}");
        for w in buckets.windows(2) {
            assert!(w[1].1 >= w[0].1, "non-monotone buckets: {buckets:?}");
        }
        assert_eq!(buckets.last().unwrap().0, f64::INFINITY);
        assert_eq!(buckets.last().unwrap().1, 7.0);

        // The drop counter families are always present.
        for family in [
            "zenesis_obs_events_dropped_total",
            "zenesis_obs_spans_dropped_total",
        ] {
            assert_eq!(types.get(family).map(String::as_str), Some("counter"));
        }
    }

    #[test]
    fn empty_histograms_are_omitted() {
        let _ = crate::histogram("test.prom.empty.lat");
        let text = prometheus_text();
        assert!(!text.contains("zenesis_test_prom_empty"));
    }
}
