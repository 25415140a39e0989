//! # zenesis-ledger
//!
//! Run ledgers and the perf-regression gate — the *consumption* layer of
//! the observability stack. A [`Ledger`] is a self-describing snapshot
//! of one benchmark/CLI run (schema v1): the configuration fingerprint,
//! dataset seed, per-stage latency statistics from the `zenesis-obs`
//! histograms, per-method quality (accuracy/IoU/Dice) from a Mode C
//! evaluation, a counter snapshot, and the run's wall clock. The `repro`
//! harness writes one as `BENCH_<label>.json` after every run;
//! [`diff`] compares two ledgers and the `zenesis-obs-diff` binary turns
//! that comparison into a CI gate: it prints a delta table and exits
//! nonzero when p50/p99 latency regresses beyond a threshold or quality
//! drops.
//!
//! ```no_run
//! use zenesis_ledger::{diff, DiffThresholds, Ledger};
//! let base = Ledger::from_json(&std::fs::read_to_string("BENCH_base.json").unwrap()).unwrap();
//! let head = Ledger::from_json(&std::fs::read_to_string("BENCH_head.json").unwrap()).unwrap();
//! let d = diff(&base, &head, &DiffThresholds::default());
//! print!("{}", d.render());
//! assert!(d.ok(), "perf or quality regressed");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

use serde::{Deserialize, Serialize};

/// The ledger schema version this crate writes and reads.
pub const SCHEMA_VERSION: u32 = 1;

/// Summary latency statistics for one pipeline stage (milliseconds).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageStat {
    /// Stage name (the `*.lat` histogram name without the suffix).
    pub stage: String,
    /// Number of recorded runs.
    pub count: u64,
    /// Median latency, ms.
    pub p50_ms: f64,
    /// 90th-percentile latency, ms.
    pub p90_ms: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// Mean latency, ms.
    pub mean_ms: f64,
}

/// Quality of one `(group, method)` evaluation cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualityStat {
    /// Sample group (e.g. `Crystalline`).
    pub group: String,
    /// Method name (e.g. `Zenesis`).
    pub method: String,
    /// Mean pixel accuracy.
    pub accuracy: f64,
    /// Mean intersection-over-union.
    pub iou: f64,
    /// Mean Dice coefficient.
    pub dice: f64,
    /// Samples aggregated into the cell.
    pub n_samples: usize,
}

/// One counter at capture time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterStat {
    /// Counter name.
    pub name: String,
    /// Counter value.
    pub value: u64,
}

/// A self-describing record of one run (schema v1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ledger {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub version: u32,
    /// Human-chosen run label (`seed`, `head`, a commit hash, …).
    pub label: String,
    /// Fingerprint of the serialized configuration that produced the run
    /// (see [`fingerprint`]); two ledgers with different fingerprints are
    /// not measuring the same pipeline.
    pub config_fingerprint: String,
    /// Dataset seed (0 when the input was not seed-generated).
    pub dataset_seed: u64,
    /// Dataset slice side length in pixels (0 when not applicable).
    pub dataset_side: usize,
    /// Total wall clock of the run, seconds.
    pub wall_clock_s: f64,
    /// Per-stage latency statistics from the `*.lat` histograms.
    pub stages: Vec<StageStat>,
    /// Per-method quality from a Mode C evaluation (empty when the run
    /// did not evaluate).
    pub quality: Vec<QualityStat>,
    /// Counter snapshot.
    pub counters: Vec<CounterStat>,
}

impl Ledger {
    /// Capture a ledger from the current `zenesis-obs` registries. Stage
    /// rows come from [`zenesis_obs::latency_rows`], counters from the
    /// metrics snapshot; `quality` is supplied by the caller (see
    /// [`quality_from_eval`]).
    pub fn capture(
        label: &str,
        config_fingerprint: &str,
        dataset_seed: u64,
        dataset_side: usize,
        wall_clock_s: f64,
        quality: Vec<QualityStat>,
    ) -> Ledger {
        let stages = zenesis_obs::latency_rows()
            .into_iter()
            .map(|r| StageStat {
                stage: r.stage,
                count: r.count,
                p50_ms: r.p50_ms,
                p90_ms: r.p90_ms,
                p99_ms: r.p99_ms,
                mean_ms: r.mean_ms,
            })
            .collect();
        let counters = zenesis_obs::metrics_snapshot()
            .counters
            .into_iter()
            .map(|(name, value)| CounterStat { name, value })
            .collect();
        Ledger {
            version: SCHEMA_VERSION,
            label: label.to_string(),
            config_fingerprint: config_fingerprint.to_string(),
            dataset_seed,
            dataset_side,
            wall_clock_s,
            stages,
            quality,
            counters,
        }
    }

    /// Serialize as pretty JSON (the `BENCH_<label>.json` format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("ledger serializes")
    }

    /// Parse a ledger, validating the schema version.
    pub fn from_json(text: &str) -> Result<Ledger, String> {
        let l: Ledger =
            serde_json::from_str(text).map_err(|e| format!("invalid ledger JSON: {e}"))?;
        if l.version != SCHEMA_VERSION {
            return Err(format!(
                "ledger schema version {} (this build reads {})",
                l.version, SCHEMA_VERSION
            ));
        }
        Ok(l)
    }

    /// Stage row by name.
    pub fn stage(&self, name: &str) -> Option<&StageStat> {
        self.stages.iter().find(|s| s.stage == name)
    }
}

/// Quality rows from a Mode C evaluation summary.
pub fn quality_from_eval(eval: &zenesis_metrics::DatasetEval) -> Vec<QualityStat> {
    eval.summarize()
        .into_iter()
        .map(|s| QualityStat {
            group: s.group,
            method: s.method,
            accuracy: s.accuracy.mean,
            iou: s.iou.mean,
            dice: s.dice.mean,
            n_samples: s.n_samples,
        })
        .collect()
}

/// 64-bit FNV-1a fingerprint of arbitrary bytes (typically the
/// serialized `ZenesisConfig`), rendered as 16 hex digits. Stable across
/// platforms and runs — no `DefaultHasher` seed dependence.
pub fn fingerprint(bytes: impl AsRef<[u8]>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes.as_ref() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

// ---- diffing ---------------------------------------------------------------

/// Regression thresholds for [`diff`]. Regress fractions are relative
/// (`0.20` = +20 % slower); the quality threshold is an absolute drop in
/// mean IoU/Dice/accuracy.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffThresholds {
    /// Maximum tolerated relative p50 increase per stage.
    pub max_p50_regress: f64,
    /// Maximum tolerated relative p99 increase per stage.
    pub max_p99_regress: f64,
    /// Maximum tolerated absolute drop in any quality metric.
    pub max_quality_drop: f64,
    /// Stages with fewer samples than this (in either ledger) are
    /// reported but never gate — percentiles of tiny samples are noise.
    pub min_count: u64,
    /// Stages whose baseline p99 is below this many milliseconds never
    /// gate — relative thresholds on micro-stages amplify jitter.
    pub floor_ms: f64,
}

impl Default for DiffThresholds {
    fn default() -> Self {
        DiffThresholds {
            max_p50_regress: 0.20,
            max_p99_regress: 0.20,
            max_quality_drop: 0.02,
            min_count: 3,
            floor_ms: 0.05,
        }
    }
}

/// Latency delta of one stage present in both ledgers.
#[derive(Debug, Clone, PartialEq)]
pub struct StageDelta {
    /// Stage name.
    pub(crate) stage: String,
    /// Baseline / head median, ms.
    pub(crate) p50_ms: (f64, f64),
    /// Baseline / head p99, ms.
    pub(crate) p99_ms: (f64, f64),
    /// Relative p50 change (`0.1` = 10 % slower).
    pub(crate) p50_rel: f64,
    /// Relative p99 change.
    pub(crate) p99_rel: f64,
    /// True when this stage trips the latency gate.
    pub regressed: bool,
}

/// Quality delta of one `(group, method)` cell present in both ledgers.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityDelta {
    /// Sample group.
    pub(crate) group: String,
    /// Method name.
    pub method: String,
    /// Baseline / head mean IoU.
    pub(crate) iou: (f64, f64),
    /// Baseline / head mean Dice.
    pub(crate) dice: (f64, f64),
    /// Baseline / head mean accuracy.
    pub(crate) accuracy: (f64, f64),
    /// True when this cell trips the quality gate.
    pub regressed: bool,
}

/// The comparison of two ledgers.
#[derive(Debug, Clone)]
pub struct LedgerDiff {
    /// Labels of the two runs (baseline, head).
    pub(crate) labels: (String, String),
    /// Per-stage latency deltas.
    pub stages: Vec<StageDelta>,
    /// Per-cell quality deltas.
    pub quality: Vec<QualityDelta>,
    /// Human-readable reasons the gate fired (empty = clean).
    pub regressions: Vec<String>,
    /// Advisory notes (fingerprint mismatch, missing stages, …) that do
    /// not gate.
    pub notes: Vec<String>,
}

impl LedgerDiff {
    /// True when no regression tripped the gate.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Render the delta table (stages, quality, notes, verdict).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== Ledger diff: {} -> {} ==\n\n",
            self.labels.0, self.labels.1
        ));
        if !self.stages.is_empty() {
            out.push_str(&format!(
                "{:<24} {:>9} {:>9} {:>8} {:>9} {:>9} {:>8}\n",
                "Stage", "p50 base", "p50 head", "Δp50", "p99 base", "p99 head", "Δp99"
            ));
            for s in &self.stages {
                out.push_str(&format!(
                    "{:<24} {:>9.3} {:>9.3} {:>7.1}% {:>9.3} {:>9.3} {:>7.1}%{}\n",
                    s.stage,
                    s.p50_ms.0,
                    s.p50_ms.1,
                    s.p50_rel * 100.0,
                    s.p99_ms.0,
                    s.p99_ms.1,
                    s.p99_rel * 100.0,
                    if s.regressed { "  << REGRESSED" } else { "" }
                ));
            }
            out.push('\n');
        }
        if !self.quality.is_empty() {
            out.push_str(&format!(
                "{:<12} {:<9} {:>15} {:>15} {:>15}\n",
                "Group", "Method", "IoU (b/h)", "Dice (b/h)", "Acc (b/h)"
            ));
            for q in &self.quality {
                out.push_str(&format!(
                    "{:<12} {:<9} {:>7.3}/{:<7.3} {:>7.3}/{:<7.3} {:>7.3}/{:<7.3}{}\n",
                    q.group,
                    q.method,
                    q.iou.0,
                    q.iou.1,
                    q.dice.0,
                    q.dice.1,
                    q.accuracy.0,
                    q.accuracy.1,
                    if q.regressed { "  << REGRESSED" } else { "" }
                ));
            }
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        if self.ok() {
            out.push_str("verdict: OK (no regression beyond thresholds)\n");
        } else {
            out.push_str("verdict: REGRESSED\n");
            for r in &self.regressions {
                out.push_str(&format!("  - {r}\n"));
            }
        }
        out
    }
}

fn rel_change(base: f64, head: f64) -> f64 {
    if base <= 0.0 {
        if head <= 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (head - base) / base
    }
}

/// Compare two ledgers: `base` is the reference (seed / previous run),
/// `head` the candidate. Stages, counters, and quality cells present in
/// only one ledger are noted but never gate — instrumentation grows
/// and shrinks across revisions (new `*.lat` stages, new serve/flight
/// counters), and a comparison must tolerate that skew rather than
/// fail on it.
pub fn diff(base: &Ledger, head: &Ledger, th: &DiffThresholds) -> LedgerDiff {
    let mut stages = Vec::new();
    let mut quality = Vec::new();
    let mut regressions = Vec::new();
    let mut notes = Vec::new();

    if base.config_fingerprint != head.config_fingerprint {
        notes.push(format!(
            "config fingerprints differ ({} vs {}): runs are not like-for-like",
            base.config_fingerprint, head.config_fingerprint
        ));
    }
    if base.dataset_seed != head.dataset_seed {
        notes.push(format!(
            "dataset seeds differ ({} vs {})",
            base.dataset_seed, head.dataset_seed
        ));
    }

    for b in &base.stages {
        let Some(h) = head.stage(&b.stage) else {
            notes.push(format!("stage {} missing from head ledger", b.stage));
            continue;
        };
        let p50_rel = rel_change(b.p50_ms, h.p50_ms);
        let p99_rel = rel_change(b.p99_ms, h.p99_ms);
        let gateable =
            b.count >= th.min_count && h.count >= th.min_count && b.p99_ms >= th.floor_ms;
        let p50_trip = gateable && p50_rel > th.max_p50_regress;
        let p99_trip = gateable && p99_rel > th.max_p99_regress;
        if p50_trip {
            regressions.push(format!(
                "{}: p50 {:.3} ms -> {:.3} ms (+{:.1}% > {:.0}%)",
                b.stage,
                b.p50_ms,
                h.p50_ms,
                p50_rel * 100.0,
                th.max_p50_regress * 100.0
            ));
        }
        if p99_trip {
            regressions.push(format!(
                "{}: p99 {:.3} ms -> {:.3} ms (+{:.1}% > {:.0}%)",
                b.stage,
                b.p99_ms,
                h.p99_ms,
                p99_rel * 100.0,
                th.max_p99_regress * 100.0
            ));
        }
        stages.push(StageDelta {
            stage: b.stage.clone(),
            p50_ms: (b.p50_ms, h.p50_ms),
            p99_ms: (b.p99_ms, h.p99_ms),
            p50_rel,
            p99_rel,
            regressed: p50_trip || p99_trip,
        });
    }
    for h in &head.stages {
        if base.stage(&h.stage).is_none() {
            notes.push(format!("stage {} new in head ledger", h.stage));
        }
    }

    // Counters never gate; one-sided ones are advisory only, so ledgers
    // from builds with different instrumentation still diff cleanly.
    for b in &base.counters {
        if !head.counters.iter().any(|h| h.name == b.name) {
            notes.push(format!("counter {} missing from head ledger", b.name));
        }
    }
    for h in &head.counters {
        if !base.counters.iter().any(|b| b.name == h.name) {
            notes.push(format!("counter {} new in head ledger", h.name));
        }
    }

    for bq in &base.quality {
        let Some(hq) = head
            .quality
            .iter()
            .find(|q| q.group == bq.group && q.method == bq.method)
        else {
            notes.push(format!(
                "quality cell {}/{} missing from head ledger",
                bq.group, bq.method
            ));
            continue;
        };
        let mut cell_regressed = false;
        for (metric, b, h) in [
            ("iou", bq.iou, hq.iou),
            ("dice", bq.dice, hq.dice),
            ("accuracy", bq.accuracy, hq.accuracy),
        ] {
            if b - h > th.max_quality_drop {
                cell_regressed = true;
                regressions.push(format!(
                    "{}/{}: {metric} {:.3} -> {:.3} (drop {:.3} > {:.3})",
                    bq.group,
                    bq.method,
                    b,
                    h,
                    b - h,
                    th.max_quality_drop
                ));
            }
        }
        quality.push(QualityDelta {
            group: bq.group.clone(),
            method: bq.method.clone(),
            iou: (bq.iou, hq.iou),
            dice: (bq.dice, hq.dice),
            accuracy: (bq.accuracy, hq.accuracy),
            regressed: cell_regressed,
        });
    }

    LedgerDiff {
        labels: (base.label.clone(), head.label.clone()),
        stages,
        quality,
        regressions,
        notes,
    }
}

/// Parse a percentage argument (`"20%"`, `"20"`, or `"0.2"` when < 1) to
/// a fraction. Used by the `zenesis-obs-diff` CLI.
pub fn parse_pct(s: &str) -> Result<f64, String> {
    let t = s.trim().trim_end_matches('%');
    let v: f64 = t.parse().map_err(|_| format!("not a percentage: {s:?}"))?;
    if v < 0.0 {
        return Err(format!("negative threshold: {s:?}"));
    }
    // "0.2" (fraction) and "20"/"20%" (percent) both mean 20 %.
    Ok(if s.contains('%') || v >= 1.0 {
        v / 100.0
    } else {
        v
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        assert_eq!(fingerprint(""), "cbf29ce484222325");
        assert_eq!(fingerprint("abc"), fingerprint("abc"));
        assert_ne!(fingerprint("abc"), fingerprint("abd"));
        assert_eq!(fingerprint("abc").len(), 16);
    }

    #[test]
    fn parse_pct_forms() {
        assert_eq!(parse_pct("20%").unwrap(), 0.20);
        assert_eq!(parse_pct("20").unwrap(), 0.20);
        assert_eq!(parse_pct("0.2").unwrap(), 0.2);
        assert_eq!(parse_pct("150%").unwrap(), 1.5);
        assert!(parse_pct("x").is_err());
        assert!(parse_pct("-5").is_err());
    }

    #[test]
    fn rel_change_edge_cases() {
        assert_eq!(rel_change(0.0, 0.0), 0.0);
        assert_eq!(rel_change(0.0, 1.0), f64::INFINITY);
        assert!((rel_change(2.0, 3.0) - 0.5).abs() < 1e-12);
        assert!((rel_change(4.0, 2.0) + 0.5).abs() < 1e-12);
    }
}
