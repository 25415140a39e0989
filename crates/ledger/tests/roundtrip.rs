//! Ledger round-trip and regression-gate contract: identical ledgers
//! diff clean, a doctored +30% p99 trips the default 20% gate, and a
//! quality drop trips independently of any latency threshold.

use zenesis_ledger::{diff, DiffThresholds, Ledger, QualityStat, StageStat};

fn sample_ledger(label: &str) -> Ledger {
    Ledger {
        version: zenesis_ledger::SCHEMA_VERSION,
        label: label.to_string(),
        config_fingerprint: zenesis_ledger::fingerprint("cfg-v1"),
        dataset_seed: 2025,
        dataset_side: 128,
        wall_clock_s: 12.5,
        stages: vec![
            StageStat {
                stage: "pipeline.segment".into(),
                count: 40,
                p50_ms: 4.0,
                p90_ms: 6.0,
                p99_ms: 8.0,
                mean_ms: 4.4,
            },
            StageStat {
                stage: "sam.decode".into(),
                count: 40,
                p50_ms: 1.0,
                p90_ms: 1.5,
                p99_ms: 2.0,
                mean_ms: 1.1,
            },
        ],
        quality: vec![QualityStat {
            group: "Crystalline".into(),
            method: "Zenesis".into(),
            accuracy: 0.95,
            iou: 0.80,
            dice: 0.88,
            n_samples: 10,
        }],
        counters: vec![zenesis_ledger::CounterStat {
            name: "sam.embed_cache.hit".into(),
            value: 30,
        }],
    }
}

#[test]
fn json_round_trip_preserves_everything() {
    let l = sample_ledger("seed");
    let text = l.to_json();
    let back = Ledger::from_json(&text).expect("round-trips");
    assert_eq!(back, l);
}

#[test]
fn wrong_schema_version_is_rejected() {
    let mut l = sample_ledger("seed");
    l.version = 99;
    let err = Ledger::from_json(&l.to_json()).unwrap_err();
    assert!(err.contains("schema version 99"), "{err}");
}

#[test]
fn identical_ledgers_diff_clean() {
    let base = sample_ledger("base");
    let head = sample_ledger("head");
    let d = diff(&base, &head, &DiffThresholds::default());
    assert!(d.ok(), "identical ledgers must pass: {:?}", d.regressions);
    assert!(d.render().contains("verdict: OK"));
    assert_eq!(d.stages.len(), 2);
    assert!(d.stages.iter().all(|s| !s.regressed));
    assert!(d.quality.iter().all(|q| !q.regressed));
}

#[test]
fn thirty_percent_p99_trips_default_gate() {
    let base = sample_ledger("base");
    let mut head = sample_ledger("head");
    head.stages[0].p99_ms *= 1.30; // +30% > default 20%
    let d = diff(&base, &head, &DiffThresholds::default());
    assert!(!d.ok(), "+30% p99 must trip the 20% gate");
    assert!(
        d.regressions
            .iter()
            .any(|r| r.contains("pipeline.segment") && r.contains("p99")),
        "regression names the stage and percentile: {:?}",
        d.regressions
    );
    assert!(d.render().contains("REGRESSED"));

    // The same doctored ledger passes a looser 50% threshold.
    let loose = DiffThresholds {
        max_p99_regress: 0.50,
        ..DiffThresholds::default()
    };
    assert!(diff(&base, &head, &loose).ok());
}

#[test]
fn quality_drop_trips_independently_of_latency() {
    let base = sample_ledger("base");
    let mut head = sample_ledger("head");
    head.quality[0].iou -= 0.05; // > default 0.02 absolute drop
    let th = DiffThresholds {
        // Latency gate effectively disabled: only quality can fire.
        max_p50_regress: 1e9,
        max_p99_regress: 1e9,
        ..DiffThresholds::default()
    };
    let d = diff(&base, &head, &th);
    assert!(!d.ok(), "IoU drop must trip the quality gate");
    assert!(
        d.regressions.iter().any(|r| r.contains("iou")),
        "{:?}",
        d.regressions
    );
    assert!(d.quality[0].regressed);

    // An IoU *improvement* never trips.
    let mut better = sample_ledger("head");
    better.quality[0].iou += 0.05;
    assert!(diff(&base, &better, &th).ok());
}

#[test]
fn tiny_samples_and_micro_stages_never_gate() {
    let mut base = sample_ledger("base");
    let mut head = sample_ledger("head");
    // Stage with 2 samples under min_count=3: huge regression ignored.
    base.stages[0].count = 2;
    head.stages[0].count = 2;
    head.stages[0].p99_ms *= 10.0;
    // Micro-stage below floor_ms: ignored too.
    base.stages[1].p99_ms = 0.01;
    head.stages[1].p99_ms = 0.04;
    let d = diff(&base, &head, &DiffThresholds::default());
    assert!(d.ok(), "noise guards must hold: {:?}", d.regressions);
}

#[test]
fn fingerprint_mismatch_is_a_note_not_a_regression() {
    let base = sample_ledger("base");
    let mut head = sample_ledger("head");
    head.config_fingerprint = zenesis_ledger::fingerprint("cfg-v2");
    let d = diff(&base, &head, &DiffThresholds::default());
    assert!(d.ok());
    assert!(d.notes.iter().any(|n| n.contains("fingerprints differ")));
    assert!(d.render().contains("not like-for-like"));
}

#[test]
fn capture_reads_obs_registries() {
    // Serialized against other obs-touching tests by being in its own
    // process (integration test binary); just verify shape.
    zenesis_obs::set_level(zenesis_obs::ObsLevel::Full);
    zenesis_obs::reset();
    zenesis_obs::counter("ledger.test.counter").add(7);
    zenesis_obs::record_ms("ledger.stage.lat", 5.0);
    zenesis_obs::record_ms("ledger.stage.lat", 6.0);

    let l = Ledger::capture(
        "t",
        &zenesis_ledger::fingerprint("cfg"),
        1,
        64,
        0.5,
        Vec::new(),
    );
    assert_eq!(l.version, zenesis_ledger::SCHEMA_VERSION);
    assert!(
        l.counters
            .iter()
            .any(|c| c.name == "ledger.test.counter" && c.value == 7),
        "{:?}",
        l.counters
    );
    let stage = l
        .stages
        .iter()
        .find(|s| s.stage == "ledger.stage")
        .expect("histogram surfaced as stage row");
    assert_eq!(stage.count, 2);
    assert!(stage.p50_ms > 0.0);

    zenesis_obs::reset();
    zenesis_obs::set_level(zenesis_obs::ObsLevel::Off);
}

#[test]
fn one_sided_stages_and_counters_warn_but_never_gate() {
    // Instrumentation skew across builds: the head ledger grew new
    // serve/tiff stages and counters and lost an old one. That must
    // surface as advisory notes only — never a regression.
    let base = sample_ledger("base");
    let mut head = sample_ledger("head");
    head.stages.push(StageStat {
        stage: "io.tiff.read_slice".into(),
        count: 200,
        p50_ms: 0.8,
        p90_ms: 1.2,
        p99_ms: 2.5,
        mean_ms: 0.9,
    });
    head.counters.push(zenesis_ledger::CounterStat {
        name: "serve.flight.dump".into(),
        value: 1,
    });
    head.counters.retain(|c| c.name != "sam.embed_cache.hit");
    base.stages
        .iter()
        .for_each(|s| assert!(head.stage(&s.stage).is_some()));

    let d = diff(&base, &head, &DiffThresholds::default());
    assert!(
        d.ok(),
        "one-sided entries must not gate: {:?}",
        d.regressions
    );
    let notes = d.notes.join("\n");
    assert!(
        notes.contains("stage io.tiff.read_slice new in head ledger"),
        "{notes}"
    );
    assert!(
        notes.contains("counter serve.flight.dump new in head ledger"),
        "{notes}"
    );
    assert!(
        notes.contains("counter sam.embed_cache.hit missing from head ledger"),
        "{notes}"
    );
    // And the reverse direction: a stage only in base is also a note.
    let d = diff(&head, &base, &DiffThresholds::default());
    assert!(d.ok());
    assert!(d
        .notes
        .iter()
        .any(|n| n.contains("stage io.tiff.read_slice missing from head ledger")));
}
