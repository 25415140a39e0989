//! Behaviour with observability off — kept in its own integration-test
//! binary (hence its own process) so no other test can flip the global
//! level underneath it.

use zenesis_obs::{ObsLevel, SpanGuard};

#[test]
fn off_level_records_nothing_but_timed_still_measures() {
    zenesis_obs::set_level(ObsLevel::Off);
    assert!(!zenesis_obs::enabled());
    assert!(!zenesis_obs::full());

    let g: SpanGuard = zenesis_obs::span("off.never");
    assert_eq!(g.id(), None, "span guard must be inert when off");
    drop(g);
    assert_eq!(zenesis_obs::current(), None);

    let (v, ms) = zenesis_obs::timed("off.timed", || {
        std::thread::sleep(std::time::Duration::from_millis(2));
        11
    });
    assert_eq!(v, 11);
    assert!(
        ms >= 1.0,
        "timed must return wall ms even when off, got {ms}"
    );

    zenesis_obs::with_parent(None, || {
        let _inner = zenesis_obs::span("off.inner");
    });

    zenesis_obs::record_ms("off.stage.lat", 3.5);

    assert!(
        zenesis_obs::snapshot().is_empty(),
        "no spans may be recorded"
    );
    let m = zenesis_obs::metrics_snapshot();
    assert!(
        m.histograms.is_empty(),
        "timed at off level must not create histograms"
    );
    assert!(zenesis_obs::latency_rows().is_empty());
}
