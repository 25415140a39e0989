//! The span store is bounded: once it holds `RECORD_CAP` spans, each new
//! one drops the oldest and counts the drop. Kept in its own
//! integration-test binary (hence its own process) so the exact counts
//! below see no spans from other tests.

use zenesis_obs::{span, with_parent, ObsLevel, RECORD_CAP};

#[test]
fn span_store_keeps_the_newest_cap_and_counts_drops() {
    zenesis_obs::set_level(ObsLevel::Spans);
    zenesis_obs::reset();

    // A parent that closes first, so it is the oldest record and the
    // first to go once its children overflow the store.
    let parent = span("bounded.parent");
    let parent_id = parent.id();
    drop(parent);
    let overflow = 100;
    for _ in 0..RECORD_CAP + overflow {
        with_parent(parent_id, || drop(span("bounded.child")));
    }

    let spans = zenesis_obs::snapshot();
    assert_eq!(spans.len(), RECORD_CAP, "the store holds exactly the cap");
    assert!(spans.iter().all(|s| s.name == "bounded.child"));
    assert!(spans.iter().all(|s| s.parent == parent_id));
    // The newest spans are the ones kept: the last RECORD_CAP ids.
    let parent_raw = parent_id.expect("recording is on").0;
    let newest = parent_raw + (RECORD_CAP + overflow) as u64;
    let mut ids: Vec<u64> = spans.iter().map(|s| s.id.0).collect();
    ids.sort_unstable();
    let expect: Vec<u64> = (newest + 1 - RECORD_CAP as u64..=newest).collect();
    assert_eq!(ids, expect);

    // The parent and `overflow` children were dropped, and counted.
    let dropped = (overflow + 1) as u64;
    assert_eq!(zenesis_obs::counter("obs.spans.dropped").get(), dropped);
    assert!(zenesis_obs::prometheus_text()
        .contains(&format!("\nzenesis_obs_spans_dropped_total {dropped}\n")));

    // Exports still render children whose parent was evicted.
    let v: serde_json::Value = serde_json::from_str(&zenesis_obs::export::trace_json_string(false))
        .expect("trace JSON parses");
    let exported = v["spans"].as_array().expect("spans array");
    assert_eq!(exported.len(), RECORD_CAP);
    assert_eq!(exported[0]["parent"], parent_raw);

    zenesis_obs::reset();
    assert!(zenesis_obs::snapshot().is_empty());
    assert!(zenesis_obs::prometheus_text().contains("\nzenesis_obs_spans_dropped_total 0\n"));
}
