//! The parallel runtime must carry span parenthood across thread
//! boundaries: a span opened inside a `join` branch or a data-parallel
//! closure attributes to the span that was open on the calling thread —
//! and, helpers being resident, to nothing once that call has returned.
//! Tests filter snapshots by their own root span id, so they are immune
//! to spans recorded by other tests in this process.

use zenesis_obs::{ObsLevel, SpanId, SpanRecord};
use zenesis_par::ThreadsGuard;

fn ensure_spans() {
    zenesis_obs::set_level(ObsLevel::Spans);
}

fn children_of(root: SpanId) -> Vec<SpanRecord> {
    zenesis_obs::snapshot()
        .into_iter()
        .filter(|s| s.parent == Some(root))
        .collect()
}

#[test]
fn helpers_drop_the_callers_span_when_the_call_returns() {
    ensure_spans();
    let _g = ThreadsGuard::new(4);
    let root_id;
    {
        let root = zenesis_obs::span("hygiene.test.root");
        root_id = root.id().expect("recording on");
        zenesis_par::par_map_range(64, |_| {
            let _s = zenesis_obs::span("hygiene.test.under_root");
        });
    }
    // No span is open now: whichever thread runs an item, caller or
    // helper, must record it as a root, not under the finished call.
    zenesis_par::par_map_range(64, |_| {
        let _s = zenesis_obs::span("hygiene.test.after");
    });
    let kids = children_of(root_id);
    assert_eq!(kids.len(), 64);
    assert!(kids.iter().all(|k| k.name == "hygiene.test.under_root"));
    let after: Vec<SpanRecord> = zenesis_obs::snapshot()
        .into_iter()
        .filter(|s| s.name == "hygiene.test.after")
        .collect();
    assert_eq!(after.len(), 64);
    assert!(
        after.iter().all(|s| s.parent.is_none()),
        "stale parent on a helper"
    );
}

#[test]
fn join_attributes_both_branches() {
    ensure_spans();
    let root_id;
    {
        let root = zenesis_obs::span("join.test.root");
        root_id = root.id().expect("recording on");
        let (a, b) = zenesis_par::join(
            || {
                let _s = zenesis_obs::span("join.test.left");
                1
            },
            || {
                let _s = zenesis_obs::span("join.test.right");
                2
            },
        );
        assert_eq!((a, b), (1, 2));
    }
    let names: Vec<String> = children_of(root_id)
        .iter()
        .map(|s| s.name.to_string())
        .collect();
    assert!(names.contains(&"join.test.left".to_string()), "{names:?}");
    assert!(names.contains(&"join.test.right".to_string()), "{names:?}");
}

#[test]
fn par_map_range_attributes_every_chunk() {
    ensure_spans();
    let root_id;
    let out;
    {
        let root = zenesis_obs::span("pmr.test.root");
        root_id = root.id().expect("recording on");
        out = zenesis_par::par_map_range(64, |i| {
            let _s = zenesis_obs::span("pmr.test.item");
            i * 2
        });
    }
    assert_eq!(out.len(), 64);
    assert!(out.iter().enumerate().all(|(i, v)| *v == i * 2));
    let kids = children_of(root_id);
    assert_eq!(
        kids.len(),
        64,
        "all 64 item spans must attach to the root regardless of which \
         worker ran them"
    );
    assert!(kids.iter().all(|k| k.name == "pmr.test.item"));
}

#[test]
fn full_level_chunk_metrics_are_recorded() {
    ensure_spans();
    let _g = ThreadsGuard::new(2);
    let count = |n: &str| {
        zenesis_obs::metrics_snapshot()
            .histograms
            .iter()
            .find(|(k, _)| k == n)
            .map_or(0, |(_, s)| s.count)
    };
    let (items, chunks) = (count("par.chunk.items"), count("par.chunk.count"));
    zenesis_obs::set_level(ObsLevel::Full);
    zenesis_par::par_map_range(64, |i| i);
    zenesis_obs::set_level(ObsLevel::Spans);
    assert!(count("par.chunk.items") > items);
    assert!(count("par.chunk.count") > chunks);
}
