//! Counted allocation budget of the slice path at the served size (256²).
//!
//! A counting global allocator tallies, per thread, the allocations of
//! 64 KiB or more: at 256² that is every full-raster buffer (a 256² `f32`
//! plane is 256 KiB) and nothing a row scratch or a small table needs.
//! Each budget is measured at one thread after one warm-up call, so the
//! whole call runs on the test thread and the count is exact on any
//! host. The counts are pinned: a change that adds a full-raster
//! temporary to grounding's feature pyramid, the SAM encode or a whole
//! `segment_slice` fails here and has to move the pin on purpose.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use zenesis_core::{Zenesis, ZenesisConfig};
use zenesis_data::{generate_slice, PhantomConfig, SampleKind};
use zenesis_ground::{DinoConfig, FeatureGrid};
use zenesis_image::Image;
use zenesis_sam::{Sam, SamConfig};

/// Smallest allocation the budget counts.
const LARGE: usize = 64 * 1024;

thread_local! {
    /// Large allocations made by this thread while counting is on, or
    /// `None` while it is off.
    static LARGE_ALLOCS: Cell<Option<usize>> = const { Cell::new(None) };
}

struct Counting;

impl Counting {
    fn note(size: usize) {
        if size >= LARGE {
            // `try_with`: the allocator also runs while thread-locals are
            // being torn down.
            let _ = LARGE_ALLOCS.try_with(|c| c.set(c.get().map(|n| n + 1)));
        }
    }
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            Self::note(new_size);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Large allocations made by one call of `f` on this thread, after one
/// uncounted warm-up call.
fn large_allocs<R>(f: impl Fn() -> R) -> usize {
    drop(f());
    LARGE_ALLOCS.with(|c| c.set(Some(0)));
    drop(f());
    LARGE_ALLOCS
        .with(|c| c.replace(None))
        .expect("counting was on")
}

fn slice_256() -> (Image<u16>, Image<f32>) {
    let raw =
        generate_slice(&PhantomConfig::new(SampleKind::Crystalline, 9).with_size(256, 256)).raw;
    let adapted = Zenesis::new(ZenesisConfig::default()).adapt(&raw).0;
    (raw, adapted)
}

#[test]
fn slice_path_large_allocation_budget() {
    let _threads = zenesis_par::ThreadsGuard::new(1);
    let (raw, adapted) = slice_256();
    let dino = DinoConfig::default();
    let features =
        large_allocs(|| FeatureGrid::compute_at_scale(&adapted, dino.patch, dino.feature_sigma));
    let sam = Sam::new(SamConfig::default());
    let encode = large_allocs(|| sam.encode(&adapted));
    let pipeline = Zenesis::new(ZenesisConfig::default());
    let segment = large_allocs(|| pipeline.segment_slice(&raw, "needle-like crystalline catalyst"));
    // Feature pyramid: the feature-scale blur (2 rasters), `local_std`
    // (2), gradient magnitude (1), coherence (2). The encode: its blur
    // (2), gradient magnitude (1), `local_std` (2). `segment_slice`
    // computes the blur and its gradient magnitude once for both (the
    // sigmas match), so its count is 3 below the two standalone calls'
    // sum plus the rest of the slice. Of its rasters two outlive the
    // call: the adapted image and the relevance map the result keeps.
    assert_eq!(
        (features, encode, segment),
        (7, 5, 20),
        "large (>= 64 KiB) allocations: FeatureGrid::compute_at_scale, Sam::encode, segment_slice"
    );
}
