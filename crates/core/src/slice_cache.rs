//! A small content-keyed cache of [`Prepared`] slices, shared by the
//! requests a [`crate::job::JobEngine`] runs.
//!
//! * **Key.** The raw slice as loaded, `Image<f32>`: two slices are the
//!   same when their dimensions and every pixel's bit pattern are equal
//!   ([`Image::same_bits`]), found by a linear scan. Content, not a path
//!   and a modification time, so a file rewritten in place is never
//!   served stale. The key is moved into its entry, not copied.
//! * **Entry.** The key plus a `OnceLock<Arc<Prepared>>`. The lock gives
//!   single-flight: concurrent misses on one slice compute it once, the
//!   others wait for that result. A panic while preparing leaves the cell
//!   empty, so the next request on the slice computes it again.
//! * **Capacity.** A number of entries, least recently used out first,
//!   and at most [`MAX_RESIDENT_BYTES`] held in total: after each miss,
//!   the least recently used entries leave until the rest fit. A slice
//!   whose entry alone exceeds the ceiling is prepared, served and
//!   dropped without pushing out the others. An entry that is evicted
//!   while still being prepared finishes for the requests holding it.
//!
//! With observability on, lookups count as `core.slice_cache.hit`,
//! `.miss` or `.wait`, and `core.slice_cache.resident_bytes` gauges what
//! the entries hold after each miss.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use zenesis_image::Image;

use crate::pipeline::Prepared;

/// Ceiling on [`SliceCache::resident_bytes`] after a miss. An entry
/// holds 18 bytes per pixel (1 152 KiB at 256²), so this keeps 28
/// slices of 256² — more than a server's `workers + 1` entries at any
/// default worker count — and no single slice above about 1360².
pub const MAX_RESIDENT_BYTES: usize = 32 << 20;

/// How [`SliceCache::get_or_prepare`] served a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The slice was already prepared.
    Hit,
    /// This call prepared it.
    Miss,
    /// Another call was preparing it; this one waited for the result.
    Wait,
}

impl Lookup {
    fn counter(self) -> &'static str {
        match self {
            Lookup::Hit => "core.slice_cache.hit",
            Lookup::Miss => "core.slice_cache.miss",
            Lookup::Wait => "core.slice_cache.wait",
        }
    }
}

struct Entry {
    key: Image<f32>,
    prepared: OnceLock<Arc<Prepared>>,
}

impl Entry {
    fn heap_bytes(&self) -> usize {
        self.key.len() * std::mem::size_of::<f32>()
            + self.prepared.get().map_or(0, |p| p.heap_bytes())
    }
}

/// See the module documentation.
pub struct SliceCache {
    capacity: usize,
    max_bytes: usize,
    /// Least recently used first.
    entries: Mutex<Vec<Arc<Entry>>>,
}

impl SliceCache {
    /// An empty cache of `capacity` entries (at least one) holding at
    /// most [`MAX_RESIDENT_BYTES`].
    pub fn new(capacity: usize) -> SliceCache {
        SliceCache {
            capacity: capacity.max(1),
            max_bytes: MAX_RESIDENT_BYTES,
            entries: Mutex::new(Vec::new()),
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when no entry is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes the entries hold: keys plus prepared slices.
    pub fn resident_bytes(&self) -> usize {
        self.lock().iter().map(|e| e.heap_bytes()).sum()
    }

    /// The prepared form of `raw`: cached, awaited from a concurrent
    /// call, or computed here with `prepare`.
    pub fn get_or_prepare(
        &self,
        raw: Image<f32>,
        prepare: impl FnOnce(&Image<f32>) -> Prepared,
    ) -> (Arc<Prepared>, Lookup) {
        let entry = {
            let mut entries = self.lock();
            let entry = match entries.iter().position(|e| e.key.same_bits(&raw)) {
                Some(at) => entries.remove(at),
                None => {
                    if entries.len() == self.capacity {
                        entries.remove(0);
                    }
                    Arc::new(Entry {
                        key: raw,
                        prepared: OnceLock::new(),
                    })
                }
            };
            entries.push(Arc::clone(&entry));
            entry
        };
        let (prepared, lookup) = match entry.prepared.get() {
            Some(p) => (p, Lookup::Hit),
            None => {
                let mut ran = false;
                let p = entry.prepared.get_or_init(|| {
                    ran = true;
                    Arc::new(prepare(&entry.key))
                });
                (p, if ran { Lookup::Miss } else { Lookup::Wait })
            }
        };
        if lookup == Lookup::Miss {
            self.trim(&entry);
        }
        if zenesis_obs::enabled() {
            zenesis_obs::counter(lookup.counter()).inc();
            if lookup == Lookup::Miss {
                zenesis_obs::gauge("core.slice_cache.resident_bytes")
                    .set(self.resident_bytes() as i64);
            }
        }
        (Arc::clone(prepared), lookup)
    }

    /// Bring the entries back under the byte ceiling after `fresh` was
    /// prepared: `fresh` leaves first if it alone exceeds the ceiling,
    /// then the least recently used entries until the rest fit.
    fn trim(&self, fresh: &Arc<Entry>) {
        let mut entries = self.lock();
        if fresh.heap_bytes() > self.max_bytes {
            entries.retain(|e| !Arc::ptr_eq(e, fresh));
        }
        let mut total: usize = entries.iter().map(|e| e.heap_bytes()).sum();
        while total > self.max_bytes {
            total -= entries.remove(0).heap_bytes();
        }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<Arc<Entry>>> {
        // Nothing panics while the list is locked; recover regardless.
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Zenesis, ZenesisConfig};
    use zenesis_data::{generate_slice, PhantomConfig, SampleKind};

    fn slice(seed: u64, side: usize) -> Image<f32> {
        generate_slice(&PhantomConfig::new(SampleKind::Amorphous, seed).with_size(side, side))
            .raw
            .to_f32()
    }

    #[test]
    fn a_large_slice_leaves_resident_bytes_bounded() {
        let z = Zenesis::new(ZenesisConfig::default());
        let small = 16 * 16 * 4 + z.prepare(&slice(0, 16)).heap_bytes();
        // Room for three small entries, though the count would allow eight.
        let mut cache = SliceCache::new(8);
        cache.max_bytes = 3 * small;
        for seed in 0..5 {
            cache.get_or_prepare(slice(seed, 16), |raw| z.prepare(raw));
            assert!(cache.resident_bytes() <= cache.max_bytes, "seed {seed}");
        }
        assert_eq!(cache.len(), 3);
        // A slice whose entry alone exceeds the ceiling is served, not
        // kept, and the small entries stay.
        for _ in 0..2 {
            let (p, lookup) = cache.get_or_prepare(slice(9, 64), |raw| z.prepare(raw));
            assert_eq!((p.dims(), lookup), ((64, 64), Lookup::Miss));
            assert_eq!(cache.len(), 3);
            assert_eq!(cache.resident_bytes(), 3 * small);
        }
        let (_, lookup) = cache.get_or_prepare(slice(4, 16), |_| unreachable!("still cached"));
        assert_eq!(lookup, Lookup::Hit);
        // The default ceiling keeps a server's `workers + 1` entries of
        // the served benchmark's 256² slices at every default worker
        // count (at most eight workers).
        let at_256 = 256 * 256 * 4 + z.prepare(&slice(0, 256)).heap_bytes();
        assert!(9 * at_256 <= MAX_RESIDENT_BYTES, "{at_256} bytes per entry");
    }
}
