//! Live and peak heap bytes of the process.
//!
//! The `perf` binary installs a global allocator that forwards to the
//! system allocator and reports every size change here. Peak live heap is
//! the memory metric the benchmark gates on: the resident-set high-water
//! mark (`VmHWM`, see [`crate::rss`]) also counts memory glibc keeps in the
//! per-thread arenas of the library's worker threads, which made it swing
//! by a quarter between identical runs of the chaos workload, while the
//! bytes the program holds repeat within a percent.

use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// Both counters are statistics that publish no other data, so relaxed
// ordering is enough.

/// Records `bytes` newly allocated.
pub fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

/// Records `bytes` freed.
pub fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

/// Starts a new peak from the bytes live now, so transient set-up peaks
/// (buffers doubling towards a size not yet known) drop out while memory
/// the set-up keeps alive still counts.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// The most heap bytes live at once so far, or `None` when no allocator
/// reports here (the library linked into another binary).
#[must_use]
pub fn peak_bytes() -> Option<usize> {
    Some(PEAK.load(Ordering::Relaxed)).filter(|&b| b > 0)
}
