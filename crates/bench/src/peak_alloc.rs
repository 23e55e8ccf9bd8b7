//! A counting global allocator: peak tracking for the memory comparison of
//! Appendix B.2 (Table 7), plus an allocation-event counter used to prove
//! the branch kernel's steady-state loop is allocation-free
//! (`tests/alloc_free.rs`).
//!
//! The byte gauges are process-wide; the event counter is per thread, so a
//! measured region counts only its own thread's allocations, however many
//! other threads (a parallel test harness, say) allocate meanwhile.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static ALLOC_CALLS: Cell<usize> = const { Cell::new(0) };
}

/// Counts one allocation event on the calling thread. `try_with`, because
/// the allocator also runs while a thread's locals are being torn down.
fn count_alloc_call() {
    let _ = ALLOC_CALLS.try_with(|n| n.set(n.get() + 1));
}

/// Wraps the system allocator, tracking live bytes, the high-water mark,
/// and the number of allocation events (alloc + growing realloc) per
/// thread.
pub struct PeakAlloc;

// SAFETY: delegates to `System` for all allocation; only adds counters.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count_alloc_call();
            // ordering: RMW coherence keeps the byte count itself exact.
            let cur = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            // ordering: cross-thread high-water mark is approximate by design.
            PEAK.fetch_max(cur, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        // ordering: RMW coherence keeps the byte count itself exact.
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                count_alloc_call();
                // ordering: RMW coherence keeps the byte count itself exact.
                let cur = CURRENT.fetch_add(new_size - layout.size(), Ordering::Relaxed) + new_size
                    - layout.size();
                // ordering: cross-thread high-water mark is approximate by design.
                PEAK.fetch_max(cur, Ordering::Relaxed);
            } else {
                // ordering: RMW coherence keeps the byte count itself exact.
                CURRENT.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

impl PeakAlloc {
    /// Bytes currently allocated.
    pub fn current_bytes() -> usize {
        // ordering: point-in-time gauge; callers quiesce before reading.
        CURRENT.load(Ordering::Relaxed)
    }

    /// High-water mark since the last [`PeakAlloc::reset_peak`].
    pub fn peak_bytes() -> usize {
        // ordering: point-in-time gauge; callers quiesce before reading.
        PEAK.load(Ordering::Relaxed)
    }

    /// Restarts peak tracking from the current live set.
    pub fn reset_peak() {
        // ordering: gauges; reset races with live allocations by design.
        PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Allocation events (alloc + growing realloc) made by the calling
    /// thread since it started. Diff two readings on one thread to count
    /// the allocations of a code region.
    pub fn alloc_calls() -> usize {
        ALLOC_CALLS.try_with(Cell::get).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Note: the test binary does not install PeakAlloc as the global
    // allocator, so the counters only move if it is installed. These tests
    // exercise the API surface directly through GlobalAlloc.
    #[test]
    fn alloc_dealloc_counters_balance() {
        let a = PeakAlloc;
        let layout = Layout::from_size_align(4096, 8).unwrap();
        let before = PeakAlloc::current_bytes();
        PeakAlloc::reset_peak();
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            assert!(PeakAlloc::current_bytes() >= before + 4096);
            assert!(PeakAlloc::peak_bytes() >= before + 4096);
            a.dealloc(p, layout);
        }
        assert_eq!(PeakAlloc::current_bytes(), before);
    }

    #[test]
    fn realloc_tracks_growth() {
        let a = PeakAlloc;
        let layout = Layout::from_size_align(1024, 8).unwrap();
        PeakAlloc::reset_peak();
        unsafe {
            let p = a.alloc(layout);
            let p2 = a.realloc(p, layout, 8192);
            assert!(!p2.is_null());
            let grown = Layout::from_size_align(8192, 8).unwrap();
            a.dealloc(p2, grown);
        }
        assert!(PeakAlloc::peak_bytes() >= 8192);
    }
}
