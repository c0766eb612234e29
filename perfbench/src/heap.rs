//! The system allocator with a live/peak byte count, for
//! `peak_heap_mb`.
//!
//! Peak resident set (`VmHWM`) was not usable as a regression metric
//! on the fault campaign. The same build read 11.9 MB in one period and
//! 15.9 MB in the next, one 4 MiB memory image apart, with nothing
//! changed but timing. Every campaign spawns a worker thread, and
//! whether the allocator gives it recycled memory (which a zeroed
//! allocation must then write, making it resident) or fresh pages
//! plausibly depends on whether the previous worker had finished
//! exiting. Live heap bytes do not depend on where the allocator places
//! blocks, and repeat exactly for the same work. Every call still goes
//! to the system allocator, zeroed allocations included.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// [`System`], counting bytes.
pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// Both counters are statistics that publish no other data, so relaxed
// ordering suffices; every update is a single atomic read-modify-write.
fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System` upholds the `GlobalAlloc` contract; the
// counting around the calls touches only the two atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller guarantees `layout`
        // has non-zero size.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr` and `layout` as for
        // `dealloc`, and a valid non-zero `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// Highest number of heap bytes live at once since the process
/// started, in MB.
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_covers_a_large_allocation() {
        let before = PEAK.load(Ordering::Relaxed);
        let big = vec![0u8; 64 << 20];
        assert!(PEAK.load(Ordering::Relaxed) >= big.len());
        assert!(peak_mb() >= 64.0 && PEAK.load(Ordering::Relaxed) >= before);
        drop(big);
    }
}
