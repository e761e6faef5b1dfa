//! Allocation budget of building a system: `System::new` for the paper's
//! 4-core BothCompression cell must make a small, fixed number of heap
//! allocations. The caches keep their tags in flat per-field arrays, so
//! the count does not grow with the set count; one allocation per set
//! (16,384 for the 4 MB compressed L2) would blow the budget at once.
//!
//! The counting allocator wraps the system allocator for this whole test
//! binary, which is why the file holds a single test: no other test can
//! allocate while the count is taken.

use cmpsim::{workload, System, SystemConfig, Variant};
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        SystemAlloc.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        SystemAlloc.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SystemAlloc.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        SystemAlloc.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Headroom over the ~120 allocations this cell makes; one allocation per
/// set would exceed 16,384.
const BUDGET: usize = 256;

#[test]
fn system_setup_makes_a_bounded_number_of_allocations() {
    let cfg = Variant::BothCompression.apply(SystemConfig::paper_default(4));
    let spec = workload("zeus").expect("known workload");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let sys = System::new(cfg, &spec);
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
    drop(sys);
    println!("System::new made {made} allocations");
    assert!(made <= BUDGET, "System::new made {made} allocations (budget {BUDGET})");
}
