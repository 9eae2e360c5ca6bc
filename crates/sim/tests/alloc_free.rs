//! The zero-allocation contract of the steady-state tick (DESIGN.md §12):
//! once the scratch buffers have warmed up, `World::step` — mobility,
//! the kernel's frame rebuild and sweep, diff, HELLO accounting —
//! performs no heap allocation at all. Measured with a counting global
//! allocator wrapped around the system one.
//!
//! This file holds exactly one test so no concurrent test case can
//! allocate while the steady-state window is being counted.

use manet_sim::{HelloMode, QuietCtx, SimBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to the system allocator; the counter is a
// relaxed atomic increment with no other side effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_world_step_is_allocation_free() {
    let mut world = SimBuilder::new()
        .nodes(400)
        .side(1000.0)
        .radius(150.0)
        .speed(10.0)
        .dt(0.5)
        .seed(1)
        .hello_mode(HelloMode::EventDriven)
        .build();
    let mut quiet = QuietCtx::new();
    // Warm up every capacity the hot loop touches: the kernel's frame, the
    // double-buffered spare topology, per-node neighbor lists, and the
    // link-event vector.
    for _ in 0..1000 {
        world.step(&mut quiet.ctx());
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..100 {
        world.step(&mut quiet.ctx());
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state World::step must not allocate (got {} allocations over 100 ticks)",
        after - before
    );
}
