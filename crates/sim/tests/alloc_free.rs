//! The zero-allocation contract of the steady-state tick (DESIGN.md §12):
//! once the world's kernel and buffers have warmed up, `World::step` —
//! mobility, the kernel's frame rebuild and sweep or link schedule, diff,
//! HELLO accounting — performs no heap allocation at all, whatever context
//! each tick comes through. Measured with a counting global allocator
//! wrapped around the system one.
//!
//! The allocator counts per thread and every measured tick runs on the
//! test thread, so allocations on other threads (another test, or the
//! harness printing a slow-test notice) do not enter the count.

use manet_geom::{Metric, SpatialGrid, SquareRegion, Vec2};
use manet_sim::{GridTopology, MobilityStage, QuietCtx, SimBuilder, Topology, TopologyBuilder};
use manet_telemetry::Probe;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. Counted per thread so that the
    /// test harness's own threads (its slow-test notice, say) cannot
    /// touch the count of the test thread, where every measured tick
    /// runs. `const`-initialized with no destructor, so bumping it never
    /// allocates and works at any point of a thread's life.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: delegates verbatim to the system allocator; the counter is a
// plain increment of a thread-local cell with no other side effect, and
// `try_with` cannot panic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
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
        .build();
    let mut quiet = QuietCtx::new();
    // Warm up every capacity the hot loop touches: the kernel's frame, the
    // double-buffered spare topology, per-node neighbor lists, and the
    // link-event vector.
    for _ in 0..1000 {
        world.step(&mut quiet.ctx());
    }
    let before = allocs();
    for _ in 0..100 {
        world.step(&mut quiet.ctx());
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state World::step must not allocate (got {} allocations over 100 ticks)",
        after - before
    );
}

/// `World::step`'s builder, watched: notes whether its output carried the
/// kernel's link events from `from`, the world's topology before the tick
/// (exactly the ticks on which the world skips its row diff).
struct Watched {
    from: u64,
    kernel_events: bool,
}

impl MobilityStage for Watched {}

impl TopologyBuilder for Watched {
    fn build_into(
        &mut self,
        positions: &[Vec2],
        region: SquareRegion,
        radius: f64,
        metric: Metric,
        grid: &mut Option<SpatialGrid>,
        out: &mut Topology,
        probe: &mut Probe<'_>,
        now: f64,
    ) {
        GridTopology.build_into(positions, region, radius, metric, grid, out, probe, now);
        self.kernel_events = out.events_since(self.from).is_some();
    }
}

/// The world owns its kernel: stepped on a `QuietCtx` minted fresh every
/// tick, a paper-400 world takes its kernel's flips from the third tick
/// on, they equal the row diff, and after the warm-up a window of such
/// ticks allocates nothing.
#[test]
fn fresh_context_every_tick_keeps_the_kernel() {
    let mut world = SimBuilder::new().nodes(400).dt(0.25).seed(1).build();
    let mut watched = Watched {
        from: 0,
        kernel_events: false,
    };
    let mut diff = Vec::new();
    for tick in 0..400 {
        let prev = world.topology().clone();
        watched.from = prev.stamp();
        world.step_staged(&mut QuietCtx::new().ctx(), &mut watched);
        assert_eq!(watched.kernel_events, tick >= 2, "tick {tick}");
        diff.clear();
        prev.diff_into(world.topology(), &mut diff);
        let events = world.topology().events_since(prev.stamp());
        assert_eq!(events, Some(&diff[..]), "tick {tick}");
    }
    let before = allocs();
    for tick in 400..500 {
        watched.from = world.topology().stamp();
        world.step_staged(&mut QuietCtx::new().ctx(), &mut watched);
        assert!(watched.kernel_events, "tick {tick}");
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "100 ticks on fresh contexts made {} allocations",
        after - before
    );
}
