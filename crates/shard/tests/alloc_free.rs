//! The zero-allocation contract of the steady-state *sharded* topology
//! step, the sharded twin of `manet-sim`'s `alloc_free` test: once every
//! shard's buffers have warmed up — frame point/id vectors, ghost
//! margins, per-shard `FrameGrid` CSR arrays, neighbor rows, and the
//! owner-migration scratch — a full `World::step_staged` on the
//! [`ShardPlane`] (mobility, owner exchange + ghost replication,
//! per-shard topology, deterministic merge, diff, HELLO accounting)
//! performs no heap allocation at all. Measured with a counting global
//! allocator wrapped around the system one, at `workers = 1` so the
//! count excludes thread spawning (the topology compute's scoped pool
//! allocates per spawn by construction; its *results* are pinned
//! identical by the plane's worker-count tests). The cluster and route
//! layers above are pinned by `manet-stack`'s `alloc_free` test.
//!
//! The allocator counts per thread and every measured tick runs on the
//! test thread, so allocations on other threads (another test, or the
//! harness printing a slow-test notice) do not enter the count. It also
//! tracks the test thread's live heap bytes, which pin the footprint of a
//! warmed multi-shard world per link.

use manet_geom::ShardDims;
use manet_shard::ShardPlane;
use manet_sim::{QuietCtx, SimBuilder};
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
    /// Bytes this thread allocated minus bytes it freed (negative when it
    /// frees memory another thread allocated).
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

/// Adds `delta` to this thread's live bytes.
fn charge(delta: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + delta));
}

// SAFETY: delegates verbatim to the system allocator; the counters are
// plain updates of thread-local cells with no other side effect, and
// `try_with` cannot panic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        charge(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        charge(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        charge(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_sharded_step_is_allocation_free() {
    let mut world = SimBuilder::new()
        .nodes(400)
        .side(1000.0)
        .radius(150.0)
        .speed(10.0)
        .dt(0.5)
        .seed(1)
        .build();
    let mut plane = ShardPlane::for_world(&world, ShardDims::parse("2x2").unwrap())
        .unwrap()
        .with_workers(1);
    let mut quiet = QuietCtx::new();
    // Warm up every capacity the hot loop touches; node migration keeps
    // reshaping per-shard populations, so give the frame buffers, ghost
    // margins, and neighbor rows long enough to reach their high-water
    // marks.
    for _ in 0..1000 {
        world.step_staged(&mut quiet.ctx(), &mut plane);
    }
    let before = allocs();
    for _ in 0..100 {
        world.step_staged(&mut quiet.ctx(), &mut plane);
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state sharded World::step must not allocate (got {} allocations over 100 ticks)",
        after - before
    );

    // The N=100k regression pin: at 100k nodes the 1x1 path used to keep
    // reallocating per-shard scratch deep into the run because the
    // plane's buffers started empty and grew tick by tick.
    // `ShardPlane::for_world` now pre-sizes every per-shard capacity from
    // the population, so even at 100k nodes a short warmup reaches the
    // high-water marks and the steady state is allocation-free. Same
    // geometry as the benchmark's scale-100k workload (the paper's
    // density, radius 150).
    let nodes = 100_000usize;
    let side = (nodes as f64 / (400.0 / 1e6)).sqrt();
    let mut world = SimBuilder::new()
        .nodes(nodes)
        .side(side)
        .radius(150.0)
        .speed(10.0)
        .dt(0.5)
        .seed(7)
        .build();
    let mut plane = ShardPlane::for_world(&world, ShardDims::parse("1x1").unwrap())
        .unwrap()
        .with_workers(1);
    for _ in 0..12 {
        world.step_staged(&mut quiet.ctx(), &mut plane);
    }
    let before = allocs();
    for _ in 0..25 {
        world.step_staged(&mut quiet.ctx(), &mut plane);
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state 1x1 World::step at N=100k must not allocate (got {} over 25 ticks)",
        after - before
    );
}

/// The footprint of a warmed multi-shard world: everything the test thread
/// holds for a world on a 2x2 plane at the paper's density (the mobility
/// state, both topologies, the plane's frames and rows, the link events),
/// per link of its topology. The rows dominate it: a flat store spends
/// 4 B per row entry, two entries per link, in each of the world's two
/// topologies and the shards' stores together.
#[test]
fn warmed_multi_shard_world_holds_few_bytes_per_link() {
    let before = live_bytes();
    let nodes = 5_000usize;
    let side = (nodes as f64 / (400.0 / 1e6)).sqrt();
    let mut world = SimBuilder::new()
        .nodes(nodes)
        .side(side)
        .radius(150.0)
        .speed(10.0)
        .dt(0.5)
        .seed(3)
        .build();
    let mut plane = ShardPlane::for_world(&world, ShardDims::parse("2x2").unwrap())
        .unwrap()
        .with_workers(1);
    let mut quiet = QuietCtx::new();
    for _ in 0..20 {
        world.step_staged(&mut quiet.ctx(), &mut plane);
    }
    let links = world.topology().link_count();
    let per_link = (live_bytes() - before) as f64 / links as f64;
    assert!(links > 60_000, "only {links} links");
    assert!(
        per_link < 48.0,
        "a warmed 2x2 world holds {per_link:.1} B per link ({links} links)"
    );
}
