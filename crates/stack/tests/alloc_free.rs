//! The zero-allocation contract of the steady-state full-stack tick
//! (DESIGN.md §12): once the layers' reused buffers have warmed up,
//! `ProtocolStack::tick` — world step, LID cluster maintenance and the
//! intra-cluster route diff — performs no heap allocation at all, on the
//! ideal stack and on the fault plane's (lossy explicit HELLO, churn,
//! self-healing maintenance). Measured with a counting global allocator
//! wrapped around the system one.
//!
//! The allocator counts per thread and every measured tick runs on the
//! test thread, so allocations on other threads (another test, or the
//! harness printing a slow-test notice) do not enter the count.

use manet_cluster::{Backoff, Clustering, LowestId, SelfHealing};
use manet_routing::intra::IntraClusterRouting;
use manet_sim::{ChurnSchedule, FaultPlan, HelloProtocol, LossModel, QuietCtx, SimBuilder};
use manet_stack::ProtocolStack;
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
fn steady_state_stack_tick_is_allocation_free() {
    let world = SimBuilder::new()
        .nodes(400)
        .side(1000.0)
        .radius(150.0)
        .speed(10.0)
        .dt(0.5)
        .seed(1)
        .build();
    let clustering = Clustering::form(LowestId, world.topology());
    let mut stack = ProtocolStack::ideal(world, clustering, IntraClusterRouting::new());
    let mut quiet = QuietCtx::new();
    stack.prime(&mut quiet.ctx());
    // Warm up every capacity the tick touches: the world's grid and
    // topology buffers, the cluster pass's scan and orphan buffers, and
    // the route layer's link snapshot, its pending edits and change lists.
    for _ in 0..1000 {
        stack.tick(&mut quiet.ctx());
    }
    // The route layer's event passes leave their row edits pending on its
    // link snapshot and apply them at a bound: the window must see both.
    let (mut held, mut applied, mut pending) = (0, 0, 0);
    let before = allocs();
    for _ in 0..100 {
        stack.tick(&mut quiet.ctx());
        let now = stack.split_mut().2.pending_edits();
        held += usize::from(now > 0);
        applied += usize::from(now < pending);
        pending = now;
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state ProtocolStack::tick must not allocate (got {} allocations over 100 ticks)",
        after - before
    );
    assert!(
        held > 0 && applied > 0,
        "{held} ticks held pending edits, {applied} applied them"
    );
}

/// The benchmark's own window on its paper-400 workload (dt = 0.25 s):
/// after a 400-tick warm-up the next 400 ticks allocate nothing, on every
/// one of seeds 1–5. This pins the pass buffers sized from `n` (the
/// cluster scan's lists at formation, the route layer's edit buffers at
/// its baseline pass) and the link schedule's own buffers, which a
/// steady state started from the world alone would otherwise grow the
/// first time a tick needs more room.
#[test]
fn paper_400_window_is_allocation_free_on_every_seed() {
    for seed in 1..=5 {
        let world = SimBuilder::new()
            .nodes(400)
            .side(1000.0)
            .radius(150.0)
            .speed(10.0)
            .dt(0.25)
            .seed(seed)
            .build();
        let clustering = Clustering::form(LowestId, world.topology());
        let mut stack = ProtocolStack::ideal(world, clustering, IntraClusterRouting::new());
        let mut quiet = QuietCtx::new();
        stack.prime(&mut quiet.ctx());
        for _ in 0..400 {
            stack.tick(&mut quiet.ctx());
        }
        let before = allocs();
        for _ in 0..400 {
            stack.tick(&mut quiet.ctx());
        }
        let after = allocs();
        assert_eq!(
            after - before,
            0,
            "seed {seed}: the 400 ticks after the warm-up made {} allocations",
            after - before
        );
    }
}

/// The jobs service's robustness stack (N = 200 at the paper's density,
/// dt = 0.25 s): Bernoulli loss 0.1 on every layer, Poisson churn at
/// 0.002 crashes per node and second with 20 s mean downtime,
/// `SelfHealing` maintenance and the explicit soft-timer HELLO. After an
/// 800-tick warm-up the next 400 ticks allocate nothing, on seeds 1–3:
/// the HELLO merge buffer and sender lists, the masked tick's events, the
/// gate's retransmission schedule and the violation count all reuse what
/// the warm-up sized.
#[test]
fn fault_plane_window_is_allocation_free_on_every_seed() {
    for seed in 1..=3u64 {
        let n = 200;
        let plan = FaultPlan {
            loss: LossModel::Bernoulli { p: 0.1 },
            churn: ChurnSchedule::poisson(n, 0.002, 20.0, 301.0, seed ^ 0xC0_FFEE).unwrap(),
            seed: seed ^ 0xFA_017,
        };
        let world = SimBuilder::new()
            .nodes(n)
            .side(707.106_781_186_547_5)
            .radius(150.0)
            .speed(10.0)
            .dt(0.25)
            .seed(seed)
            .fault(plan)
            .build();
        let hello = HelloProtocol::new(n, 1.0, 3.0);
        let clustering = Clustering::form(LowestId, world.topology());
        let healer = SelfHealing::new(clustering, Backoff::default(), 8);
        let mut stack = ProtocolStack::faulty(world, healer, IntraClusterRouting::new(), hello);
        let mut quiet = QuietCtx::new();
        stack.prime(&mut quiet.ctx());
        for _ in 0..800 {
            stack.tick(&mut quiet.ctx());
        }
        let before = allocs();
        let mut churned = 0;
        for _ in 0..400 {
            let report = stack.tick(&mut quiet.ctx());
            churned += report.crashed + report.recovered;
        }
        let after = allocs();
        assert_eq!(
            after - before,
            0,
            "seed {seed}: the 400 ticks after the warm-up made {} allocations",
            after - before
        );
        assert!(churned > 0, "seed {seed}: no churn in the window");
    }
}
