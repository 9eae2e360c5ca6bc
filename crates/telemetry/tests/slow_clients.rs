//! The HTTP listener's memory under many slow clients: 64 connections
//! that each send part of a request head and stall hold no more heap
//! than one such client, because the listener reads one connection at a
//! time and the rest wait in the kernel's accept queue. Once they close,
//! a well-formed request is answered.
//!
//! Live heap bytes are counted by a global allocator wrapped around the
//! system one. This file is its own test binary, so the count sees no
//! other test's allocations.

use manet_telemetry::{serve_metrics, REQUEST_DEADLINE};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::{Duration, Instant};

struct CountingAlloc;

/// Live heap bytes, and the most seen since the last reset. Statistics
/// only: they publish no other data.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: delegates verbatim to the system allocator; the counters are
// atomic adds with no other side effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        match new_size.checked_sub(layout.size()) {
            Some(more) => grow(more),
            None => _ = LIVE.fetch_sub(layout.size() - new_size, Relaxed),
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The most live heap, above its level at the call, while `clients`
/// connections each hold a partial request head open. They close on
/// return.
fn peak_growth_with(addr: SocketAddr, clients: usize) -> usize {
    // Allocated before the count starts, so every byte it sees is the
    // listener's: connecting and sending allocate nothing here.
    let mut pending = Vec::with_capacity(clients);
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    for _ in 0..clients {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /health HTTP/1.1\r\nX-Pad: ")
            .expect("send");
        pending.push(stream);
    }
    // Wait for the listener to start reading, then give it time to take
    // up every pending client it would.
    let start = Instant::now();
    while PEAK.load(Relaxed) == base && start.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(200));
    let growth = PEAK.load(Relaxed) - base;
    drop(pending);
    growth
}

/// One well-formed `GET /health`, returning the status line.
fn health(addr: SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(REQUEST_DEADLINE)).unwrap();
    stream.write_all(b"GET /health HTTP/1.1\r\n\r\n").unwrap();
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    response.lines().next().unwrap_or_default().to_string()
}

#[test]
fn many_pending_slow_clients_cost_the_heap_of_one() {
    let (server, _publisher) = serve_metrics("127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let one = peak_growth_with(addr, 1);
    assert!(one > 0, "the listener read nothing of the pending client");
    // Answered only after the listener let the closed client go.
    assert!(health(addr).starts_with("HTTP/1.1 200"));

    let many = peak_growth_with(addr, 64);
    assert!(
        many <= one + (64 << 10),
        "64 pending clients grew the heap by {many} B, one by {one} B"
    );
    let status = health(addr);
    assert!(status.starts_with("HTTP/1.1 200"), "{status:?}");
}
