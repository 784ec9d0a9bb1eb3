//! Steady-state allocation audit for the caller-runs request plane.
//!
//! A [`ShardClient`] over [`Transport::Direct`] owns every buffer a
//! request uses — grouping scratch, reply slots, merge heap, query
//! scratch — and borrows the grouped view slices straight into
//! `serve_batch`. After warm-up, updates and queries must perform **zero**
//! heap allocations and must never touch the [`BufferPool`] the client was
//! constructed with. The counter is per-thread, as in `query_alloc.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use parking_lot::Mutex;
use piggyback_graph::NodeId;
use piggyback_store::server::StoreServer;
use piggyback_store::topology::Topology;
use piggyback_store::worker::Transport;
use piggyback_store::{BufferPool, EventTuple, ShardClient};

struct CountingAlloc;

thread_local! {
    /// Per-thread count: the harness's other threads (libtest's main
    /// thread in particular) allocate at unpredictable moments, so the
    /// audit only counts what the measuring thread itself does. Const
    /// initialization keeps the TLS access itself allocation-free.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn steady_state_direct_client_neither_allocates_nor_touches_the_pool() {
    const CAPACITY: usize = 64;
    let shards: Vec<Mutex<StoreServer>> = (0..4)
        .map(|_| Mutex::new(StoreServer::new(CAPACITY)))
        .collect();
    let pool = Arc::new(BufferPool::new());
    let topology = Topology::hash(64, 4, 0);
    let mut client = ShardClient::new(Transport::Direct(Arc::new(shards)), Arc::clone(&pool));
    let targets: Vec<NodeId> = (0..32).collect();
    let mut out = Vec::new();
    let mut round = |client: &mut ShardClient, i: u64| {
        let event = EventTuple::new((i % 7) as u32, i, i);
        let sent = client.update(&topology, &targets, event.to_wire());
        let received = client.query(&topology, &targets, 10, &mut out);
        assert_eq!(out[0], event, "the share just made must head the feed");
        sent + received
    };
    // Warm-up: sizes the client's scratch and reply slots and fills every
    // view to capacity, after which the rings stop growing.
    for i in 0..2 * CAPACITY as u64 {
        round(&mut client, i);
    }
    let before = allocations();
    let mut messages = 0;
    for i in 0..1000u64 {
        messages += round(&mut client, 2 * CAPACITY as u64 + i);
    }
    let after = allocations();
    let touched = topology.distinct_servers(targets.iter().copied()) as u64;
    assert_eq!(
        messages,
        2 * 1000 * touched,
        "one message per touched shard"
    );
    assert_eq!(
        after - before,
        0,
        "steady-state caller-runs requests must not allocate"
    );
    assert_eq!(
        pool.pooled_counts(),
        (0, 0),
        "the caller-runs plane must not touch the pool"
    );
}
