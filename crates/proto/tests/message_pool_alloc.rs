//! Allocation audit of the zero-copy message path: once the arena's block
//! pool is warm, a steady-state loop of intern → enclose-in-message →
//! clone → drop must not touch the heap at all. This is the node layer's
//! analogue of the kernel's `kernel_alloc` test — the whole point of
//! interning peer lists is that the gossip hot loop recycles arena blocks
//! instead of allocating a fresh `Vec` per message.

use plsim_des::NodeId;
use plsim_proto::{ChannelId, Message, PeerEntry, PeerList, PeerListArena};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter is a relaxed atomic.
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

fn entry(n: u32) -> PeerEntry {
    PeerEntry::new(NodeId(n), Ipv4Addr::new(58, 0, (n >> 8) as u8, n as u8))
}

/// One steady-state round: intern a full-sized list, wrap it in the three
/// list-bearing protocol messages, clone them as the kernel's event slots
/// would, and drop everything back into the arena's free list.
fn round(arena: &PeerListArena, entries: &[PeerEntry], req_id: u64) -> u64 {
    let peers = arena.intern(entries.iter().copied());
    let tracker = Message::TrackerResponse {
        channel: ChannelId(1),
        peers: peers.clone(),
    };
    let request = Message::PeerListRequest {
        channel: ChannelId(1),
        my_peers: peers.clone(),
        req_id,
    };
    let response = Message::PeerListResponse {
        channel: ChannelId(1),
        peers,
        req_id,
    };
    let delivered = response.clone();
    black_box(&delivered);
    u64::from(tracker.wire_size() + request.wire_size() + response.wire_size())
}

#[test]
fn steady_state_message_loop_allocates_nothing() {
    let arena = PeerListArena::new();
    let entries: Vec<PeerEntry> = (0..PeerList::MAX_LEN as u32).map(entry).collect();

    // Warm-up: grow the arena's block pool, its free list, and each
    // block's entry capacity to their steady sizes.
    let mut checksum = 0u64;
    for i in 0..256 {
        checksum = checksum.wrapping_add(round(&arena, &entries, i));
    }

    let live_before = arena.live_blocks();
    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..10_000 {
        checksum = checksum.wrapping_add(round(&arena, &entries, i));
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    black_box(checksum);

    assert_eq!(
        after - before,
        0,
        "warm intern/clone/drop loop must not allocate"
    );
    // Every block released by the loop went back to the free list.
    assert_eq!(arena.live_blocks(), live_before);
}
