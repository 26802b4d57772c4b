//! Allocation regression gate for the zero-copy hot path.
//!
//! A steady-state GM read round-trip on the channel backend must allocate
//! *nothing*: frame encode buffers come from the cluster [`FramePool`],
//! the decoder reassembles in place once its buffer is warm, and payloads
//! are handed up as views into the reassembly buffer. This test installs a
//! counting global allocator (its own binary, so no other test interferes),
//! warms the pools, then asserts zero allocations across many round-trips.
//! Only the test's own thread is counted: the harness's threads (the main
//! thread collecting results, the output capture) allocate whenever they
//! like, and everything under test runs on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use dse_msg::{Message, RegionId, ReqId};
use dse_transport::{ChannelTransport, Transport};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the one thread whose allocations count. Const-initialised
    /// and without a destructor, so reading it never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counting() -> bool {
    // A thread past its thread-local teardown is not the test thread.
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// One synchronous GM read round-trip: PE 0 asks, PE 1 answers from a
/// pre-built shared payload, PE 0 checks the data. Everything is driven
/// from the test thread, so delivery is deterministic and nothing waits.
fn round_trip(a: &ChannelTransport, b: &ChannelTransport, data: &dse_msg::Bytes, i: u64) {
    a.send(
        1,
        &Message::GmReadReq {
            req: ReqId(i),
            region: RegionId(0),
            offset: 0,
            len: data.len() as u32,
        },
    )
    .unwrap();
    let req = b
        .recv(Some(Duration::from_secs(5)))
        .unwrap()
        .expect("request arrives");
    let req_id = match req.msg {
        Message::GmReadReq { req, .. } => req,
        other => panic!("unexpected request: {other:?}"),
    };
    b.send(
        0,
        &Message::GmReadResp {
            req: req_id,
            data: data.clone(),
        },
    )
    .unwrap();
    let resp = b2a_resp(a);
    assert_eq!(resp, *data.as_slice());
}

fn b2a_resp(a: &ChannelTransport) -> Vec<u8> {
    // The comparison Vec is built *outside* the counting window by the
    // caller pattern below; here we only pop and view. To keep the counted
    // region clean this helper is only used during warmup.
    let env = a
        .recv(Some(Duration::from_secs(5)))
        .unwrap()
        .expect("response arrives");
    match env.msg {
        Message::GmReadResp { data, .. } => data.as_slice().to_vec(),
        other => panic!("unexpected response: {other:?}"),
    }
}

/// Allocation-free variant for the counted region: verifies the payload by
/// comparison against the shared source, no copies made.
fn round_trip_counted(a: &ChannelTransport, b: &ChannelTransport, data: &dse_msg::Bytes, i: u64) {
    a.send(
        1,
        &Message::GmReadReq {
            req: ReqId(i),
            region: RegionId(0),
            offset: 0,
            len: data.len() as u32,
        },
    )
    .unwrap();
    let req = b
        .recv(Some(Duration::from_secs(5)))
        .unwrap()
        .expect("request arrives");
    let req_id = match req.msg {
        Message::GmReadReq { req, .. } => req,
        other => panic!("unexpected request: {other:?}"),
    };
    b.send(
        0,
        &Message::GmReadResp {
            req: req_id,
            data: data.clone(),
        },
    )
    .unwrap();
    let env = a
        .recv(Some(Duration::from_secs(5)))
        .unwrap()
        .expect("response arrives");
    match &env.msg {
        Message::GmReadResp { data: got, .. } => assert_eq!(got, data),
        other => panic!("unexpected response: {other:?}"),
    }
}

#[test]
fn steady_state_gm_round_trip_allocates_nothing() {
    let mut cluster = ChannelTransport::cluster(2);
    let b = cluster.pop().unwrap();
    let a = cluster.pop().unwrap();
    drop(cluster);

    // The payload a GM read serves; shared so responses are refcount bumps.
    let data: dse_msg::Bytes = (0..512u32).map(|i| i as u8).collect::<Vec<u8>>().into();

    // Warmup: grow the frame pool, the decoders' reassembly buffers, and
    // the ready/inbox queues to their steady-state footprint.
    for i in 0..64 {
        round_trip(&a, &b, &data, i);
    }

    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.set(true);
    for i in 0..256 {
        round_trip_counted(&a, &b, &data, 64 + i);
    }
    COUNTING.set(false);

    let n = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        n, 0,
        "steady-state GM round-trips allocated {n} times (expected 0): \
         a pooled buffer, decoder buffer, or payload path regressed to copying"
    );
}
