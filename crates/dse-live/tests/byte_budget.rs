//! Byte budgets of the bulk global-memory data path.
//!
//! A payload should cross each hop in one pass, and every pass that fills a
//! fresh buffer shows up as bytes asked of the allocator. This test runs a
//! 2-PE cluster on the channel transport under a counting global allocator
//! (its own binary, so nothing else allocates alongside) and holds each
//! 64 KiB operation to the buffers it cannot do without:
//!
//! | operation | budget | the buffers |
//! |---|---|---|
//! | remote `gm_read_into` | 64 KiB | the home's response; the requester copies out of it |
//! | remote `gm_read` | 2 × 64 KiB | the response, and the `Vec` the caller gets |
//! | own-node `gm_read` | 64 KiB | the `Vec` the caller gets |
//! | remote `gm_write` | 2 × 64 KiB | the request's own copy (kept for retransmission) and its frame |
//! | 256 adjacent 4 KiB `gm_write_nb` | 3 × 1 MiB | the staged union, grown in place, and its frame |
//!
//! each plus 1 KiB for bookkeeping. Bytes are counted on every thread —
//! the requester's application, both kernels — while PE 1's application
//! waits outside the runtime; a growing `realloc` counts its growth. The
//! smallest of several repetitions is compared, so a one-off (a hash map
//! doubling, the harness printing) does not fail the budget.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use dse_api::ParallelApi;
use dse_kernel::Distribution;
use dse_live::{LiveCtx, LiveRunner};

struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            let grown = new_size.saturating_sub(layout.size());
            BYTES.fetch_add(grown as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const BULK: usize = 64 * 1024;
const PIECE: usize = 4 * 1024;
const PIECES: usize = 256;
/// Each PE homes this much of the region.
const HOME: usize = PIECES * PIECE;
const REPS: usize = 8;
const SLACK: u64 = 1024;

/// Fewest bytes any repetition of `op` asked of the allocator.
fn fewest_bytes(ctx: &mut LiveCtx, mut op: impl FnMut(&mut LiveCtx)) -> u64 {
    (0..REPS)
        .map(|_| {
            BYTES.store(0, Ordering::SeqCst);
            COUNTING.store(true, Ordering::SeqCst);
            op(ctx);
            COUNTING.store(false, Ordering::SeqCst);
            BYTES.load(Ordering::SeqCst)
        })
        .min()
        .expect("at least one repetition")
}

fn pattern(seed: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 7 + seed) % 253) as u8).collect()
}

#[test]
fn bulk_operations_allocate_only_the_buffers_they_cannot_do_without() {
    let gate = Barrier::new(2);
    let measured = Mutex::new(Vec::new());
    let run = LiveRunner::new(2).run(|ctx| {
        let region = ctx.gm_alloc(2 * HOME, Distribution::Blocked);
        let me = ctx.rank() as usize;
        ctx.gm_write(region, (me * HOME) as u64, &pattern(me, HOME));
        ctx.barrier();
        // Both applications are out of the barrier: nothing of it is in
        // flight while PE 0 measures and PE 1 waits outside the runtime.
        gate.wait();
        if me == 0 {
            let remote = HOME as u64;
            let (mine, theirs) = (pattern(0, HOME), pattern(1, HOME));
            let mut out = vec![0u8; BULK];
            let mut rows = Vec::new();
            let n = fewest_bytes(ctx, |ctx| ctx.gm_read_into(region, remote, &mut out));
            assert_eq!(out, theirs[..BULK]);
            rows.push(("remote gm_read_into", n, BULK as u64));

            let mut got = Vec::new();
            let n = fewest_bytes(ctx, |ctx| got = ctx.gm_read(region, remote + 100, BULK));
            assert_eq!(got, theirs[100..100 + BULK]);
            rows.push(("remote gm_read", n, 2 * BULK as u64));

            let n = fewest_bytes(ctx, |ctx| got = ctx.gm_read(region, 300, BULK));
            assert_eq!(got, mine[300..300 + BULK]);
            rows.push(("own-node gm_read", n, BULK as u64));

            let data = pattern(2, BULK);
            let n = fewest_bytes(ctx, |ctx| ctx.gm_write(region, remote + 500, &data));
            assert_eq!(ctx.gm_read(region, remote + 500, BULK), data);
            rows.push(("remote gm_write", n, 2 * BULK as u64));

            let data = pattern(3, HOME);
            let n = fewest_bytes(ctx, |ctx| {
                for (i, piece) in data.chunks(PIECE).enumerate() {
                    ctx.gm_write_nb(region, remote + (i * PIECE) as u64, piece);
                }
                ctx.gm_wait_all();
            });
            assert_eq!(ctx.gm_read(region, remote, HOME), data);
            rows.push(("256 adjacent gm_write_nb", n, 3 * HOME as u64));
            *measured.lock().unwrap() = rows;
        }
        gate.wait();
        ctx.barrier();
    });
    let over: Vec<String> = (measured.into_inner().unwrap().into_iter())
        .filter(|&(_, bytes, budget)| bytes > budget + SLACK)
        .map(|(what, bytes, budget)| format!("{what}: {bytes} bytes, budget {budget} + {SLACK}"))
        .collect();
    assert!(over.is_empty(), "over budget:\n{}", over.join("\n"));
    // The 256 pieces travelled as one request each time: four measured
    // requests per repetition, plus the two reads that checked the writes.
    let m = &run.metrics;
    assert_eq!(
        m.counter("kernel", "gm_request_msgs", Some(0)),
        Some(4 * REPS as u64 + 2)
    );
    assert_eq!(
        m.counter("kernel", "gm_coalesced", Some(0)),
        Some((REPS * (PIECES - 1)) as u64)
    );
}
