//! An application's bad global-memory address is the *application's*
//! failure, on both engines: the calling rank fails with the store's error
//! before anything goes on the wire, and the home PE's kernel — which would
//! have died serving the request — never sees it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dse::live::{FailureKind, FailureRole, LiveRunner};
use dse::prelude::*;

/// `rank` of two adds to the cell at `offset` of a 64-byte blocked region
/// (node 0 homes `[0, 32)`, node 1 the rest), then everyone synchronizes.
fn body(ctx: &mut impl ParallelApi, rank: u32, offset: u64) {
    let region = ctx.gm_alloc(64, Distribution::Blocked);
    if ctx.rank() == rank {
        ctx.gm_fetch_add(region, offset, 1);
    }
    ctx.barrier();
}

/// A misaligned cell homed on node 0, called by rank 1; and a cell past
/// the end, which the home arithmetic clamps to node 1, called by rank 0.
const CASES: [(u32, u64, &str); 2] = [
    (1, 4, "bad atomic cell in gm0 at offset 4"),
    (
        0,
        64,
        "out-of-bounds access to gm0: offset 64 len 8 size 64",
    ),
];

#[test]
fn a_bad_remote_atomic_cell_fails_the_calling_rank_on_the_simulator() {
    for (rank, offset, why) in CASES {
        let program = DseProgram::new(Platform::sunos_sparc());
        let panic = catch_unwind(AssertUnwindSafe(|| {
            program.run(2, move |ctx| body(ctx, rank, offset));
        }))
        .expect_err("the run must fail");
        let text = panic.downcast_ref::<String>().expect("a formatted message");
        assert!(
            text.contains(&format!("rank {rank}: gm_fetch_add failed: {why}")),
            "{text}"
        );
        assert!(!text.contains("gm service"), "the home kernel died: {text}");
    }
}

#[test]
fn a_bad_remote_atomic_cell_fails_the_calling_rank_on_the_live_engine() {
    for (rank, offset, why) in CASES {
        let err = LiveRunner::new(2)
            .try_run(move |ctx| body(ctx, rank, offset))
            .expect_err("the run must fail");
        let first = &err.failures[0];
        assert_eq!((first.pe, first.role), (rank, FailureRole::App), "{err}");
        assert_eq!(
            first.kind,
            FailureKind::BadAccess {
                detail: format!("gm_fetch_add failed: {why}")
            }
        );
    }
}

#[test]
fn an_out_of_range_read_fails_the_calling_rank_the_same_way() {
    let err = LiveRunner::new(2)
        .try_run(|ctx| {
            let region = ctx.gm_alloc(64, Distribution::Blocked);
            if ctx.rank() == 1 {
                ctx.gm_read(region, 60, 8);
            }
            ctx.barrier();
        })
        .expect_err("the run must fail");
    let first = &err.failures[0];
    assert_eq!((first.pe, first.role), (1, FailureRole::App), "{err}");
    assert!(
        matches!(&first.kind, FailureKind::BadAccess { detail }
            if detail.starts_with("gm_read failed: out-of-bounds access")),
        "{err}"
    );
}
