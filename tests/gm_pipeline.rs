//! Acceptance tests for the split-phase global-memory API (ISSUE tentpole):
//! routing every blocking GM access through `gm_read_nb`/`gm_write_nb` +
//! `gm_wait` must leave all four paper workloads bit-identical on fixed
//! seeds, the in-flight window must bound outstanding requests (and
//! backpressure instead of failing), waiting on a handle discarded by
//! `gm_wait_all` must panic, and coalesced writes must cost one cache
//! invalidation round per merged request.

use dse::api::GmHandle;
use dse::apps::dct::{self, DctParams};
use dse::apps::gauss_seidel::{self, GaussSeidelParams};
use dse::apps::knights::{self, KnightsParams};
use dse::apps::othello::{self, OthelloParams};
use dse::apps::Capture;
use dse::msg::{NodeId, RegionId};
use dse::prelude::*;

// ---------------------------------------------------------------------------
// A ParallelApi adapter that reroutes every blocking GM access through the
// split-phase entry points: issue immediately, redeem immediately. Running
// an unmodified application body through it exercises the whole pipelining
// machinery (staging, flush, completion, handle redemption) while promising
// the same semantics as the blocking calls.
// ---------------------------------------------------------------------------

struct SplitPhaseShim<'a, A: ParallelApi>(&'a mut A);

impl<A: ParallelApi> ParallelApi for SplitPhaseShim<'_, A> {
    fn rank(&self) -> u32 {
        self.0.rank()
    }
    fn nprocs(&self) -> usize {
        self.0.nprocs()
    }
    fn compute(&mut self, work: Work) {
        self.0.compute(work)
    }
    fn gm_alloc(&mut self, len: usize, dist: Distribution) -> RegionId {
        self.0.gm_alloc(len, dist)
    }
    fn gm_read(&mut self, region: RegionId, offset: u64, len: usize) -> Vec<u8> {
        let h = self.0.gm_read_nb(region, offset, len);
        self.0.gm_wait(h).expect("split-phase read carries data")
    }
    fn gm_write(&mut self, region: RegionId, offset: u64, data: &[u8]) {
        let h = self.0.gm_write_nb(region, offset, data);
        assert!(self.0.gm_wait(h).is_none(), "writes complete without data");
    }
    fn gm_fetch_add(&mut self, region: RegionId, offset: u64, delta: i64) -> i64 {
        self.0.gm_fetch_add(region, offset, delta)
    }
    fn take_scratch(&mut self) -> Vec<u8> {
        self.0.take_scratch()
    }
    fn put_scratch(&mut self, buf: Vec<u8>) {
        self.0.put_scratch(buf)
    }
    fn barrier(&mut self) {
        self.0.barrier()
    }
    fn lock(&mut self, id: u32) {
        self.0.lock(id)
    }
    fn unlock(&mut self, id: u32) {
        self.0.unlock(id)
    }
}

/// Run the same application body once directly and once through
/// [`SplitPhaseShim`]; the body path is expanded separately for each
/// engine so it instantiates against both contexts.
macro_rules! direct_and_shimmed {
    ($procs:expr, $app:path, $params:expr) => {{
        let program = DseProgram::new(Platform::sunos_sparc());
        let params = $params;
        let direct = {
            let cap = Capture::new();
            let c = cap.clone();
            let run = program.run($procs, move |ctx| {
                if let Some(v) = $app(ctx, &params) {
                    c.set(v);
                }
            });
            (run, cap.take())
        };
        let shimmed = {
            let cap = Capture::new();
            let c = cap.clone();
            let run = program.run($procs, move |ctx| {
                let mut shim = SplitPhaseShim(ctx);
                if let Some(v) = $app(&mut shim, &params) {
                    c.set(v);
                }
            });
            (run, cap.take())
        };
        (direct, shimmed)
    }};
}

/// The GM request messages a run put on the wire.
fn requests(run: &RunResult) -> u64 {
    run.metrics
        .counter_sum_over_pes("kernel", "gm_request_msgs")
}

#[test]
fn gauss_seidel_split_phase_is_bit_identical() {
    let ((drun, dsol), (srun, ssol)) =
        direct_and_shimmed!(3, gauss_seidel::body, GaussSeidelParams::paper(60));
    assert_eq!(dsol.x, ssol.x, "solution vectors must match bit-for-bit");
    assert_eq!(dsol.iters, ssol.iters);
    assert_eq!(dsol.delta.to_bits(), ssol.delta.to_bits());
    // Same requests on the wire; only the send instants (and hence bus
    // contention) may shift, so elapsed times are close but not asserted
    // equal.
    assert_eq!(requests(&drun), requests(&srun));
    assert_eq!(drun.net_wire_bytes, srun.net_wire_bytes);
}

#[test]
fn dct_split_phase_is_bit_identical() {
    let params = DctParams {
        size: 64,
        block: 8,
        keep: 0.25,
        seed: 0xD0C7,
    };
    let ((drun, dout), (srun, sout)) = direct_and_shimmed!(3, dct::body, params);
    assert_eq!(dout.coeffs, sout.coeffs);
    assert_eq!(dout.kept, sout.kept);
    assert_eq!(requests(&drun), requests(&srun));
    assert_eq!(drun.net_wire_bytes, srun.net_wire_bytes);
}

#[test]
fn othello_split_phase_is_bit_identical() {
    let ((drun, dres), (srun, sres)) =
        direct_and_shimmed!(3, othello::body, OthelloParams::paper(3));
    assert_eq!(dres, sres, "(move, score) must match");
    assert_eq!(requests(&drun), requests(&srun));
    assert_eq!(drun.net_wire_bytes, srun.net_wire_bytes);
}

#[test]
fn knights_split_phase_is_bit_identical() {
    let ((drun, dcount), (srun, scount)) =
        direct_and_shimmed!(3, knights::body, KnightsParams::paper(8));
    assert_eq!(dcount, scount, "tour counts must match");
    assert_eq!(requests(&drun), requests(&srun));
    assert_eq!(drun.net_wire_bytes, srun.net_wire_bytes);
}

#[test]
fn window_full_backpressures_and_completes() {
    // 6 PEs, one element homed on each; a gm_window of 2 forces the flush
    // of rank 0's five outstanding reads to drain completions mid-issue.
    let program =
        DseProgram::new(Platform::sunos_sparc()).with_config(DseConfig::paper().with_gm_window(2));
    let run = program.run(6, |ctx| {
        let arr = GmArray::<u64>::alloc(ctx, 6, Distribution::Blocked);
        let rank = ctx.rank() as usize;
        arr.set(ctx, rank, rank as u64 * 7 + 1);
        ctx.barrier();
        if ctx.rank() == 0 {
            for _ in 0..4 {
                let handles: Vec<(usize, GmHandle)> = (1..6)
                    .map(|i| (i, ctx.gm_read_nb(arr.region(), (i * 8) as u64, 8)))
                    .collect();
                for (i, h) in handles {
                    let bytes = ctx.gm_wait(h).expect("read handle carries data");
                    let v = u64::from_le_bytes(bytes.as_slice().try_into().unwrap());
                    assert_eq!(v, i as u64 * 7 + 1);
                }
            }
        }
        ctx.barrier();
    });
    // The in-flight high-water gauge proves the window was both reached
    // and respected.
    let peak = run
        .metrics
        .gauge("kernel", "gm_inflight", Some(0))
        .expect("rank 0 issued pipelined requests");
    assert_eq!(peak, 2, "in-flight peak must equal the configured window");
}

#[test]
#[should_panic(expected = "stale handle")]
fn wait_on_handle_discarded_by_wait_all_panics() {
    let program = DseProgram::new(Platform::sunos_sparc());
    program.run(2, |ctx| {
        let arr = GmArray::<u64>::alloc(ctx, 2, Distribution::OnNode(NodeId(1)));
        ctx.barrier();
        if ctx.rank() == 0 {
            let h = ctx.gm_read_nb(arr.region(), 0, 8);
            ctx.gm_wait_all(); // discards the un-redeemed result
            ctx.gm_wait(h); // must panic: the handle is stale
        }
    });
}

#[test]
fn coalesced_writes_cost_one_invalidation_round_per_merged_request() {
    // Rank 0 caches the home block (gm-cache on); rank 2 then publishes
    // four adjacent elements per round split-phase. The four writes
    // coalesce into one wire request, so the home runs exactly one
    // invalidation round per round of writes — not one per element.
    const ROUNDS: u64 = 4;
    let program = DseProgram::new(Platform::sunos_sparc())
        .with_config(DseConfig::paper().with_gm_cache(true));
    let run = program.run(3, |ctx| {
        let arr = GmArray::<u64>::alloc(ctx, 64, Distribution::OnNode(NodeId(1)));
        ctx.barrier();
        for round in 0..ROUNDS {
            if ctx.rank() == 0 {
                // (Re-)replicate the block so the next write must invalidate.
                let _ = arr.read(ctx, 0, 64);
            }
            ctx.barrier();
            if ctx.rank() == 2 {
                let handles: Vec<GmHandle> = (0..4u64)
                    .map(|j| {
                        let val = round * 100 + j;
                        ctx.gm_write_nb(arr.region(), j * 8, &val.to_le_bytes())
                    })
                    .collect();
                for h in handles {
                    assert!(ctx.gm_wait(h).is_none());
                }
            }
            ctx.barrier();
        }
        if ctx.rank() == 0 {
            let vals = arr.read(ctx, 0, 4);
            let want: Vec<u64> = (0..4).map(|j| (ROUNDS - 1) * 100 + j).collect();
            assert_eq!(vals, want, "reader must observe the final round");
        }
        ctx.barrier();
    });
    let kernel = |name| run.metrics.counter_sum_over_pes("kernel", name);
    assert_eq!(
        kernel("invalidation_rounds"),
        ROUNDS,
        "one invalidation round per merged write request"
    );
    // Each round merges 4 adjacent writes into one segment: 3 coalesces.
    let coalesced = kernel("gm_coalesced");
    assert!(
        coalesced >= 3 * ROUNDS,
        "adjacent split-phase writes must coalesce (got {coalesced})"
    );
}
