//! The `sync` workload: 4 PEs on the channel transport run a fixed number
//! of barriers, then a fixed number of contended lock sections that each
//! read, increment and write back one global cell. Fixed work, not a time
//! box: barriers are collective, so every client must agree on the count.

use std::time::Instant;

use dse_api::ParallelApi;
use dse_kernel::Distribution;
use dse_live::{LiveCtx, SchedulerKind, TransportKind};
use dse_msg::{NodeId, RegionId};

use crate::gm::le_u64;
use crate::live::{ClusterCfg, LiveWorkload, OpLog, RepPlan};

const BARRIER: usize = 0;
const LOCK_PAIR: usize = 1;

/// Barriers per client per repetition.
pub const BARRIERS: u64 = 5000;
/// Lock sections per client per repetition.
pub const LOCK_PAIRS: u64 = 2000;
const NPROCS: usize = 4;
const LOCK_ID: u32 = 1;

pub struct Sync;

pub struct SyncClient {
    cell: Option<RegionId>,
    log: OpLog,
}

impl LiveWorkload for Sync {
    type Client = SyncClient;

    fn cluster(&self) -> ClusterCfg {
        ClusterCfg {
            nprocs: NPROCS,
            transport: TransportKind::Channel,
            scheduler: SchedulerKind::Threads,
            one_cpu: true,
        }
    }

    fn kinds(&self) -> &'static [&'static str] {
        &["barrier", "lock_pair"]
    }

    fn second_kind(&self) -> usize {
        LOCK_PAIR
    }

    fn new_client(&self, _pe: u32) -> SyncClient {
        SyncClient {
            cell: None,
            log: OpLog::new(self.kinds().len(), NPROCS),
        }
    }

    fn log<'c>(&self, client: &'c mut SyncClient) -> &'c mut OpLog {
        &mut client.log
    }

    fn prepare(&self, ctx: &mut LiveCtx, c: &mut SyncClient) {
        c.cell = Some(ctx.gm_alloc(8, Distribution::OnNode(NodeId(0))));
    }

    fn measured(&self, ctx: &mut LiveCtx, c: &mut SyncClient, _plan: &RepPlan) {
        let cell = c.cell.expect("prepared");
        for _ in 0..BARRIERS {
            let start = Instant::now();
            ctx.barrier();
            c.log.record(BARRIER, start, Instant::now(), 1, 0);
        }
        for _ in 0..LOCK_PAIRS {
            let start = Instant::now();
            ctx.lock(LOCK_ID);
            // A malformed read shows up as a wrong total in `verify`.
            let next = le_u64(&ctx.gm_read(cell, 0, 8))
                .unwrap_or(0)
                .wrapping_add(1);
            ctx.gm_write(cell, 0, &next.to_le_bytes());
            ctx.unlock(LOCK_ID);
            c.log.record(LOCK_PAIR, start, Instant::now(), 1, 16);
        }
    }

    /// The lock protected the cell: it holds exactly one increment per
    /// lock section of every client. A lost update fails that many
    /// operations.
    fn verify(&self, ctx: &mut LiveCtx, c: &mut SyncClient) {
        if ctx.rank() == 0 {
            let got = le_u64(&ctx.gm_read(c.cell.expect("prepared"), 0, 8)).unwrap_or(0);
            c.log.failed += (NPROCS as u64 * LOCK_PAIRS).abs_diff(got);
        }
    }
}
