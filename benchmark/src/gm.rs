//! The global-memory workloads: `gm_small`, `uds_small`, `tasks64` (one
//! generator, three cluster shapes) and `gm_bulk`. Every client works on
//! the block its right neighbour homes and is that block's only accessor,
//! so a local shadow copy predicts every value the runtime must return.

use std::sync::Arc;
use std::time::Instant;

use dse_api::{GmHandle, ParallelApi};
use dse_kernel::Distribution;
use dse_live::{LiveCtx, SchedulerKind, TransportKind};
use dse_msg::{NodeId, RegionId};

use crate::gen::{self, BulkOp, SmallOp};
use crate::live::{ClusterCfg, LiveWorkload, OpLog, Pace, RepPlan};

const READ: usize = 0;
const WRITE: usize = 1;
const FETCH_ADD: usize = 2;
const CLAIM: usize = 3;
const BURST: usize = 2;

/// Every `CLAIM_EVERY`-th operation of a `tasks64` client takes a job
/// from the cluster-wide fetch-add queue.
const CLAIM_EVERY: usize = 8;

/// The 8-byte cell `bytes` holds, if it is one.
pub fn le_u64(bytes: &[u8]) -> Option<u64> {
    bytes.try_into().ok().map(u64::from_le_bytes)
}

/// The small-operation workload on a given cluster shape.
pub struct Small {
    pub cfg: ClusterCfg,
    pub seed: u64,
    /// Whether clients also drain a fetch-add work queue (`tasks64`).
    pub work_queue: bool,
    /// PEs `0..clients` run a client; the rest only serve.
    pub clients: usize,
}

impl Small {
    pub fn gm_small(seed: u64) -> Small {
        Small {
            cfg: ClusterCfg {
                nprocs: 2,
                transport: TransportKind::Channel,
                scheduler: SchedulerKind::Threads,
                one_cpu: true,
            },
            seed,
            work_queue: false,
            clients: 2,
        }
    }

    pub fn uds_small(seed: u64) -> Small {
        Small {
            cfg: ClusterCfg {
                transport: TransportKind::Uds,
                // Pinned although it mostly sleeps: unpinned, a round trip
                // flips between one and two poller sleeps with the core
                // whose timer wakes each poller.
                ..Small::gm_small(seed).cfg
            },
            clients: 1,
            ..Small::gm_small(seed)
        }
    }

    pub fn tasks64(seed: u64) -> Small {
        Small {
            cfg: ClusterCfg {
                nprocs: 64,
                transport: TransportKind::Channel,
                scheduler: SchedulerKind::Tasks,
                // The task scheduler sizes its worker pool by the CPUs
                // the process may use: pinned, it would have one worker.
                one_cpu: false,
            },
            seed,
            work_queue: true,
            clients: 64,
        }
    }
}

pub struct SmallClient {
    ops: Vec<SmallOp>,
    /// What the target block must hold, cell by cell.
    shadow: Vec<u64>,
    cells: Option<RegionId>,
    queue: Option<RegionId>,
    /// Byte offset of the target block.
    base: u64,
    /// Job ids this client took from the work queue.
    claimed: Vec<i64>,
    /// The queue's final value, read by PE 0 after the closing barrier.
    queue_total: Option<i64>,
    log: OpLog,
}

impl LiveWorkload for Small {
    type Client = SmallClient;

    fn cluster(&self) -> ClusterCfg {
        self.cfg
    }

    fn pace(&self) -> Pace {
        // gm_small is CPU-bound on its one CPU; the other two are not.
        if self.cfg.one_cpu && self.cfg.transport == TransportKind::Channel {
            Pace::SHORT_BEST
        } else {
            Pace::LONG_MEDIAN
        }
    }

    fn kinds(&self) -> &'static [&'static str] {
        if self.work_queue {
            &["read", "write", "fetch_add", "claim"]
        } else {
            &["read", "write", "fetch_add"]
        }
    }

    fn second_kind(&self) -> usize {
        if self.work_queue {
            CLAIM
        } else {
            FETCH_ADD
        }
    }

    /// On `tasks64` a third of the reads take the 12 us fast path and the
    /// rest wait hundreds of microseconds for the scheduler's next sweep:
    /// the median sits on the cliff between the two (88 to 133 us from one
    /// repetition to the next) while the mean moves with the throughput.
    fn headline_is_mean(&self) -> bool {
        self.work_queue
    }

    fn new_client(&self, pe: u32) -> SmallClient {
        let n = self.cfg.nprocs as u64;
        SmallClient {
            ops: gen::small_ops(self.seed, pe),
            shadow: vec![0; gen::SMALL_SLOTS as usize],
            cells: None,
            queue: None,
            base: (u64::from(pe) + 1) % n * u64::from(gen::SMALL_SLOTS) * 8,
            claimed: Vec::with_capacity(if self.work_queue { 1 << 14 } else { 0 }),
            queue_total: None,
            log: OpLog::new(self.kinds().len(), self.cfg.nprocs),
        }
    }

    fn log<'c>(&self, client: &'c mut SmallClient) -> &'c mut OpLog {
        &mut client.log
    }

    fn prepare(&self, ctx: &mut LiveCtx, c: &mut SmallClient) {
        let block = gen::SMALL_SLOTS as usize * 8;
        c.cells = Some(ctx.gm_alloc(block * self.cfg.nprocs, Distribution::Blocked));
        c.queue = Some(ctx.gm_alloc(8, Distribution::OnNode(NodeId(0))));
        c.shadow.fill(0);
        c.claimed.clear();
        c.queue_total = None;
    }

    fn measured(&self, ctx: &mut LiveCtx, c: &mut SmallClient, plan: &RepPlan) {
        let (cells, queue) = (c.cells.expect("prepared"), c.queue.expect("prepared"));
        if ctx.rank() as usize >= self.clients {
            return;
        }
        let deadline = Instant::now() + plan.time_box;
        for i in 0usize.. {
            let start = Instant::now();
            if start >= deadline {
                break;
            }
            if self.work_queue && i % CLAIM_EVERY == CLAIM_EVERY - 1 {
                let job = ctx.gm_fetch_add(queue, 0, 1);
                c.log.record(CLAIM, start, Instant::now(), 1, 8);
                if c.claimed.len() < c.claimed.capacity() {
                    c.claimed.push(job);
                } else {
                    c.log.failed += 1;
                }
                continue;
            }
            match c.ops[i % c.ops.len()] {
                SmallOp::Read { slot } => {
                    let data = ctx.gm_read(cells, c.base + u64::from(slot) * 8, 8);
                    c.log.record(READ, start, Instant::now(), 1, 8);
                    if le_u64(&data) != Some(c.shadow[slot as usize]) {
                        c.log.failed += 1;
                    }
                }
                SmallOp::Write { slot, value } => {
                    ctx.gm_write(cells, c.base + u64::from(slot) * 8, &value.to_le_bytes());
                    c.log.record(WRITE, start, Instant::now(), 1, 8);
                    c.shadow[slot as usize] = value;
                }
                SmallOp::FetchAdd { slot, delta } => {
                    let prev = ctx.gm_fetch_add(cells, c.base + u64::from(slot) * 8, delta);
                    c.log.record(FETCH_ADD, start, Instant::now(), 1, 8);
                    let cell = &mut c.shadow[slot as usize];
                    if prev as u64 != *cell {
                        c.log.failed += 1;
                    }
                    *cell = cell.wrapping_add(delta as u64);
                }
            }
        }
    }

    fn verify(&self, ctx: &mut LiveCtx, c: &mut SmallClient) {
        if ctx.rank() == 0 {
            c.queue_total = Some(ctx.gm_fetch_add(c.queue.expect("prepared"), 0, 0));
        }
    }

    /// Exactly-once delivery: the claimed job ids are `0..total` with no
    /// id missing and none taken twice.
    fn cross_check(&self, clients: &mut [&mut SmallClient]) -> u64 {
        let Some(total) = clients[0].queue_total else {
            return 0; // the run aborted; the harness already counted it
        };
        let mut ids: Vec<i64> = clients
            .iter()
            .flat_map(|c| c.claimed.iter().copied())
            .collect();
        ids.sort_unstable();
        let wrong = ids
            .iter()
            .zip(0i64..)
            .filter(|(got, want)| *got != want)
            .count() as u64;
        wrong + (ids.len() as i64 - total).unsigned_abs()
    }
}

/// The bulk workload: 2 PEs on the channel transport.
pub struct Bulk {
    pub seed: u64,
    payloads: Arc<Vec<Vec<u8>>>,
}

impl Bulk {
    pub fn new(seed: u64) -> Bulk {
        Bulk {
            seed,
            payloads: Arc::new(gen::bulk_payloads(seed)),
        }
    }
}

pub struct BulkClient {
    ops: Vec<BulkOp>,
    payloads: Arc<Vec<Vec<u8>>>,
    shadow: Vec<u8>,
    buf: Vec<u8>,
    handles: Vec<GmHandle>,
    region: Option<RegionId>,
    base: u64,
    log: OpLog,
}

impl LiveWorkload for Bulk {
    type Client = BulkClient;

    fn cluster(&self) -> ClusterCfg {
        ClusterCfg {
            nprocs: 2,
            transport: TransportKind::Channel,
            scheduler: SchedulerKind::Threads,
            one_cpu: true,
        }
    }

    fn kinds(&self) -> &'static [&'static str] {
        &["read", "write", "burst8"]
    }

    fn second_kind(&self) -> usize {
        BURST
    }

    fn new_client(&self, pe: u32) -> BulkClient {
        let block = gen::BULK_LEN * gen::BULK_SLOTS as usize;
        BulkClient {
            ops: gen::bulk_ops(self.seed, pe),
            payloads: Arc::clone(&self.payloads),
            shadow: vec![0; block],
            buf: vec![0; gen::BULK_LEN],
            handles: Vec::with_capacity(gen::BURST_READS),
            region: None,
            base: (u64::from(pe) + 1) % 2 * block as u64,
            log: OpLog::new(self.kinds().len(), 2),
        }
    }

    fn log<'c>(&self, client: &'c mut BulkClient) -> &'c mut OpLog {
        &mut client.log
    }

    fn prepare(&self, ctx: &mut LiveCtx, c: &mut BulkClient) {
        c.region = Some(ctx.gm_alloc(c.shadow.len() * 2, Distribution::Blocked));
        c.shadow.fill(0);
    }

    fn measured(&self, ctx: &mut LiveCtx, c: &mut BulkClient, plan: &RepPlan) {
        let region = c.region.expect("prepared");
        let deadline = Instant::now() + plan.time_box;
        for i in 0usize.. {
            let start = Instant::now();
            if start >= deadline {
                break;
            }
            match c.ops[i % c.ops.len()] {
                BulkOp::Read { slot } => {
                    let at = slot as usize * gen::BULK_LEN;
                    ctx.gm_read_into(region, c.base + at as u64, &mut c.buf);
                    c.log
                        .record(READ, start, Instant::now(), 1, gen::BULK_LEN as u64);
                    if c.buf != c.shadow[at..at + gen::BULK_LEN] {
                        c.log.failed += 1;
                    }
                }
                BulkOp::Write { slot, payload } => {
                    let at = slot as usize * gen::BULK_LEN;
                    let data = &c.payloads[payload as usize];
                    ctx.gm_write(region, c.base + at as u64, data);
                    c.log
                        .record(WRITE, start, Instant::now(), 1, gen::BULK_LEN as u64);
                    c.shadow[at..at + gen::BULK_LEN].copy_from_slice(data);
                }
                BulkOp::Burst { offset } => {
                    for k in 0..gen::BURST_READS {
                        let at = c.base + u64::from(offset) + (k * gen::BURST_LEN) as u64;
                        c.handles.push(ctx.gm_read_nb(region, at, gen::BURST_LEN));
                    }
                    let mut wrong = 0;
                    for (k, handle) in c.handles.drain(..).enumerate() {
                        let at = offset as usize + k * gen::BURST_LEN;
                        let want = &c.shadow[at..at + gen::BURST_LEN];
                        if ctx.gm_wait(handle).as_deref() != Some(want) {
                            wrong += 1;
                        }
                    }
                    // The comparison of 32 KiB sits inside this span; it
                    // is the only way to check a burst's payload.
                    c.log.record(
                        BURST,
                        start,
                        Instant::now(),
                        gen::BURST_READS as u64,
                        (gen::BURST_READS * gen::BURST_LEN) as u64,
                    );
                    c.log.failed += wrong;
                }
            }
        }
    }
}
