//! The engine-independent Parallel API surface.
//!
//! The paper's portability claim is that one parallel application runs
//! unchanged on any platform that hosts the DSE libraries. We capture that
//! as a trait: application bodies written against [`ParallelApi`] run on
//! the deterministic simulated cluster ([`crate::DseCtx`]) *and* on the
//! real-thread live engine (`dse_live::LiveCtx`), byte-identical results
//! either way. Both are one type, [`crate::ApiCtx`] over the engine's
//! [`crate::GmPort`], so the trait has one implementation (in `ctx.rs`,
//! beside the context's fields); what remains for a second implementor is a
//! test double, which the blocking defaults of the split-phase entry points
//! keep small.

use dse_kernel::Distribution;
use dse_msg::RegionId;
use dse_platform::Work;

use crate::gm_client::{GmHandle, HandleInner, ReadBuf};

/// The operations every DSE execution engine provides to applications.
///
/// The split-phase entry points (`gm_read_nb`, `gm_write_nb`, `gm_wait`,
/// `gm_wait_all`) have defaults that degrade to the blocking operations, so
/// an engine without request pipelining (a test double) stays correct
/// without extra code: its handles are born complete. [`crate::ApiCtx`]
/// overrides them with the shared [`crate::GmClient`].
pub trait ParallelApi {
    /// This process's rank in `0..nprocs`.
    fn rank(&self) -> u32;
    /// Number of parallel processes in the program.
    fn nprocs(&self) -> usize;
    /// Account for `work` of computation: on the simulator a charge to this
    /// node's CPU (FCFS with every co-resident kernel and process on the
    /// same physical machine), on the live engine nothing — the computation
    /// really ran.
    fn compute(&mut self, work: Work);
    /// Collectively allocate a zero-initialized global-memory region. Every
    /// rank must call with identical arguments and in the same order.
    fn gm_alloc(&mut self, len: usize, dist: Distribution) -> RegionId;
    /// Read `len` bytes at `offset` from a region. Own-node ranges take the
    /// linked-library fast path; remote ranges become pipelined
    /// request/response exchanges with the home kernels.
    fn gm_read(&mut self, region: RegionId, offset: u64, len: usize) -> Vec<u8>;
    /// Write bytes at `offset` into a region (pipelined per home node).
    fn gm_write(&mut self, region: RegionId, offset: u64, data: &[u8]);
    /// Read `out.len()` bytes at `offset` straight into a caller-provided
    /// buffer. An entirely own-node range copies without any intermediate
    /// allocation; anything else is a [`ParallelApi::gm_read`].
    fn gm_read_into(&mut self, region: RegionId, offset: u64, out: &mut [u8]) {
        let data = self.gm_read(region, offset, out.len());
        out.copy_from_slice(&data);
    }
    /// Begin a split-phase read: returns immediately with a [`GmHandle`];
    /// redeem it with [`ParallelApi::gm_wait`]. Remote segments are
    /// *staged*, and adjacent or overlapping stages to the same home
    /// coalesce into one request; staged work reaches the wire when the
    /// pipelining window fills, a handle is waited on, or a synchronization
    /// point fences.
    fn gm_read_nb(&mut self, region: RegionId, offset: u64, len: usize) -> GmHandle {
        GmHandle::ready(Some(self.gm_read(region, offset, len)))
    }
    /// Begin a split-phase write; the handle completes when the write is
    /// globally visible. Staged writes to touching or overlapping ranges of
    /// the same home coalesce into one request (later bytes win on
    /// overlap), and staged operations bound for the same home travel as
    /// one batched message.
    fn gm_write_nb(&mut self, region: RegionId, offset: u64, data: &[u8]) -> GmHandle {
        self.gm_write(region, offset, data);
        GmHandle::ready(None)
    }
    /// Redeem a split-phase handle: flushes any staged work, then drains
    /// responses until this handle's operation completes. `Some(bytes)` for
    /// reads, `None` for writes.
    ///
    /// # Panics
    ///
    /// Panics on a handle whose result was already discarded by
    /// [`ParallelApi::gm_wait_all`].
    fn gm_wait(&mut self, handle: GmHandle) -> Option<Vec<u8>> {
        match handle.0 {
            HandleInner::Ready(data) => data.map(ReadBuf::into_vec),
            HandleInner::Queued(_) => {
                unreachable!("queued handle on an engine without pipelining")
            }
        }
    }
    /// Complete every outstanding split-phase operation and *discard* any
    /// results not yet claimed with `gm_wait` (a later `gm_wait` on such a
    /// handle panics). Use it as a fence after a burst of `gm_write_nb`
    /// calls whose handles are not individually interesting.
    fn gm_wait_all(&mut self) {}
    /// Take the engine's reusable scratch buffer (element-wise accessors
    /// use it to avoid per-call allocations); pair with
    /// [`ParallelApi::put_scratch`].
    fn take_scratch(&mut self) -> Vec<u8> {
        Vec::new()
    }
    /// Return a buffer taken with [`ParallelApi::take_scratch`].
    fn put_scratch(&mut self, _buf: Vec<u8>) {}
    /// Atomic fetch-and-add on an aligned 8-byte cell; returns the previous
    /// value. The cell's home kernel serializes concurrent updates. A cell
    /// that is misaligned, out of range or split between two homes fails
    /// the calling rank before anything is sent.
    fn gm_fetch_add(&mut self, region: RegionId, offset: u64, delta: i64) -> i64;
    /// Synchronize all ranks. Every rank must call `barrier` the same number
    /// of times in the same order (auto-sequenced ids).
    fn barrier(&mut self);
    /// Acquire a cluster-wide lock (FIFO).
    fn lock(&mut self, id: u32);
    /// Release a cluster-wide lock this process holds.
    fn unlock(&mut self, id: u32);
    /// Release-consistency *release*: make this rank's prior GM writes
    /// globally visible (flushes the split-phase pipeline). Barriers,
    /// `unlock` and atomics imply a release, so data-race-free programs
    /// never need to call this directly.
    fn gm_release(&mut self) {
        self.gm_wait_all();
    }
    /// Release-consistency *acquire*: ensure subsequent GM reads observe
    /// writes released before this point. Under the release-consistency
    /// cache mode this drops the rank's read replicas; elsewhere it is a
    /// fence. Barriers and `lock` imply an acquire.
    fn gm_acquire(&mut self) {
        self.gm_wait_all();
    }
}
