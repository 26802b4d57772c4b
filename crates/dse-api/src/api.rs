//! The engine-independent Parallel API surface.
//!
//! The paper's portability claim is that one parallel application runs
//! unchanged on any platform that hosts the DSE libraries. We capture that
//! as a trait: application bodies written against [`ParallelApi`] run on
//! the deterministic simulated cluster ([`crate::DseCtx`]) *and* on the
//! real-thread live engine (`dse-live`), byte-identical results either way.

use dse_kernel::Distribution;
use dse_msg::RegionId;
use dse_platform::Work;

use crate::gm_client::{GmHandle, HandleInner, ReadBuf};

/// The operations every DSE execution engine provides to applications.
///
/// The split-phase entry points (`gm_read_nb`, `gm_write_nb`, `gm_wait`,
/// `gm_wait_all`) have defaults that degrade to the blocking operations, so
/// an engine without request pipelining (a test double) stays correct
/// without extra code: its handles are born complete. Both real engines
/// override them with the shared [`crate::GmClient`].
pub trait ParallelApi {
    /// This process's rank in `0..nprocs`.
    fn rank(&self) -> u32;
    /// Number of parallel processes.
    fn nprocs(&self) -> usize;
    /// Account for `work` of computation (virtual time on the simulator,
    /// a no-op on the live engine where the computation really ran).
    fn compute(&mut self, work: Work);
    /// Collectively allocate a zero-initialized global-memory region.
    fn gm_alloc(&mut self, len: usize, dist: Distribution) -> RegionId;
    /// Read bytes from global memory.
    fn gm_read(&mut self, region: RegionId, offset: u64, len: usize) -> Vec<u8>;
    /// Write bytes to global memory.
    fn gm_write(&mut self, region: RegionId, offset: u64, data: &[u8]);
    /// Read bytes from global memory into a caller-provided buffer,
    /// avoiding the return-value allocation where the engine can.
    fn gm_read_into(&mut self, region: RegionId, offset: u64, out: &mut [u8]) {
        let data = self.gm_read(region, offset, out.len());
        out.copy_from_slice(&data);
    }
    /// Begin a split-phase read; redeem the handle with [`ParallelApi::gm_wait`].
    fn gm_read_nb(&mut self, region: RegionId, offset: u64, len: usize) -> GmHandle {
        GmHandle::ready(Some(self.gm_read(region, offset, len)))
    }
    /// Begin a split-phase write; the handle completes when the write is
    /// globally visible.
    fn gm_write_nb(&mut self, region: RegionId, offset: u64, data: &[u8]) -> GmHandle {
        self.gm_write(region, offset, data);
        GmHandle::ready(None)
    }
    /// Redeem a split-phase handle: `Some(bytes)` for reads, `None` for
    /// writes.
    fn gm_wait(&mut self, handle: GmHandle) -> Option<Vec<u8>> {
        match handle.0 {
            HandleInner::Ready(data) => data.map(ReadBuf::into_vec),
            HandleInner::Queued(_) => {
                unreachable!("queued handle on an engine without pipelining")
            }
        }
    }
    /// Complete every outstanding split-phase operation, discarding results
    /// not yet claimed with `gm_wait`.
    fn gm_wait_all(&mut self) {}
    /// Take the engine's reusable scratch buffer (element-wise accessors
    /// use it to avoid per-call allocations); pair with
    /// [`ParallelApi::put_scratch`].
    fn take_scratch(&mut self) -> Vec<u8> {
        Vec::new()
    }
    /// Return a buffer taken with [`ParallelApi::take_scratch`].
    fn put_scratch(&mut self, _buf: Vec<u8>) {}
    /// Atomic fetch-and-add on an aligned 8-byte cell.
    fn gm_fetch_add(&mut self, region: RegionId, offset: u64, delta: i64) -> i64;
    /// Synchronize all ranks (auto-sequenced; same order on every rank).
    fn barrier(&mut self);
    /// Acquire a cluster-wide lock.
    fn lock(&mut self, id: u32);
    /// Release a cluster-wide lock.
    fn unlock(&mut self, id: u32);
    /// Release-consistency *release*: make this rank's prior GM writes
    /// globally visible (flushes the split-phase pipeline). Barriers and
    /// `unlock` imply a release, so data-race-free programs never need to
    /// call this directly.
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

impl ParallelApi for crate::DseCtx<'_> {
    fn rank(&self) -> u32 {
        crate::DseCtx::rank(self)
    }
    fn nprocs(&self) -> usize {
        crate::DseCtx::nprocs(self)
    }
    fn compute(&mut self, work: Work) {
        crate::DseCtx::compute(self, work)
    }
    fn gm_alloc(&mut self, len: usize, dist: Distribution) -> RegionId {
        crate::DseCtx::gm_alloc(self, len, dist)
    }
    fn gm_read(&mut self, region: RegionId, offset: u64, len: usize) -> Vec<u8> {
        crate::DseCtx::gm_read(self, region, offset, len)
    }
    fn gm_write(&mut self, region: RegionId, offset: u64, data: &[u8]) {
        crate::DseCtx::gm_write(self, region, offset, data)
    }
    fn gm_read_into(&mut self, region: RegionId, offset: u64, out: &mut [u8]) {
        crate::DseCtx::gm_read_into(self, region, offset, out)
    }
    fn gm_read_nb(&mut self, region: RegionId, offset: u64, len: usize) -> GmHandle {
        crate::DseCtx::gm_read_nb(self, region, offset, len)
    }
    fn gm_write_nb(&mut self, region: RegionId, offset: u64, data: &[u8]) -> GmHandle {
        crate::DseCtx::gm_write_nb(self, region, offset, data)
    }
    fn gm_wait(&mut self, handle: GmHandle) -> Option<Vec<u8>> {
        crate::DseCtx::gm_wait(self, handle)
    }
    fn gm_wait_all(&mut self) {
        crate::DseCtx::gm_wait_all(self)
    }
    fn take_scratch(&mut self) -> Vec<u8> {
        crate::DseCtx::take_scratch(self)
    }
    fn put_scratch(&mut self, buf: Vec<u8>) {
        crate::DseCtx::put_scratch(self, buf)
    }
    fn gm_fetch_add(&mut self, region: RegionId, offset: u64, delta: i64) -> i64 {
        crate::DseCtx::gm_fetch_add(self, region, offset, delta)
    }
    fn barrier(&mut self) {
        crate::DseCtx::barrier(self)
    }
    fn lock(&mut self, id: u32) {
        crate::DseCtx::lock(self, id)
    }
    fn unlock(&mut self, id: u32) {
        crate::DseCtx::unlock(self, id)
    }
    fn gm_release(&mut self) {
        crate::DseCtx::gm_release(self)
    }
    fn gm_acquire(&mut self) {
        crate::DseCtx::gm_acquire(self)
    }
}
