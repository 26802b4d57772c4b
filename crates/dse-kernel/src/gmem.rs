//! The global memory management module.
//!
//! DSE's programming model is a shared *global memory* physically
//! partitioned across the processor elements: every region byte has a *home
//! node*, own-node accesses take the cheap linked-library path, and accesses
//! to bytes homed elsewhere become request/response messages to the home
//! node's kernel. This module owns region metadata, the backing bytes and
//! the home-mapping arithmetic; the timing of accesses is the kernel's and
//! API's business.

use std::fmt;

use parking_lot::Mutex;

use dse_msg::{NodeId, RegionId};

/// How a region's bytes are distributed over the nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// Split into `nnodes` contiguous chunks; node `i` homes chunk `i`.
    Blocked,
    /// Contiguous chunks of exactly `chunk` bytes; node `i` homes
    /// `[i*chunk, (i+1)*chunk)` and the last node also homes any tail.
    /// Use this to keep element boundaries aligned with home boundaries.
    BlockedBy {
        /// Chunk size in bytes.
        chunk: usize,
    },
    /// Round-robin blocks of the given byte size across nodes.
    Cyclic {
        /// Block size in bytes.
        block: usize,
    },
    /// Entire region homed on one node (master-held data, task counters).
    OnNode(NodeId),
}

/// Errors from global-memory operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GmError {
    /// The region id is unknown.
    NoSuchRegion(RegionId),
    /// An access fell outside the region.
    OutOfBounds {
        /// The offending region.
        region: RegionId,
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: usize,
        /// Actual region size.
        size: usize,
    },
    /// A fetch-add cell must be 8-byte sized and aligned and entirely homed
    /// on one node.
    BadAtomicCell {
        /// The offending region.
        region: RegionId,
        /// Requested offset.
        offset: u64,
    },
}

impl fmt::Display for GmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GmError::NoSuchRegion(r) => write!(f, "no such global-memory region {r}"),
            GmError::OutOfBounds {
                region,
                offset,
                len,
                size,
            } => write!(
                f,
                "out-of-bounds access to {region}: offset {offset} len {len} size {size}"
            ),
            GmError::BadAtomicCell { region, offset } => {
                write!(f, "bad atomic cell in {region} at offset {offset}")
            }
        }
    }
}

impl std::error::Error for GmError {}

struct Region {
    len: usize,
    dist: Distribution,
    data: Vec<u8>,
}

/// The cluster's global memory: all regions plus the home-mapping rules.
///
/// Access is internally locked; in the simulator only one process thread
/// runs at a time so there is never contention, and in the live engine the
/// lock provides the needed mutual exclusion.
pub struct GlobalStore {
    nnodes: usize,
    regions: Mutex<Vec<Region>>,
    /// The collective allocations so far, in order: region and size.
    collective: Mutex<Vec<(RegionId, usize)>>,
}

impl GlobalStore {
    /// A store for a cluster of `nnodes` processor elements.
    pub fn new(nnodes: usize) -> GlobalStore {
        assert!(nnodes > 0);
        GlobalStore {
            nnodes,
            regions: Mutex::new(Vec::new()),
            collective: Mutex::new(Vec::new()),
        }
    }

    /// Number of nodes the store distributes over.
    pub fn nnodes(&self) -> usize {
        self.nnodes
    }

    /// Allocate a zero-initialized region.
    pub fn alloc(&self, len: usize, dist: Distribution) -> RegionId {
        if let Distribution::Cyclic { block } = dist {
            assert!(block > 0, "cyclic block size must be positive");
        }
        if let Distribution::BlockedBy { chunk } = dist {
            assert!(chunk > 0, "blocked chunk size must be positive");
        }
        if let Distribution::OnNode(n) = dist {
            assert!(
                n.index() < self.nnodes,
                "home node {n} outside cluster of {}",
                self.nnodes
            );
        }
        let mut regions = self.regions.lock();
        let id = RegionId(regions.len() as u32);
        regions.push(Region {
            len,
            dist,
            data: vec![0u8; len],
        });
        id
    }

    /// Resolve the `seq`-th collective allocation: the first rank to ask
    /// allocates and publishes the region; later ranks get the same region
    /// and must ask for the same size.
    pub fn collective_alloc(&self, seq: usize, len: usize, dist: Distribution) -> RegionId {
        let mut table = self.collective.lock();
        if let Some(&(id, existing_len)) = table.get(seq) {
            assert_eq!(
                existing_len, len,
                "collective allocation #{seq} size mismatch: ranks disagree"
            );
            return id;
        }
        assert_eq!(
            table.len(),
            seq,
            "collective allocations must occur in the same order on all ranks"
        );
        let id = self.alloc(len, dist);
        table.push((id, len));
        id
    }

    /// Number of regions allocated so far.
    pub fn region_count(&self) -> usize {
        self.regions.lock().len()
    }

    /// Size of a region in bytes.
    pub fn region_len(&self, region: RegionId) -> Result<usize, GmError> {
        let regions = self.regions.lock();
        regions
            .get(region.0 as usize)
            .map(|r| r.len)
            .ok_or(GmError::NoSuchRegion(region))
    }

    fn check(
        regions: &[Region],
        region: RegionId,
        offset: u64,
        len: usize,
    ) -> Result<&Region, GmError> {
        let r = regions
            .get(region.0 as usize)
            .ok_or(GmError::NoSuchRegion(region))?;
        let end = offset.checked_add(len as u64).ok_or(GmError::OutOfBounds {
            region,
            offset,
            len,
            size: r.len,
        })?;
        if end > r.len as u64 {
            return Err(GmError::OutOfBounds {
                region,
                offset,
                len,
                size: r.len,
            });
        }
        Ok(r)
    }

    /// Run `f` over `len` bytes of a region, in place under the store's
    /// lock: the one pass every read makes, whatever it copies into.
    pub fn read_with<R>(
        &self,
        region: RegionId,
        offset: u64,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, GmError> {
        let regions = self.regions.lock();
        let r = Self::check(&regions, region, offset, len)?;
        Ok(f(&r.data[offset as usize..offset as usize + len]))
    }

    /// Copy `len` bytes out of a region into a buffer of exactly that
    /// capacity.
    pub fn read(&self, region: RegionId, offset: u64, len: usize) -> Result<Vec<u8>, GmError> {
        self.read_with(region, offset, len, <[u8]>::to_vec)
    }

    /// Write bytes into a region.
    pub fn write(&self, region: RegionId, offset: u64, data: &[u8]) -> Result<(), GmError> {
        let mut regions = self.regions.lock();
        let idx = region.0 as usize;
        Self::check(&regions, region, offset, data.len())?;
        regions[idx].data[offset as usize..offset as usize + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// The home of the atomic cell at `offset`: 8 bytes, aligned, inside the
    /// region and on one node, so that node's kernel can serialize it.
    fn atomic_cell(
        regions: &[Region],
        nnodes: usize,
        region: RegionId,
        offset: u64,
    ) -> Result<NodeId, GmError> {
        let r = Self::check(regions, region, offset, 8)?;
        let home = Self::home_of_inner(r, nnodes, offset);
        if !offset.is_multiple_of(8) || home != Self::home_of_inner(r, nnodes, offset + 7) {
            return Err(GmError::BadAtomicCell { region, offset });
        }
        Ok(home)
    }

    /// Home node of the fetch-add cell at `offset`, or why it is not one: a
    /// requester asks before it puts the cell on the wire.
    pub fn atomic_cell_home(&self, region: RegionId, offset: u64) -> Result<NodeId, GmError> {
        Self::atomic_cell(&self.regions.lock(), self.nnodes, region, offset)
    }

    /// Atomic fetch-and-add on an aligned 8-byte little-endian cell.
    pub fn fetch_add(&self, region: RegionId, offset: u64, delta: i64) -> Result<i64, GmError> {
        let mut regions = self.regions.lock();
        Self::atomic_cell(&regions, self.nnodes, region, offset)?;
        let cell = &mut regions[region.0 as usize].data[offset as usize..offset as usize + 8];
        let mut bytes = [0; 8];
        bytes.copy_from_slice(cell);
        let prev = i64::from_le_bytes(bytes);
        cell.copy_from_slice(&prev.wrapping_add(delta).to_le_bytes());
        Ok(prev)
    }

    fn home_of_inner(r: &Region, nnodes: usize, offset: u64) -> NodeId {
        let o = offset as usize;
        match r.dist {
            Distribution::OnNode(n) => n,
            Distribution::Blocked => {
                if r.len == 0 {
                    return NodeId(0);
                }
                let chunk = r.len.div_ceil(nnodes);
                NodeId(((o / chunk).min(nnodes - 1)) as u16)
            }
            Distribution::BlockedBy { chunk } => NodeId(((o / chunk).min(nnodes - 1)) as u16),
            Distribution::Cyclic { block } => NodeId(((o / block) % nnodes) as u16),
        }
    }

    /// Home node of the byte at `offset`.
    pub fn home_of(&self, region: RegionId, offset: u64) -> Result<NodeId, GmError> {
        let regions = self.regions.lock();
        let r = regions
            .get(region.0 as usize)
            .ok_or(GmError::NoSuchRegion(region))?;
        Ok(Self::home_of_inner(r, self.nnodes, offset))
    }

    /// Split `[offset, offset+len)` into maximal contiguous runs that share
    /// one home node: `(home, run_offset, run_len)` in address order.
    pub fn split_by_home(
        &self,
        region: RegionId,
        offset: u64,
        len: usize,
    ) -> Result<Vec<(NodeId, u64, usize)>, GmError> {
        let regions = self.regions.lock();
        let r = Self::check(&regions, region, offset, len)?;
        if len == 0 {
            return Ok(Vec::new());
        }
        let mut runs: Vec<(NodeId, u64, usize)> = Vec::new();
        let mut cursor = offset;
        let end = offset + len as u64;
        while cursor < end {
            let home = Self::home_of_inner(r, self.nnodes, cursor);
            // Find where this home's span ends.
            let span_end = match r.dist {
                Distribution::OnNode(_) => end,
                Distribution::Blocked => {
                    let chunk = r.len.div_ceil(self.nnodes) as u64;
                    let boundary = (cursor / chunk + 1) * chunk;
                    // The final chunk extends to the region end.
                    if home.index() == self.nnodes - 1 {
                        end
                    } else {
                        boundary.min(end)
                    }
                }
                Distribution::BlockedBy { chunk } => {
                    let boundary = (cursor / chunk as u64 + 1) * chunk as u64;
                    if home.index() == self.nnodes - 1 {
                        end
                    } else {
                        boundary.min(end)
                    }
                }
                Distribution::Cyclic { block } => {
                    let boundary = (cursor / block as u64 + 1) * block as u64;
                    boundary.min(end)
                }
            };
            let run_len = (span_end - cursor) as usize;
            match runs.last_mut() {
                Some((h, _, l)) if *h == home => *l += run_len,
                _ => runs.push((home, cursor, run_len)),
            }
            cursor = span_end;
        }
        Ok(runs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_read_write_roundtrip() {
        let gs = GlobalStore::new(4);
        let r = gs.alloc(100, Distribution::Blocked);
        gs.write(r, 10, &[1, 2, 3]).unwrap();
        assert_eq!(gs.read(r, 10, 3).unwrap(), vec![1, 2, 3]);
        assert_eq!(gs.read(r, 9, 1).unwrap(), vec![0]);
    }

    #[test]
    fn read_with_sees_the_bytes_in_place_and_read_copies_them_exactly() {
        let gs = GlobalStore::new(2);
        let r = gs.alloc(32, Distribution::Blocked);
        gs.write(r, 4, &[9, 8, 7, 6]).unwrap();
        let mut buf = [0u8; 6];
        gs.read_with(r, 3, 6, |src| buf.copy_from_slice(src))
            .unwrap();
        assert_eq!(buf, [0, 9, 8, 7, 6, 0]);
        let copy = gs.read(r, 3, 6).unwrap();
        assert_eq!((copy.as_slice(), copy.capacity()), (&buf[..], 6));
        let ran = gs.read_with(r, 30, 4, |_| ());
        assert!(matches!(ran, Err(GmError::OutOfBounds { .. })));
    }

    #[test]
    fn out_of_bounds_rejected() {
        let gs = GlobalStore::new(2);
        let r = gs.alloc(10, Distribution::Blocked);
        assert!(matches!(gs.read(r, 8, 3), Err(GmError::OutOfBounds { .. })));
        assert!(matches!(
            gs.write(r, 10, &[1]),
            Err(GmError::OutOfBounds { .. })
        ));
        // Offset overflow must not panic.
        assert!(gs.read(r, u64::MAX, 1).is_err());
    }

    #[test]
    fn unknown_region_rejected() {
        let gs = GlobalStore::new(2);
        assert_eq!(
            gs.read(RegionId(9), 0, 1),
            Err(GmError::NoSuchRegion(RegionId(9)))
        );
    }

    #[test]
    fn blocked_homes() {
        let gs = GlobalStore::new(4);
        let r = gs.alloc(100, Distribution::Blocked); // chunks of 25
        assert_eq!(gs.home_of(r, 0).unwrap(), NodeId(0));
        assert_eq!(gs.home_of(r, 24).unwrap(), NodeId(0));
        assert_eq!(gs.home_of(r, 25).unwrap(), NodeId(1));
        assert_eq!(gs.home_of(r, 99).unwrap(), NodeId(3));
    }

    #[test]
    fn blocked_homes_uneven() {
        let gs = GlobalStore::new(4);
        let r = gs.alloc(10, Distribution::Blocked); // ceil(10/4)=3: 3,3,3,1
        assert_eq!(gs.home_of(r, 9).unwrap(), NodeId(3));
        // Never exceeds node count even for the tail.
        let r2 = gs.alloc(5, Distribution::Blocked); // chunk 2: homes 0,0,1,1,2
        assert_eq!(gs.home_of(r2, 4).unwrap(), NodeId(2));
    }

    #[test]
    fn cyclic_homes() {
        let gs = GlobalStore::new(3);
        let r = gs.alloc(100, Distribution::Cyclic { block: 8 });
        assert_eq!(gs.home_of(r, 0).unwrap(), NodeId(0));
        assert_eq!(gs.home_of(r, 8).unwrap(), NodeId(1));
        assert_eq!(gs.home_of(r, 16).unwrap(), NodeId(2));
        assert_eq!(gs.home_of(r, 24).unwrap(), NodeId(0));
    }

    #[test]
    fn on_node_homes() {
        let gs = GlobalStore::new(3);
        let r = gs.alloc(64, Distribution::OnNode(NodeId(2)));
        assert_eq!(gs.home_of(r, 0).unwrap(), NodeId(2));
        assert_eq!(gs.home_of(r, 63).unwrap(), NodeId(2));
    }

    #[test]
    fn split_by_home_blocked() {
        let gs = GlobalStore::new(4);
        let r = gs.alloc(100, Distribution::Blocked);
        let runs = gs.split_by_home(r, 20, 40).unwrap();
        assert_eq!(
            runs,
            vec![(NodeId(0), 20, 5), (NodeId(1), 25, 25), (NodeId(2), 50, 10)]
        );
        // Runs cover the request exactly.
        let total: usize = runs.iter().map(|&(_, _, l)| l).sum();
        assert_eq!(total, 40);
    }

    #[test]
    fn split_by_home_cyclic_merges_adjacent() {
        let gs = GlobalStore::new(2);
        let r = gs.alloc(64, Distribution::Cyclic { block: 8 });
        let runs = gs.split_by_home(r, 0, 32).unwrap();
        assert_eq!(
            runs,
            vec![
                (NodeId(0), 0, 8),
                (NodeId(1), 8, 8),
                (NodeId(0), 16, 8),
                (NodeId(1), 24, 8)
            ]
        );
    }

    #[test]
    fn split_zero_len() {
        let gs = GlobalStore::new(2);
        let r = gs.alloc(10, Distribution::Blocked);
        assert!(gs.split_by_home(r, 5, 0).unwrap().is_empty());
    }

    #[test]
    fn collective_alloc_first_creates_then_reuses() {
        let gs = GlobalStore::new(2);
        let a = gs.collective_alloc(0, 100, Distribution::Blocked);
        let b = gs.collective_alloc(0, 100, Distribution::Blocked);
        assert_eq!(a, b);
        assert_eq!(gs.region_count(), 1, "must not create twice");
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn collective_alloc_size_mismatch_detected() {
        let gs = GlobalStore::new(2);
        let _ = gs.collective_alloc(0, 100, Distribution::Blocked);
        let _ = gs.collective_alloc(0, 200, Distribution::Blocked);
    }

    #[test]
    fn atomic_cell_home_checks_what_fetch_add_checks() {
        let gs = GlobalStore::new(2);
        // 12 bytes: node 0 homes [0, 6), node 1 the rest.
        let r = gs.alloc(12, Distribution::Blocked);
        let cells = gs.alloc(32, Distribution::Blocked);
        assert_eq!(gs.atomic_cell_home(cells, 24), Ok(NodeId(1)));
        for (region, offset) in [(r, 0), (cells, 3), (cells, 32), (cells, u64::MAX - 3)] {
            let err = gs.atomic_cell_home(region, offset).unwrap_err();
            assert_eq!(gs.fetch_add(region, offset, 1), Err(err));
        }
        assert!(matches!(
            gs.atomic_cell_home(cells, 32),
            Err(GmError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn fetch_add_semantics() {
        let gs = GlobalStore::new(2);
        let r = gs.alloc(16, Distribution::OnNode(NodeId(0)));
        assert_eq!(gs.fetch_add(r, 0, 5).unwrap(), 0);
        assert_eq!(gs.fetch_add(r, 0, -2).unwrap(), 5);
        assert_eq!(gs.fetch_add(r, 0, 0).unwrap(), 3);
        // The other cell is independent.
        assert_eq!(gs.fetch_add(r, 8, 7).unwrap(), 0);
    }

    #[test]
    fn fetch_add_alignment_enforced() {
        let gs = GlobalStore::new(2);
        let r = gs.alloc(16, Distribution::OnNode(NodeId(0)));
        assert!(matches!(
            gs.fetch_add(r, 3, 1),
            Err(GmError::BadAtomicCell { .. })
        ));
    }

    #[test]
    fn fetch_add_split_cell_rejected() {
        let gs = GlobalStore::new(2);
        // Cyclic block of 8 puts [8,16) on node 1; an 8-byte cell at 8 is
        // fine, but blocks of 4 would split any aligned cell.
        let r = gs.alloc(16, Distribution::Cyclic { block: 4 });
        assert!(matches!(
            gs.fetch_add(r, 0, 1),
            Err(GmError::BadAtomicCell { .. })
        ));
    }

    #[test]
    fn blocked_by_homes_and_split() {
        let gs = GlobalStore::new(3);
        let r = gs.alloc(100, Distribution::BlockedBy { chunk: 16 });
        assert_eq!(gs.home_of(r, 0).unwrap(), NodeId(0));
        assert_eq!(gs.home_of(r, 16).unwrap(), NodeId(1));
        assert_eq!(gs.home_of(r, 32).unwrap(), NodeId(2));
        // Tail beyond 3*16 stays on the last node.
        assert_eq!(gs.home_of(r, 99).unwrap(), NodeId(2));
        let runs = gs.split_by_home(r, 8, 32).unwrap();
        assert_eq!(
            runs,
            vec![(NodeId(0), 8, 8), (NodeId(1), 16, 16), (NodeId(2), 32, 8)]
        );
        // Run past the last boundary merges into the final node's span.
        let tail = gs.split_by_home(r, 40, 60).unwrap();
        assert_eq!(tail, vec![(NodeId(2), 40, 60)]);
    }

    #[test]
    fn fetch_add_wraps() {
        let gs = GlobalStore::new(1);
        let r = gs.alloc(8, Distribution::OnNode(NodeId(0)));
        gs.fetch_add(r, 0, i64::MAX).unwrap();
        // Wrapping add must not panic.
        let prev = gs.fetch_add(r, 0, 1).unwrap();
        assert_eq!(prev, i64::MAX);
    }
}
