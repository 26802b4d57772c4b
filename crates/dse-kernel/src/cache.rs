//! The optional global-memory cache: read-replicate, write-invalidate.
//!
//! DSE's baseline semantics are pure request/response — every remote access
//! pays a message round trip. This extension (in the spirit of the DSM
//! systems the paper positions itself against) lets nodes keep copies of
//! remote blocks they have read:
//!
//! * reads install fixed-size blocks into a per-node cache; the home
//!   kernel's directory records who holds copies;
//! * any write (or atomic) to a range first invalidates all other holders'
//!   copies and waits for their acknowledgements, *then* acknowledges the
//!   writer — single-home transaction ordering, the classic sequential-
//!   consistency recipe for write-invalidate protocols.
//!
//! Only blocks *fully contained* in one request are cached (edge fragments
//! always go to the home), which keeps entries uniform without complicating
//! the home-run arithmetic.

use std::collections::HashMap;

use parking_lot::Mutex;

use dse_msg::{NodeId, RegionId};

use crate::directory::Directory;

/// Cache block granularity in bytes.
pub const CACHE_BLOCK: usize = 512;

/// Key of one cached block.
type BlockKey = (RegionId, u64);

/// First block index covering `offset`.
#[inline]
pub fn block_of(offset: u64) -> u64 {
    offset / CACHE_BLOCK as u64
}

/// Block indices intersecting `[offset, offset+len)`.
pub fn blocks_touching(offset: u64, len: usize) -> std::ops::Range<u64> {
    if len == 0 {
        return block_of(offset)..block_of(offset);
    }
    block_of(offset)..block_of(offset + len as u64 - 1) + 1
}

/// Block indices whose full `[b*B, (b+1)*B)` span lies inside the range.
pub fn blocks_inside(offset: u64, len: usize) -> std::ops::Range<u64> {
    let b = CACHE_BLOCK as u64;
    let first = offset.div_ceil(b);
    let last = (offset + len as u64) / b;
    first..last.max(first)
}

/// One node's replicas and its install epoch, under one lock: every drop
/// moves the epoch in the same step that removes the blocks.
#[derive(Default)]
struct NodeCache {
    blocks: HashMap<BlockKey, Vec<u8>>,
    /// How many drops this node's replicas have seen.
    epoch: u64,
}

/// Per-node block caches (one map per node, all living in the shared state
/// because both engines run a cluster in one address space; the per-node
/// separation is what the costs are charged against).
///
/// **A lease has two halves.** The home records the reader as a sharer when
/// it serves the read ([`CacheStore::grant`]); the requester installs the
/// bytes when it takes the answer ([`CacheStore::install_data`]), and only if
/// its node's install epoch has not moved since it sent the request. An
/// invalidation that lands between the two therefore can never be undone
/// by a late install, on either engine.
pub struct CacheStore {
    nodes: Vec<Mutex<NodeCache>>,
    /// Directory: which nodes hold a copy of each block. Lives with the
    /// data homes conceptually; centralized here because both engines run
    /// in one address space.
    directory: Directory,
}

impl CacheStore {
    /// Caches for `nnodes` nodes.
    pub fn new(nnodes: usize) -> CacheStore {
        CacheStore {
            nodes: (0..nnodes).map(|_| Mutex::default()).collect(),
            directory: Directory::new(),
        }
    }

    /// Look up a block copy held by `node`.
    pub fn get(&self, node: NodeId, region: RegionId, block: u64) -> Option<Vec<u8>> {
        self.nodes[node.index()]
            .lock()
            .blocks
            .get(&(region, block))
            .cloned()
    }

    /// Register `node` in the directory for `block`: the home's half of a
    /// lease, recorded when it serves the read. Returns true on a fresh
    /// lease (as opposed to one the directory already knew about).
    pub fn grant(&self, node: NodeId, region: RegionId, block: u64) -> bool {
        self.directory.grant(region, block, node)
    }

    /// `node`'s install epoch now: a requester keeps it with each read it
    /// sends, for [`CacheStore::install_data`].
    pub fn epoch(&self, node: NodeId) -> u64 {
        self.nodes[node.index()].lock().epoch
    }

    /// The requester's half of a lease: install the fetched `blocks` (block
    /// id, block bytes) at `node`, unless its install epoch moved from
    /// `epoch`, its value when the read was sent — then an invalidation
    /// raced the fetch and the bytes may be stale. Returns whether it
    /// installed.
    pub fn install_data<'d>(
        &self,
        node: NodeId,
        epoch: u64,
        region: RegionId,
        blocks: impl Iterator<Item = (u64, &'d [u8])>,
    ) -> bool {
        let mut cache = self.nodes[node.index()].lock();
        if cache.epoch != epoch {
            return false;
        }
        for (b, data) in blocks {
            debug_assert_eq!(data.len(), CACHE_BLOCK);
            cache.blocks.insert((region, b), data.to_vec());
        }
        true
    }

    /// Drop `node`'s copies of all blocks intersecting the range (the
    /// holder-side action of a `GmInvalidate`, and a writer's own copies),
    /// moving its install epoch.
    pub fn drop_range(&self, node: NodeId, region: RegionId, offset: u64, len: usize) {
        let mut cache = self.nodes[node.index()].lock();
        cache.epoch += 1;
        for b in blocks_touching(offset, len) {
            cache.blocks.remove(&(region, b));
        }
    }

    /// Remove directory registrations for every block intersecting the
    /// range and return the nodes (other than `exclude`) that held copies
    /// — the invalidation recipients.
    pub fn take_holders(
        &self,
        region: RegionId,
        offset: u64,
        len: usize,
        exclude: NodeId,
    ) -> Vec<NodeId> {
        self.directory.take_range(region, offset, len, exclude)
    }

    /// The sharers a write over the range *would* invalidate, without
    /// clearing their leases — how release consistency counts deferred
    /// invalidations.
    pub fn peek_holders(
        &self,
        region: RegionId,
        offset: u64,
        len: usize,
        exclude: NodeId,
    ) -> Vec<NodeId> {
        self.directory.peek_range(region, offset, len, exclude)
    }

    /// Drop every replica `node` holds and release its directory leases —
    /// the acquire-side self-invalidation of release consistency. Returns
    /// the number of replicas dropped.
    pub fn purge_node(&self, node: NodeId) -> usize {
        let dropped = {
            let mut cache = self.nodes[node.index()].lock();
            cache.epoch += 1;
            let n = cache.blocks.len();
            cache.blocks.clear();
            n
        };
        self.directory.release_node(node);
        dropped
    }

    /// Number of blocks currently cached at `node` (for tests/stats).
    pub fn cached_blocks(&self, node: NodeId) -> usize {
        self.nodes[node.index()].lock().blocks.len()
    }

    /// The backing sharing directory (diagnostics and property tests).
    pub fn directory(&self) -> &Directory {
        &self.directory
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: u64 = CACHE_BLOCK as u64;

    /// Both halves of a lease of `block` to `node`, its bytes all `byte`:
    /// whether the directory's half was fresh.
    fn lease_to(cs: &CacheStore, node: NodeId, r: RegionId, block: u64, byte: u8) -> bool {
        let data = vec![byte; CACHE_BLOCK];
        let epoch = cs.epoch(node);
        assert!(cs.install_data(node, epoch, r, std::iter::once((block, &data[..]))));
        cs.grant(node, r, block)
    }

    #[test]
    fn block_ranges() {
        assert_eq!(blocks_touching(0, 1), 0..1);
        assert_eq!(blocks_touching(0, CACHE_BLOCK), 0..1);
        assert_eq!(blocks_touching(0, CACHE_BLOCK + 1), 0..2);
        assert_eq!(blocks_touching(B - 1, 2), 0..2);
        assert_eq!(blocks_touching(B, 0), 1..1);
    }

    #[test]
    fn blocks_inside_requires_full_coverage() {
        assert_eq!(blocks_inside(0, CACHE_BLOCK), 0..1);
        assert_eq!(blocks_inside(1, CACHE_BLOCK), 1..1); // partial at both ends
        assert_eq!(blocks_inside(0, 3 * CACHE_BLOCK - 1), 0..2);
        assert_eq!(blocks_inside(B, 2 * CACHE_BLOCK), 1..3);
    }

    #[test]
    fn install_get_drop() {
        let cs = CacheStore::new(2);
        let r = RegionId(1);
        lease_to(&cs, NodeId(0), r, 3, 7);
        assert_eq!(cs.get(NodeId(0), r, 3).unwrap()[0], 7);
        assert!(cs.get(NodeId(1), r, 3).is_none());
        cs.drop_range(NodeId(0), r, 3 * B, CACHE_BLOCK);
        assert!(cs.get(NodeId(0), r, 3).is_none());
    }

    #[test]
    fn a_drop_between_send_and_install_refuses_the_install() {
        let cs = CacheStore::new(2);
        let r = RegionId(0);
        let data = vec![1; CACHE_BLOCK];
        let sent = cs.epoch(NodeId(1));
        cs.drop_range(NodeId(1), r, 0, 8);
        assert!(!cs.install_data(NodeId(1), sent, r, std::iter::once((0, &data[..]))));
        assert!(cs.get(NodeId(1), r, 0).is_none());
        let sent = cs.epoch(NodeId(1));
        cs.purge_node(NodeId(1));
        assert!(!cs.install_data(NodeId(1), sent, r, std::iter::once((0, &data[..]))));
        assert_eq!(cs.epoch(NodeId(0)), 0, "another node's epoch stays put");
    }

    #[test]
    fn directory_tracks_and_clears_holders() {
        let cs = CacheStore::new(3);
        let r = RegionId(0);
        lease_to(&cs, NodeId(1), r, 0, 0);
        lease_to(&cs, NodeId(2), r, 0, 0);
        lease_to(&cs, NodeId(2), r, 1, 0);
        // A write over blocks 0..2, from node 1's perspective.
        let holders = cs.take_holders(r, 0, 2 * CACHE_BLOCK, NodeId(1));
        assert_eq!(holders, vec![NodeId(2)]);
        // Directory is cleared: a second take returns nobody.
        assert!(cs.take_holders(r, 0, 2 * CACHE_BLOCK, NodeId(1)).is_empty());
    }

    #[test]
    fn purge_node_releases_replicas_and_leases() {
        let cs = CacheStore::new(2);
        let r = RegionId(0);
        assert!(lease_to(&cs, NodeId(0), r, 0, 0), "lease");
        assert!(!lease_to(&cs, NodeId(0), r, 0, 1));
        lease_to(&cs, NodeId(1), r, 0, 0);
        assert_eq!(cs.purge_node(NodeId(0)), 1);
        assert!(cs.get(NodeId(0), r, 0).is_none());
        // Node 0's lease is gone from the directory; node 1's survives.
        assert_eq!(cs.peek_holders(r, 0, CACHE_BLOCK, NodeId(2)), [NodeId(1)]);
        // peek left the lease in place; take clears it.
        assert_eq!(cs.take_holders(r, 0, CACHE_BLOCK, NodeId(2)), [NodeId(1)]);
        assert!(cs.peek_holders(r, 0, CACHE_BLOCK, NodeId(2)).is_empty());
    }

    #[test]
    fn grant_without_data_still_invalidated() {
        let cs = CacheStore::new(2);
        let r = RegionId(0);
        assert!(cs.grant(NodeId(1), r, 4), "directory-only lease");
        assert!(cs.get(NodeId(1), r, 4).is_none(), "no data installed");
        assert_eq!(
            cs.take_holders(r, 4 * B, CACHE_BLOCK, NodeId(0)),
            [NodeId(1)]
        );
    }

    #[test]
    fn take_holders_dedups_across_blocks() {
        let cs = CacheStore::new(2);
        let r = RegionId(0);
        lease_to(&cs, NodeId(1), r, 0, 0);
        lease_to(&cs, NodeId(1), r, 1, 0);
        let holders = cs.take_holders(r, 0, 2 * CACHE_BLOCK, NodeId(0));
        assert_eq!(holders, vec![NodeId(1)]);
    }
}
