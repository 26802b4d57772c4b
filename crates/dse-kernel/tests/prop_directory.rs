//! Property tests for the sharing directory behind the GM coherence
//! protocols: the sharing vector tracks a reference model exactly, never
//! loses a live replica, invalidations cover exactly the recorded sharers,
//! and lease grant/revoke round-trips.

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use dse_kernel::cache::{blocks_touching, CacheStore, CACHE_BLOCK};
use dse_kernel::directory::{Directory, Sharers};
use dse_msg::{NodeId, RegionId};

const NODES: usize = 6;
const BLOCKS: u64 = 8;

/// One step of the directory state machine.
#[derive(Debug, Clone)]
enum Op {
    /// Reader `node` leases `block`.
    Grant { node: u16, block: u64 },
    /// Writer `node` writes a range: takes (and clears) the sharers.
    Take { node: u16, block: u64, span: usize },
    /// Writer `node` peeks the sharers (RC deferral count) — no change.
    Peek { node: u16, block: u64, span: usize },
    /// `node` acquires under RC: releases every lease it holds.
    ReleaseNode { node: u16 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    let node = 0u16..NODES as u16;
    let block = 0u64..BLOCKS;
    let span = 1usize..3 * CACHE_BLOCK;
    prop_oneof![
        (node.clone(), block.clone()).prop_map(|(node, block)| Op::Grant { node, block }),
        (node.clone(), block.clone(), span.clone()).prop_map(|(node, block, span)| Op::Take {
            node,
            block,
            span
        }),
        (node.clone(), block.clone(), span).prop_map(|(node, block, span)| Op::Peek {
            node,
            block,
            span
        }),
        node.prop_map(|node| Op::ReleaseNode { node }),
    ]
}

/// Reference model: plain sets per block.
#[derive(Default)]
struct Model {
    holders: HashMap<u64, HashSet<u16>>,
}

impl Model {
    fn sharers_of_range(&self, offset: u64, len: usize, exclude: u16) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = Vec::new();
        for b in blocks_touching(offset, len) {
            if let Some(set) = self.holders.get(&b) {
                for &n in set {
                    if n != exclude && !out.contains(&NodeId(n)) {
                        out.push(NodeId(n));
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn directory_matches_reference_model(
        ops in proptest::collection::vec(arb_op(), 1..60),
    ) {
        let r = RegionId(0);
        let dir = Directory::new();
        let mut model = Model::default();
        for op in ops {
            match op {
                Op::Grant { node, block } => {
                    let fresh = dir.grant(r, block, NodeId(node));
                    let model_fresh = model.holders.entry(block).or_default().insert(node);
                    prop_assert_eq!(fresh, model_fresh, "lease grant freshness");
                }
                Op::Take { node, block, span } => {
                    let offset = block * CACHE_BLOCK as u64;
                    let got = dir.take_range(r, offset, span, NodeId(node));
                    let want = model.sharers_of_range(offset, span, node);
                    // Invalidations cover exactly the recorded sharers.
                    prop_assert_eq!(&got, &want, "take must equal model sharers");
                    for b in blocks_touching(offset, span) {
                        model.holders.remove(&b);
                    }
                }
                Op::Peek { node, block, span } => {
                    let offset = block * CACHE_BLOCK as u64;
                    let got = dir.peek_range(r, offset, span, NodeId(node));
                    let want = model.sharers_of_range(offset, span, node);
                    prop_assert_eq!(got, want, "peek must not disturb the vector");
                }
                Op::ReleaseNode { node } => {
                    let released = dir.release_node(NodeId(node));
                    let mut model_released = 0usize;
                    model.holders.retain(|_, set| {
                        if set.remove(&node) {
                            model_released += 1;
                        }
                        !set.is_empty()
                    });
                    prop_assert_eq!(released, model_released, "release count");
                }
            }
            // Invariant after every step: the directory never loses a live
            // lease — each block's holders equal the model's exactly.
            for b in 0..BLOCKS {
                let mut want: Vec<NodeId> = model
                    .holders
                    .get(&b)
                    .map(|s| s.iter().map(|&n| NodeId(n)).collect())
                    .unwrap_or_default();
                want.sort_unstable();
                prop_assert_eq!(dir.holders(r, b), want, "block {} holders", b);
            }
        }
    }

    #[test]
    fn sharers_bitset_matches_set_semantics(
        ops in proptest::collection::vec((any::<bool>(), 0u16..128), 1..80),
    ) {
        let mut s = Sharers::new();
        let mut model: HashSet<u16> = HashSet::new();
        for (add, n) in ops {
            if add {
                prop_assert_eq!(s.insert(NodeId(n)), model.insert(n));
            } else {
                prop_assert_eq!(s.remove(NodeId(n)), model.remove(&n));
            }
            prop_assert_eq!(s.count(), model.len());
            prop_assert_eq!(s.is_empty(), model.is_empty());
        }
        let mut want: Vec<NodeId> = model.iter().map(|&n| NodeId(n)).collect();
        want.sort_unstable();
        prop_assert_eq!(s.nodes(), want);
    }

    #[test]
    fn cache_store_never_holds_unleased_replicas_under_wi(
        ops in proptest::collection::vec(arb_op(), 1..50),
    ) {
        // Drive a CacheStore the way the write-invalidate protocol does:
        // a grant, then the reader's install; takes are followed by holder-side drops,
        // release-node purges. Afterwards every cached block must still be
        // covered by a directory lease (the "directory never loses a live
        // replica" safety property: a write invalidates every real copy).
        let r = RegionId(0);
        let cs = CacheStore::new(NODES);
        for op in ops {
            match op {
                Op::Grant { node, block } => {
                    let (node, data) = (NodeId(node), [node as u8; CACHE_BLOCK]);
                    cs.grant(node, r, block);
                    let epoch = cs.epoch(node);
                    cs.install_data(node, epoch, r, std::iter::once((block, &data[..])));
                }
                Op::Take { node, block, span } => {
                    let offset = block * CACHE_BLOCK as u64;
                    for h in cs.take_holders(r, offset, span, NodeId(node)) {
                        cs.drop_range(h, r, offset, span);
                    }
                    // The writer's own stale copies go too.
                    cs.drop_range(NodeId(node), r, offset, span);
                }
                Op::Peek { node, block, span } => {
                    let offset = block * CACHE_BLOCK as u64;
                    let _ = cs.peek_holders(r, offset, span, NodeId(node));
                }
                Op::ReleaseNode { node } => {
                    cs.purge_node(NodeId(node));
                }
            }
        }
        for n in 0..NODES as u16 {
            for b in 0..BLOCKS {
                if cs.get(NodeId(n), r, b).is_some() {
                    prop_assert!(
                        cs.directory().holders(r, b).contains(&NodeId(n)),
                        "node {} holds block {} without a directory lease",
                        n,
                        b
                    );
                }
            }
        }
    }
}
