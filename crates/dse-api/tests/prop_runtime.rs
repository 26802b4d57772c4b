//! Property tests through the full simulated runtime: arbitrary sequences
//! of global-memory operations executed by multiple ranks (phase-separated
//! by barriers) match a flat mirror — with and without the GM cache — and
//! the cache never changes any observable value.

use proptest::prelude::*;

use dse_api::{Distribution, DseConfig, DseProgram, ParallelApi, Platform};
use dse_msg::NodeId;
use std::sync::{Arc, Mutex};

/// One scripted phase: every rank performs its op, then a barrier.
#[derive(Debug, Clone)]
enum Op {
    /// (rank that writes, offset, data byte, length)
    Write(u8, u16, u8, u8),
    /// (rank that reads, offset, length) — checked against the mirror
    Read(u8, u16, u8),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<u8>(), any::<u16>(), any::<u8>(), 1u8..64)
                .prop_map(|(r, o, v, l)| Op::Write(r, o, v, l)),
            (any::<u8>(), any::<u16>(), 1u8..64).prop_map(|(r, o, l)| Op::Read(r, o, l)),
        ],
        1..12,
    )
}

fn arb_dist() -> impl Strategy<Value = Distribution> {
    prop_oneof![
        Just(Distribution::Blocked),
        (64usize..700).prop_map(|c| Distribution::BlockedBy { chunk: c }),
        (32usize..300).prop_map(|b| Distribution::Cyclic { block: b }),
        Just(Distribution::OnNode(NodeId(0))),
        Just(Distribution::OnNode(NodeId(1))),
    ]
}

const LEN: usize = 1500;

fn run_script(ops: Vec<Op>, dist: Distribution, nprocs: usize, cache: bool) -> Vec<u8> {
    // Clamp a pinned home node into the cluster.
    let dist = match dist {
        Distribution::OnNode(n) => Distribution::OnNode(NodeId(n.0 % nprocs as u16)),
        other => other,
    };
    // Mirror maintained outside; reads are checked inside the program.
    let mut mirror = vec![0u8; LEN];
    let expected: Vec<(usize, usize, Vec<u8>)> = {
        // Precompute per-phase expected read results.
        let mut expected = Vec::new();
        for op in &ops {
            match *op {
                Op::Write(_, off, val, l) => {
                    let off = off as usize % LEN;
                    let l = (l as usize).min(LEN - off);
                    mirror[off..off + l].fill(val);
                }
                Op::Read(_, off, l) => {
                    let off = off as usize % LEN;
                    let l = (l as usize).min(LEN - off);
                    expected.push((off, l, mirror[off..off + l].to_vec()));
                }
            }
        }
        expected
    };
    let final_mirror = mirror;
    let observed: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
    let obs = Arc::clone(&observed);
    let ops = Arc::new(ops);
    let expected = Arc::new(expected);
    let config = DseConfig::paper().with_gm_cache(cache);
    DseProgram::new(Platform::linux_pentium2())
        .with_config(config)
        .run(nprocs, move |ctx| {
            let region = ctx.gm_alloc(LEN, dist);
            ctx.barrier();
            let mut read_idx = 0;
            for op in ops.iter() {
                match *op {
                    Op::Write(r, off, val, l) => {
                        if ctx.rank() == r as u32 % ctx.nprocs() as u32 {
                            let off = off as usize % LEN;
                            let l = (l as usize).min(LEN - off);
                            ctx.gm_write(region, off as u64, &vec![val; l]);
                        }
                    }
                    Op::Read(r, off, l) => {
                        let (eoff, el, ref want) = expected[read_idx];
                        read_idx += 1;
                        if ctx.rank() == r as u32 % ctx.nprocs() as u32 {
                            let off = off as usize % LEN;
                            let l = (l as usize).min(LEN - off);
                            assert_eq!((off, l), (eoff, el));
                            let got = ctx.gm_read(region, off as u64, l);
                            assert_eq!(&got, want, "phase read mismatch");
                        }
                    }
                }
                ctx.barrier();
            }
            if ctx.rank() == 0 {
                *obs.lock().unwrap() = ctx.gm_read(region, 0, LEN);
            }
        });
    let got = observed.lock().unwrap().clone();
    assert_eq!(got, final_mirror, "final region state diverged from mirror");
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn gm_semantics_match_mirror_without_cache(
        ops in arb_ops(),
        dist in arb_dist(),
        nprocs in 1usize..5,
    ) {
        run_script(ops, dist, nprocs, false);
    }

    #[test]
    fn gm_semantics_match_mirror_with_cache(
        ops in arb_ops(),
        dist in arb_dist(),
        nprocs in 1usize..5,
    ) {
        run_script(ops, dist, nprocs, true);
    }

    #[test]
    fn cache_is_observably_transparent(
        ops in arb_ops(),
        dist in arb_dist(),
        nprocs in 2usize..4,
    ) {
        let plain = run_script(ops.clone(), dist, nprocs, false);
        let cached = run_script(ops, dist, nprocs, true);
        prop_assert_eq!(plain, cached);
    }
}
