//! Seeded input generators. A workload's program only ever sees the lists
//! built here: the seed picks offsets, values and order, never the amount
//! or the mix of work, so runs with different seeds stay comparable.

use dse_sim::SimRng;

/// 8-byte cells in the block each PE homes for the small-op workloads.
pub const SMALL_SLOTS: u32 = 512;
/// Operations in one generated small-op list (clients cycle through it).
pub const SMALL_OPS: usize = 4000;

/// 64 KiB transfers of the bulk workload.
pub const BULK_LEN: usize = 64 * 1024;
/// 64 KiB slots in the block each PE homes for the bulk workload.
pub const BULK_SLOTS: u32 = 4;
/// Size of one split-phase read in a burst.
pub const BURST_LEN: usize = 4 * 1024;
/// Adjacent split-phase reads issued before the first wait.
pub const BURST_READS: usize = 8;
/// Distinct generated write payloads.
pub const BULK_PAYLOADS: usize = 4;
/// Operation triples in one generated bulk list.
pub const BULK_ROUNDS: usize = 256;

/// One blocking 8-byte global-memory operation on cell `slot` of the
/// client's target block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmallOp {
    /// Read the cell.
    Read { slot: u32 },
    /// Overwrite the cell.
    Write { slot: u32, value: u64 },
    /// Atomically add to the cell.
    FetchAdd { slot: u32, delta: i64 },
}

/// The small-op list of client `pe`: exactly 70% reads, 20% writes and 10%
/// fetch-adds in a seeded order over seeded cells.
pub fn small_ops(seed: u64, pe: u32) -> Vec<SmallOp> {
    let mut rng = SimRng::new(seed).fork(u64::from(pe));
    let mut ops: Vec<SmallOp> = (0..SMALL_OPS)
        .map(|i| {
            let slot = rng.gen_range(u64::from(SMALL_SLOTS)) as u32;
            match i * 10 / SMALL_OPS {
                0..=6 => SmallOp::Read { slot },
                7..=8 => SmallOp::Write {
                    slot,
                    value: rng.next_u64(),
                },
                _ => SmallOp::FetchAdd {
                    slot,
                    delta: rng.gen_range(1 << 20) as i64 - (1 << 19),
                },
            }
        })
        .collect();
    shuffle(&mut ops, &mut rng);
    ops
}

/// One step of the bulk workload. A list is `BULK_ROUNDS` repetitions of
/// read, write, burst — writes run beside reads — with seeded targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BulkOp {
    /// Blocking 64 KiB `gm_read_into` of slot `slot`.
    Read { slot: u32 },
    /// Blocking 64 KiB `gm_write` of payload `payload` to slot `slot`.
    Write { slot: u32, payload: u32 },
    /// `BURST_READS` adjacent `BURST_LEN` split-phase reads starting at
    /// byte `offset` of the block, all issued before the first wait.
    Burst { offset: u32 },
}

/// The bulk list of client `pe`.
pub fn bulk_ops(seed: u64, pe: u32) -> Vec<BulkOp> {
    let mut rng = SimRng::new(seed ^ 0xB01C).fork(u64::from(pe));
    let burst_starts = (BULK_LEN * BULK_SLOTS as usize - BURST_LEN * BURST_READS) / BURST_LEN + 1;
    let mut ops = Vec::with_capacity(BULK_ROUNDS * 3);
    for _ in 0..BULK_ROUNDS {
        ops.push(BulkOp::Read {
            slot: rng.gen_range(u64::from(BULK_SLOTS)) as u32,
        });
        ops.push(BulkOp::Write {
            slot: rng.gen_range(u64::from(BULK_SLOTS)) as u32,
            payload: rng.gen_range(BULK_PAYLOADS as u64) as u32,
        });
        ops.push(BulkOp::Burst {
            offset: (rng.gen_range(burst_starts as u64) as usize * BURST_LEN) as u32,
        });
    }
    ops
}

/// The generated write payloads of the bulk workload.
pub fn bulk_payloads(seed: u64) -> Vec<Vec<u8>> {
    let mut rng = SimRng::new(seed ^ 0xDA7A);
    (0..BULK_PAYLOADS)
        .map(|_| {
            let mut buf = Vec::with_capacity(BULK_LEN);
            while buf.len() < BULK_LEN {
                buf.extend_from_slice(&rng.next_u64().to_le_bytes());
            }
            buf
        })
        .collect()
}

/// Seeds for the simulated applications' input data (matrix, image). The
/// amount of simulated work does not depend on them.
pub fn app_seeds(seed: u64) -> (u64, u64) {
    let mut rng = SimRng::new(seed ^ 0xA995);
    (rng.next_u64(), rng.next_u64())
}

fn shuffle<T>(items: &mut [T], rng: &mut SimRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(i as u64 + 1) as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_lists_different_seed_different_lists() {
        assert_eq!(small_ops(7, 1), small_ops(7, 1));
        assert_ne!(small_ops(7, 1), small_ops(8, 1));
        assert_ne!(small_ops(7, 1), small_ops(7, 0));
        assert_eq!(bulk_ops(7, 0), bulk_ops(7, 0));
        assert_ne!(bulk_ops(7, 0), bulk_ops(8, 0));
        assert_eq!(bulk_payloads(3), bulk_payloads(3));
        assert_ne!(bulk_payloads(3), bulk_payloads(4));
        assert_eq!(app_seeds(5), app_seeds(5));
        assert_ne!(app_seeds(5), app_seeds(6));
        // Byte-identical, not just equal under PartialEq.
        assert_eq!(
            format!("{:?}", small_ops(9, 3)),
            format!("{:?}", small_ops(9, 3))
        );
    }

    #[test]
    fn the_small_mix_is_exact_whatever_the_seed() {
        for seed in [0, 1, 99] {
            let ops = small_ops(seed, 0);
            let count = |f: fn(&SmallOp) -> bool| ops.iter().filter(|o| f(o)).count();
            assert_eq!(count(|o| matches!(o, SmallOp::Read { .. })), 2800);
            assert_eq!(count(|o| matches!(o, SmallOp::Write { .. })), 800);
            assert_eq!(count(|o| matches!(o, SmallOp::FetchAdd { .. })), 400);
        }
    }

    #[test]
    fn bulk_targets_stay_inside_the_block() {
        let block = BULK_LEN * BULK_SLOTS as usize;
        for op in bulk_ops(11, 1) {
            match op {
                BulkOp::Read { slot } => assert!(slot < BULK_SLOTS),
                BulkOp::Write { slot, payload } => {
                    assert!(slot < BULK_SLOTS && (payload as usize) < BULK_PAYLOADS)
                }
                BulkOp::Burst { offset } => {
                    assert!(offset as usize + BURST_LEN * BURST_READS <= block)
                }
            }
        }
        assert!(bulk_payloads(1).iter().all(|p| p.len() == BULK_LEN));
    }
}
