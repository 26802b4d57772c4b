//! Knight's-Tour enumeration (§4.4).
//!
//! The task is to find the routes by which a knight visits every square of
//! an N×N board exactly once. The paper uses this search to study
//! *computation granularity*: the tour search below a fixed prefix depth is
//! split into a configurable number of **jobs**, and the job count is swept
//! (too few jobs → idle processors; too many → communication frequency and
//! bus collisions dominate).
//!
//! Every job setting enumerates the same tree (prefixes are generated at a
//! fixed depth and only their *grouping* changes), so total work is
//! constant across the sweep and the curves isolate the granularity effect.

use dse_api::{Distribution, DseProgram, GmArray, GmCounter, NodeId, ParallelApi, RunResult, Work};

use crate::common::run_captured;

/// Charged integer operations per visited search node (move candidate
/// checks, bookkeeping).
const NODE_IOPS: u64 = 260;

/// Knight move deltas.
const MOVES: [(i32, i32); 8] = [
    (1, 2),
    (2, 1),
    (2, -1),
    (1, -2),
    (-1, -2),
    (-2, -1),
    (-2, 1),
    (-1, 2),
];

/// Problem description.
#[derive(Debug, Clone, Copy)]
pub struct KnightsParams {
    /// Board side N (the paper's granularity study fits a 5×5 board).
    pub board: usize,
    /// Number of jobs the prefix set is grouped into (the sweep variable).
    pub jobs: usize,
    /// Depth at which prefixes are enumerated (fixed across the sweep so
    /// total work is identical for every job count).
    pub prefix_depth: usize,
}

impl KnightsParams {
    /// The paper's configuration with the given job count.
    pub fn paper(jobs: usize) -> KnightsParams {
        KnightsParams {
            board: 5,
            jobs,
            prefix_depth: 6,
        }
    }
}

/// A partial tour: current square and visited-set (bitmask over N² squares).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prefix {
    /// Knight's current square (row-major index).
    pub pos: u8,
    /// Bitmask of visited squares.
    pub visited: u32,
    /// Squares visited so far.
    pub depth: u8,
}

#[inline]
fn neighbors(board: usize, pos: usize) -> impl Iterator<Item = usize> {
    let (r, c) = ((pos / board) as i32, (pos % board) as i32);
    MOVES.iter().filter_map(move |&(dr, dc)| {
        let (nr, nc) = (r + dr, c + dc);
        if nr >= 0 && nc >= 0 && (nr as usize) < board && (nc as usize) < board {
            Some(nr as usize * board + nc as usize)
        } else {
            None
        }
    })
}

/// Depth-first count of complete tours from a partial tour; also counts
/// visited search nodes (the charged work metric).
pub fn count_from(board: usize, p: Prefix, nodes: &mut u64) -> u64 {
    *nodes += 1;
    if p.depth as usize == board * board {
        return 1;
    }
    let mut total = 0;
    for n in neighbors(board, p.pos as usize) {
        if p.visited & (1 << n) == 0 {
            total += count_from(
                board,
                Prefix {
                    pos: n as u8,
                    visited: p.visited | (1 << n),
                    depth: p.depth + 1,
                },
                nodes,
            );
        }
    }
    total
}

/// The starting prefix (corner square, as in the classic statement).
pub fn start(_board: usize) -> Prefix {
    Prefix {
        pos: 0,
        visited: 1,
        depth: 1,
    }
}

/// Enumerate all partial tours of exactly `depth` squares (breadth-first,
/// deterministic order). These are the distributable units.
pub fn prefixes(board: usize, depth: usize) -> Vec<Prefix> {
    assert!(depth >= 1 && depth <= board * board);
    let mut level = vec![start(board)];
    for _ in 1..depth {
        let mut next = Vec::with_capacity(level.len() * 4);
        for p in &level {
            for n in neighbors(board, p.pos as usize) {
                if p.visited & (1 << n) == 0 {
                    next.push(Prefix {
                        pos: n as u8,
                        visited: p.visited | (1 << n),
                        depth: p.depth + 1,
                    });
                }
            }
        }
        level = next;
    }
    level
}

/// Sequential reference count of complete tours (plus nodes visited).
pub fn count_sequential(board: usize) -> (u64, u64) {
    let mut nodes = 0;
    let tours = count_from(board, start(board), &mut nodes);
    (tours, nodes)
}

/// Prefix indices belonging to job `j` (round-robin interleave, which
/// balances the wildly varying subtree sizes across jobs).
pub fn job_members(nprefixes: usize, jobs: usize, j: usize) -> impl Iterator<Item = usize> {
    (j..nprefixes).step_by(jobs)
}

/// The engine-independent SPMD body; rank 0 returns the tour count.
pub fn body<A: ParallelApi>(ctx: &mut A, params: &KnightsParams) -> Option<u64> {
    let board = params.board;
    // Every rank enumerates the (small) prefix level deterministically;
    // the jobs and their results are coordinated through global memory.
    let pfx = prefixes(board, params.prefix_depth);
    let njobs = params.jobs;
    let results = GmArray::<i64>::alloc(ctx, njobs, Distribution::OnNode(NodeId(0)));
    let counter = GmCounter::alloc(ctx);
    ctx.barrier();
    loop {
        let j = counter.next(ctx);
        if j as usize >= njobs {
            break;
        }
        let mut tours = 0u64;
        let mut nodes = 0u64;
        for i in job_members(pfx.len(), njobs, j as usize) {
            tours += count_from(board, pfx[i], &mut nodes);
        }
        ctx.compute(Work::iops(nodes * NODE_IOPS));
        results.set(ctx, j as usize, tours as i64);
    }
    ctx.barrier();
    if ctx.rank() == 0 {
        let total: i64 = results.read(ctx, 0, njobs).iter().sum();
        Some(total as u64)
    } else {
        None
    }
}

/// Run the parallel tour count; returns the measured run and the count.
pub fn count_parallel(
    program: &DseProgram,
    nprocs: usize,
    params: KnightsParams,
) -> (RunResult, u64) {
    run_captured(program, nprocs, move |ctx| body(ctx, &params))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_api::Platform;

    #[test]
    fn five_by_five_tour_count_is_stable() {
        let (tours, nodes) = count_sequential(5);
        // Known result: 304 open tours start at a 5×5 corner.
        assert_eq!(tours, 304);
        assert!(nodes > 10_000, "search tree implausibly small: {nodes}");
    }

    #[test]
    fn prefixes_partition_the_search() {
        // Summing complete tours over any prefix level reproduces the total.
        let (total, _) = count_sequential(5);
        for depth in [2, 4, 6] {
            let sum: u64 = prefixes(5, depth)
                .iter()
                .map(|&p| {
                    let mut n = 0;
                    count_from(5, p, &mut n)
                })
                .sum();
            assert_eq!(sum, total, "prefix depth {depth}");
        }
    }

    #[test]
    fn prefix_level_large_enough_for_max_jobs() {
        let n = prefixes(5, KnightsParams::paper(256).prefix_depth).len();
        assert!(n >= 256, "only {n} prefixes at the paper prefix depth");
    }

    #[test]
    fn job_members_partition_indices() {
        let n = 103;
        for jobs in [1, 4, 16, 64] {
            let mut seen = vec![false; n];
            for j in 0..jobs {
                for i in job_members(n, jobs, j) {
                    assert!(!seen[i]);
                    seen[i] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_count_matches_sequential() {
        let (total, _) = count_sequential(5);
        let program = DseProgram::new(Platform::sunos_sparc());
        for jobs in [4, 16] {
            let (_, count) = count_parallel(&program, 3, KnightsParams::paper(jobs));
            assert_eq!(count, total, "jobs={jobs}");
        }
    }

    #[test]
    #[ignore = "calibration only"]
    fn calibration_nodes() {
        let t0 = std::time::Instant::now();
        let (tours, nodes) = count_sequential(5);
        eprintln!("5x5: {tours} tours, {nodes} nodes, {:?}", t0.elapsed());
        let pf = prefixes(5, 6);
        eprintln!("prefixes at depth 6: {}", pf.len());
    }
}
