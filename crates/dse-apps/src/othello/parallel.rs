//! Parallel Othello search (§4.3).
//!
//! The paper parallelizes the game at the root: subtrees are dealt to the
//! DSE processes and searched independently. We split one ply deep for
//! shallow searches and two plies deep from depth 4 (more tasks → better
//! load balance), with every task searched over a *full* alpha-beta window
//! so the assembled root scores are exactly the sequential values — and,
//! crucially for clean scaling curves, the total node count is independent
//! of the processor count.

use dse_api::{Distribution, DseProgram, GmArray, GmCounter, NodeId, ParallelApi, RunResult, Work};

use super::board::{apply, legal_moves, midgame, squares, Board};
use super::search::alphabeta;
use crate::common::run_captured;

/// Charged integer operations per visited search node (move generation,
/// flips, evaluation).
const NODE_IOPS: u64 = 200;

/// Problem description.
#[derive(Debug, Clone, Copy)]
pub struct OthelloParams {
    /// Search depth (the paper sweeps 3..8).
    pub depth: u32,
    /// Plies of pseudo-random play used to reach the midgame position.
    pub plies: usize,
    /// Seed for the midgame position.
    pub seed: u64,
}

impl OthelloParams {
    /// The paper's configuration at a given search depth.
    pub fn paper(depth: u32) -> OthelloParams {
        OthelloParams {
            depth,
            plies: 12,
            seed: 0x07E110,
        }
    }

    /// The position this configuration searches.
    pub fn position(&self) -> Board {
        midgame(self.plies, self.seed)
    }
}

/// One unit of distributable search work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Search the position after `mv` to `depth - 1`.
    OnePly {
        /// Root move.
        mv: u8,
    },
    /// Search the position after `mv`,`reply` to `depth - 2`.
    TwoPly {
        /// Root move.
        mv: u8,
        /// Opponent reply.
        reply: u8,
    },
}

/// Build the task list for a position at `depth` (deterministic).
pub fn make_tasks(b: Board, depth: u32) -> Vec<Task> {
    let mut tasks = Vec::new();
    for mv in squares(legal_moves(b)) {
        let bm = apply(b, mv);
        let replies = legal_moves(bm);
        if depth >= 4 && replies != 0 {
            for reply in squares(replies) {
                tasks.push(Task::TwoPly { mv, reply });
            }
        } else {
            tasks.push(Task::OnePly { mv });
        }
    }
    tasks
}

/// Execute one task: the returned value is, for `OnePly`, the root score of
/// `mv`; for `TwoPly`, the opponent's score for `reply` at the post-`mv`
/// position (assembled by [`assemble`]). Also returns nodes visited.
pub fn run_task(b: Board, depth: u32, task: Task) -> (i32, u64) {
    let mut nodes = 0;
    let full = (i32::MIN + 1, i32::MAX - 1);
    let v = match task {
        Task::OnePly { mv } => -alphabeta(apply(b, mv), depth - 1, full.0, full.1, &mut nodes),
        Task::TwoPly { mv, reply } => {
            let bm = apply(b, mv);
            -alphabeta(apply(bm, reply), depth - 2, full.0, full.1, &mut nodes)
        }
    };
    (v, nodes)
}

/// Combine task values into `(move, root score)` pairs, one per root move.
pub fn assemble(tasks: &[Task], values: &[i32]) -> Vec<(u8, i32)> {
    assert_eq!(tasks.len(), values.len());
    let mut scores: Vec<(u8, i32)> = Vec::new();
    let mut upsert = |mv: u8, f: &mut dyn FnMut(Option<i32>) -> i32| match scores
        .iter_mut()
        .find(|(m, _)| *m == mv)
    {
        Some((_, s)) => *s = f(Some(*s)),
        None => scores.push((mv, f(None))),
    };
    for (t, &v) in tasks.iter().zip(values) {
        match *t {
            Task::OnePly { mv } => upsert(mv, &mut |_| v),
            // Opponent maximizes its own value; the root negates it.
            Task::TwoPly { mv, .. } => {
                upsert(mv, &mut |old| match old {
                    None => -v,
                    Some(s) => s.min(-v),
                });
            }
        }
    }
    scores
}

/// Pick the winning `(move, score)` (ties: lowest square, matching the
/// sequential search's first-listed preference).
pub fn pick_best(scores: &[(u8, i32)]) -> (u8, i32) {
    let mut best = scores[0];
    for &(mv, v) in &scores[1..] {
        if v > best.1 {
            best = (mv, v);
        }
    }
    best
}

/// Sequential reference: same decomposition executed in a plain loop.
pub fn search_sequential(params: &OthelloParams) -> (u8, i32, u64) {
    let b = params.position();
    let tasks = make_tasks(b, params.depth);
    let mut values = Vec::with_capacity(tasks.len());
    let mut total_nodes = 0;
    for &t in &tasks {
        let (v, n) = run_task(b, params.depth, t);
        values.push(v);
        total_nodes += n;
    }
    let (mv, v) = pick_best(&assemble(&tasks, &values));
    (mv, v, total_nodes)
}

/// The engine-independent SPMD body; rank 0 returns `(move, score)`.
pub fn body<A: ParallelApi>(ctx: &mut A, params: &OthelloParams) -> Option<(u8, i32)> {
    let b = params.position();
    let tasks = make_tasks(b, params.depth);
    let values = GmArray::<i64>::alloc(ctx, tasks.len(), Distribution::OnNode(NodeId(0)));
    let counter = GmCounter::alloc(ctx);
    ctx.barrier();
    loop {
        let t = counter.next(ctx);
        if t as usize >= tasks.len() {
            break;
        }
        let (v, nodes) = run_task(b, params.depth, tasks[t as usize]);
        ctx.compute(Work::iops(nodes * NODE_IOPS));
        values.set(ctx, t as usize, v as i64);
    }
    ctx.barrier();
    if ctx.rank() == 0 {
        let vals: Vec<i32> = values
            .read(ctx, 0, tasks.len())
            .into_iter()
            .map(|v| v as i32)
            .collect();
        Some(pick_best(&assemble(&tasks, &vals)))
    } else {
        None
    }
}

/// Run the parallel search; returns the measured run and `(move, score)`.
pub fn search_parallel(
    program: &DseProgram,
    nprocs: usize,
    params: OthelloParams,
) -> (RunResult, (u8, i32)) {
    run_captured(program, nprocs, move |ctx| body(ctx, &params))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::othello::search::root_scores;
    use dse_api::Platform;

    #[test]
    fn task_decomposition_matches_direct_search() {
        for depth in [2, 3, 4, 5] {
            let params = OthelloParams::paper(depth);
            let b = params.position();
            let tasks = make_tasks(b, depth);
            let values: Vec<i32> = tasks.iter().map(|&t| run_task(b, depth, t).0).collect();
            let mut assembled = assemble(&tasks, &values);
            assembled.sort_unstable();
            let (mut direct, _) = root_scores(b, depth);
            direct.sort_unstable();
            assert_eq!(assembled, direct, "depth {depth}");
        }
    }

    #[test]
    fn two_ply_expansion_kicks_in_at_depth_4() {
        let b = OthelloParams::paper(5).position();
        let shallow = make_tasks(b, 3);
        let deep = make_tasks(b, 5);
        assert!(deep.len() > shallow.len());
        assert!(shallow.iter().all(|t| matches!(t, Task::OnePly { .. })));
    }

    #[test]
    fn parallel_equals_sequential() {
        let params = OthelloParams::paper(4);
        let (mv, v, _) = search_sequential(&params);
        let program = DseProgram::new(Platform::linux_pentium2());
        let (run, (pmv, pv)) = search_parallel(&program, 3, params);
        assert_eq!((pmv, pv), (mv, v));
        let fetch_adds = run.metrics.counter_sum_over_pes("kernel", "fetch_adds");
        assert!(fetch_adds as usize >= make_tasks(params.position(), 4).len());
    }

    #[test]
    fn node_counts_grow_with_depth() {
        let mut prev = 0;
        for depth in 3..=6 {
            let (_, _, nodes) = search_sequential(&OthelloParams::paper(depth));
            assert!(nodes > prev, "depth {depth}");
            prev = nodes;
        }
    }
}

#[cfg(test)]
mod calibration {
    use super::*;

    #[test]
    #[ignore = "calibration only"]
    fn node_counts_per_depth() {
        for depth in 3..=8 {
            let t0 = std::time::Instant::now();
            let (_, _, nodes) = search_sequential(&OthelloParams::paper(depth));
            eprintln!("depth {depth}: {nodes} nodes, {:?}", t0.elapsed());
        }
    }
}
