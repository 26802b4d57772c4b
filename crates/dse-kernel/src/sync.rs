//! Cluster-wide synchronization: barriers and locks.
//!
//! Coordination is centralized: one state per run (the DSE coordinator),
//! which node 0's kernel serves for the calls that arrive as messages and
//! a caller in place drives directly. These types hold the *state
//! machines*; the kernel loop and the API layer drive them and pay the
//! messaging costs. A barrier over `p` processes costs `p-1` enter
//! messages plus `p-1` release messages on the wire — which is exactly why
//! fine-grained synchronization hurts on the paper's bus Ethernet.

use std::collections::{HashMap, VecDeque};

use parking_lot::Mutex;

use dse_msg::{GlobalPid, NodeId, ReqId};
use dse_sim::ProcId;

/// A party registered with the coordinator (where to send its wakeup).
///
/// Generic over the reply token `R`: the simulator addresses wakeups to a
/// simulation process ([`ProcId`], the default), while the live engine
/// addresses them to a PE rank (`u32`) on its transport. The coordination
/// state machines are identical either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Party<R = ProcId> {
    /// Cluster-wide pid.
    pub pid: GlobalPid,
    /// Node the process runs on (selects local vs LAN reply path).
    pub node: NodeId,
    /// Where to deliver the wakeup (engine-specific address).
    pub reply_to: R,
    /// Correlation id for request/grant pairs (unused by barriers).
    pub req: ReqId,
}

/// Result of entering a barrier.
#[derive(Debug)]
pub enum BarrierOutcome<R = ProcId> {
    /// Not everyone is here yet; the enterer must wait for a release.
    Wait,
    /// The enterer was last: it (or the coordinating kernel) must now send
    /// `BarrierRelease{epoch}` to every listed earlier waiter.
    Complete {
        /// The epoch that just completed.
        epoch: u32,
        /// Everyone who was waiting (the last enterer is *not* included).
        waiters: Vec<Party<R>>,
    },
}

struct BarrierState<R> {
    epoch: u32,
    waiters: Vec<Party<R>>,
}

/// Barrier coordination state (one per run).
pub struct BarrierCenter<R = ProcId> {
    nprocs: usize,
    inner: Mutex<HashMap<u32, BarrierState<R>>>,
}

impl<R> BarrierCenter<R> {
    /// A center synchronizing `nprocs` parallel processes.
    pub fn new(nprocs: usize) -> BarrierCenter<R> {
        assert!(nprocs > 0);
        BarrierCenter {
            nprocs,
            inner: Mutex::new(HashMap::new()),
        }
    }

    /// Record `party` entering `barrier`.
    pub fn enter(&self, barrier: u32, party: Party<R>) -> BarrierOutcome<R> {
        let mut inner = self.inner.lock();
        let st = inner.entry(barrier).or_insert(BarrierState {
            epoch: 0,
            waiters: Vec::new(),
        });
        debug_assert!(
            !st.waiters.iter().any(|w| w.pid == party.pid),
            "{} entered barrier {barrier} twice in one epoch",
            party.pid
        );
        if st.waiters.len() + 1 == self.nprocs {
            let epoch = st.epoch;
            st.epoch += 1;
            let waiters = std::mem::take(&mut st.waiters);
            BarrierOutcome::Complete { epoch, waiters }
        } else {
            st.waiters.push(party);
            BarrierOutcome::Wait
        }
    }

    /// Current epoch of a barrier (how many times it has completed).
    pub fn epoch(&self, barrier: u32) -> u32 {
        self.inner.lock().get(&barrier).map_or(0, |s| s.epoch)
    }
}

/// Result of a lock acquisition attempt.
#[derive(Debug)]
pub enum LockOutcome {
    /// The lock was free; the requester now holds it.
    Granted,
    /// Someone holds it; the requester is queued and will get a
    /// `LockGrant` when its turn comes.
    Queued,
}

/// Result of a lock release.
#[derive(Debug)]
pub enum UnlockOutcome<R = ProcId> {
    /// No one was waiting; the lock is now free.
    Released,
    /// Ownership passes to this queued party; send it a `LockGrant`.
    Granted(Party<R>),
}

struct LockState<R> {
    holder: Option<GlobalPid>,
    queue: VecDeque<Party<R>>,
}

/// Lock coordination state (one per run).
pub struct LockCenter<R = ProcId> {
    inner: Mutex<HashMap<u32, LockState<R>>>,
}

impl<R> Default for LockCenter<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R> LockCenter<R> {
    /// An empty lock table.
    pub fn new() -> LockCenter<R> {
        LockCenter {
            inner: Mutex::new(HashMap::new()),
        }
    }

    /// Try to acquire `lock` for `party`.
    pub fn acquire(&self, lock: u32, party: Party<R>) -> LockOutcome {
        let mut inner = self.inner.lock();
        let st = inner.entry(lock).or_insert(LockState {
            holder: None,
            queue: VecDeque::new(),
        });
        match st.holder {
            None => {
                st.holder = Some(party.pid);
                LockOutcome::Granted
            }
            Some(holder) => {
                assert_ne!(holder, party.pid, "{holder} re-acquired lock {lock}");
                st.queue.push_back(party);
                LockOutcome::Queued
            }
        }
    }

    /// Release `lock`, which `pid` must hold.
    pub fn release(&self, lock: u32, pid: GlobalPid) -> UnlockOutcome<R> {
        let mut inner = self.inner.lock();
        let st = inner
            .get_mut(&lock)
            .unwrap_or_else(|| panic!("release of unknown lock {lock}"));
        assert_eq!(
            st.holder,
            Some(pid),
            "{pid} released lock {lock} it does not hold"
        );
        match st.queue.pop_front() {
            Some(next) => {
                st.holder = Some(next.pid);
                UnlockOutcome::Granted(next)
            }
            None => {
                st.holder = None;
                UnlockOutcome::Released
            }
        }
    }

    /// Current holder of a lock, if any.
    pub fn holder(&self, lock: u32) -> Option<GlobalPid> {
        self.inner.lock().get(&lock).and_then(|s| s.holder)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn party(n: u16) -> Party {
        Party {
            pid: GlobalPid::new(NodeId(n), 0),
            node: NodeId(n),
            reply_to: ProcId::from_index(n as usize),
            req: ReqId(n as u64),
        }
    }

    #[test]
    fn barrier_completes_on_last() {
        let b = BarrierCenter::new(3);
        assert!(matches!(b.enter(0, party(0)), BarrierOutcome::Wait));
        assert!(matches!(b.enter(0, party(1)), BarrierOutcome::Wait));
        match b.enter(0, party(2)) {
            BarrierOutcome::Complete { epoch, waiters } => {
                assert_eq!(epoch, 0);
                assert_eq!(waiters.len(), 2);
                assert!(waiters.iter().all(|w| w.pid != party(2).pid));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(b.epoch(0), 1);
    }

    #[test]
    fn barrier_epochs_advance() {
        let b = BarrierCenter::new(2);
        for epoch in 0..5 {
            assert!(matches!(b.enter(7, party(0)), BarrierOutcome::Wait));
            match b.enter(7, party(1)) {
                BarrierOutcome::Complete { epoch: e, .. } => assert_eq!(e, epoch),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(b.epoch(7), 5);
    }

    #[test]
    fn independent_barriers() {
        let b = BarrierCenter::new(2);
        assert!(matches!(b.enter(1, party(0)), BarrierOutcome::Wait));
        assert!(matches!(b.enter(2, party(1)), BarrierOutcome::Wait));
        assert!(matches!(
            b.enter(1, party(1)),
            BarrierOutcome::Complete { .. }
        ));
        assert!(matches!(
            b.enter(2, party(0)),
            BarrierOutcome::Complete { .. }
        ));
    }

    #[test]
    fn single_proc_barrier_always_completes() {
        let b = BarrierCenter::new(1);
        for _ in 0..3 {
            assert!(matches!(
                b.enter(0, party(0)),
                BarrierOutcome::Complete { .. }
            ));
        }
    }

    #[test]
    fn lock_grant_and_fifo_queue() {
        let l = LockCenter::new();
        assert!(matches!(l.acquire(1, party(0)), LockOutcome::Granted));
        assert!(matches!(l.acquire(1, party(1)), LockOutcome::Queued));
        assert!(matches!(l.acquire(1, party(2)), LockOutcome::Queued));
        assert_eq!(l.holder(1), Some(party(0).pid));
        match l.release(1, party(0).pid) {
            UnlockOutcome::Granted(p) => assert_eq!(p.pid, party(1).pid),
            other => panic!("unexpected {other:?}"),
        }
        match l.release(1, party(1).pid) {
            UnlockOutcome::Granted(p) => assert_eq!(p.pid, party(2).pid),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            l.release(1, party(2).pid),
            UnlockOutcome::Released
        ));
        assert_eq!(l.holder(1), None);
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn release_by_non_holder_panics() {
        let l = LockCenter::new();
        let _ = l.acquire(1, party(0));
        let _ = l.release(1, party(1).pid);
    }

    #[test]
    fn locks_are_independent() {
        let l = LockCenter::new();
        assert!(matches!(l.acquire(1, party(0)), LockOutcome::Granted));
        assert!(matches!(l.acquire(2, party(1)), LockOutcome::Granted));
    }
}
