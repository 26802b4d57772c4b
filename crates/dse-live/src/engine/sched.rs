//! The live kernel driver: every PE's kernel as a poll-driven
//! [`KernelTask`] on a pool of workers.
//!
//! Each worker owns a static partition of the PEs and repeatedly visits
//! its kernels: (a) check the cluster abort latch, (b) feed the task what
//! its transport endpoint has received, (c) fire a [`KernelEvent::Tick`]
//! when the task's timer (telemetry emission, the idle heartbeat) is due.
//! How a worker receives depends only on whether it has anything else to
//! do. A worker with a single kernel waits in [`Transport::recv`] for the
//! task's timeout — the classic thread-per-PE kernel, woken by the message
//! itself. A worker whose kernels share it must never wait on one
//! endpoint, so it sweeps: a bounded batch per kernel through the
//! non-blocking [`Transport::poll_recv`], then a short sleep when a whole
//! sweep found nothing.
//!
//! [`SchedulerKind`] only sizes the pool ([`worker_count`]): one worker
//! per PE, or one per core so a process can host thousands of PEs. The
//! state machine, `play_outbound` and the `finish_kernel` teardown are the
//! same either way, which is why program results do not depend on it.
//!
//! App bodies remain blocking closures on dedicated threads
//! ([`app_stack`]); only kernel work multiplexes.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use dse_kernel::task::{abort_code, KernelEvent, KernelTask, Live, Progress};
use dse_kernel::{SchedulerKind, Watch};
use dse_msg::Message;
use dse_transport::{Envelope, Transport};

use super::{finish_kernel, play_outbound, LiveCluster};
use crate::error::FailureKind;

/// Bound on a task's wait between events: an idle kernel still sees a
/// `Tick` this often. A worker waiting in `recv` returns at least this
/// often to notice the cluster abort latch (or a silently dead peer). A
/// sweeping worker never waits on the tick — it checks the latch on every
/// visit and sleeps [`IDLE_SLEEP`] at most — so there the tick only paces
/// no-op `Tick` polls of idle kernels, and a longer one is cheaper.
const KERNEL_TICK: Duration = Duration::from_millis(50);

/// Per-task bound on messages drained in one sweep visit, so one busy PE
/// (PE 0 under coordination load) cannot starve its partition neighbors.
const MAX_BATCH: usize = 32;

/// Consecutive empty sweeps a worker spin-yields before it starts
/// sleeping between sweeps.
const SPIN_SWEEPS: u32 = 50;

/// Sleep between sweeps once a worker has gone idle: long enough to stop
/// burning a core, short enough to keep request latency well under the
/// kernel tick.
const IDLE_SLEEP: Duration = Duration::from_micros(200);

/// One kernel task being driven by a worker.
struct Slot<'a> {
    pe: u32,
    transport: &'a dyn Transport,
    task: KernelTask<Live<'a>>,
    /// When the task next wants a `Tick`.
    deadline: Instant,
    /// Set once the task is finished (clean, aborted, or failed).
    exit: Option<Result<Option<Message>, FailureKind>>,
}

impl<'a> Slot<'a> {
    fn new(
        cluster: &'a LiveCluster,
        pe: u32,
        transport: &'a dyn Transport,
        watch: Option<Watch<'a>>,
        start: Instant,
    ) -> Slot<'a> {
        let task = KernelTask::new(
            cluster.kernel_env(pe, start),
            watch,
            KERNEL_TICK,
            cluster.tracing,
        )
        .sharing(&cluster.barriers, &cluster.locks);
        Slot {
            pe,
            transport,
            deadline: task.deadline(),
            task,
            exit: None,
        }
    }
}

/// Workers in the pool: one per PE, or one per core when a run has more
/// PEs than that. `host` reads the machine's available parallelism and is
/// asked only when the answer depends on it: the read goes to the cgroup
/// files, which a two-PE run would see in its set-up time.
fn worker_count(kind: SchedulerKind, nprocs: usize, host: impl FnOnce() -> usize) -> usize {
    match kind {
        SchedulerKind::Threads => nprocs,
        SchedulerKind::Tasks => host().min(nprocs),
    }
}

/// Stack size for app threads, `None` for the platform default. The pool
/// sized for many-PE runs shrinks them: the bodies are shallow SPMD loops,
/// and a thousand default stacks would dwarf the run's working set.
pub(crate) fn app_stack(kind: SchedulerKind) -> Option<usize> {
    match kind {
        SchedulerKind::Threads => None,
        SchedulerKind::Tasks => Some(512 * 1024),
    }
}

/// Drive the kernel of every PE (`transports[pe]` is its endpoint) to
/// completion on the worker pool. Returns the first panic payload once
/// the whole cluster has drained.
pub(crate) fn run_kernels(
    cluster: &LiveCluster,
    kind: SchedulerKind,
    transports: &[Arc<dyn Transport>],
    watch: Option<Watch<'_>>,
    start: Instant,
) -> Result<(), Box<dyn Any + Send>> {
    let host = || thread::available_parallelism().map_or(4, |n| n.get());
    let nworkers = worker_count(kind, transports.len(), host);
    let joined: Vec<thread::Result<()>> = thread::scope(|s| {
        let handles: Vec<_> = (0..nworkers)
            .map(|w| {
                // Static round-robin partition: contiguous ranks land on
                // different workers, so the coordinator (PE 0) shares its
                // worker with as few hot neighbors as possible.
                let part = (w..transports.len()).step_by(nworkers);
                s.spawn(move || worker_loop(cluster, transports, part, watch, start))
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let first_panic = joined.into_iter().find_map(Result::err);
    if first_panic.is_some() {
        cluster.abort.store(true, Ordering::Release);
    }
    first_panic.map_or(Ok(()), Err)
}

/// How long a worker may wait inside `slots[i]`'s transport for its next
/// message. With the partition to itself the kernel can wait out its
/// task's timeout — no other kernel needs the worker. A partition of
/// several gets `None` (take only what has already arrived), and keeps it
/// after some have exited: they are torn down only once the whole
/// partition is done, so the rest still finish at sweep pace.
fn recv_wait(slots: &[Slot<'_>], i: usize) -> Option<Duration> {
    (slots.len() == 1).then(|| slots[i].task.timeout())
}

/// One worker: visit the partition's tasks until every one has exited,
/// then tear each down through `finish_kernel`. A panic inside a task
/// poll latches the cluster abort, lets the rest of the partition drain
/// through their abort-latch exits, and only then re-raises — so the
/// cluster never hangs on a dead coordinator.
fn worker_loop<'e>(
    cluster: &'e LiveCluster,
    transports: &'e [Arc<dyn Transport>],
    part: impl Iterator<Item = usize>,
    watch: Option<Watch<'e>>,
    start: Instant,
) {
    let mut slots: Vec<Slot<'e>> = part
        .map(|pe| Slot::new(cluster, pe as u32, transports[pe].as_ref(), watch, start))
        .collect();
    let mut panic_payload: Option<Box<dyn Any + Send>> = None;
    let mut idle_sweeps = 0u32;
    while slots.iter().any(|s| s.exit.is_none()) {
        let mut progressed = false;
        for i in 0..slots.len() {
            if slots[i].exit.is_some() {
                continue;
            }
            let wait = recv_wait(&slots, i);
            let slot = &mut slots[i];
            match catch_unwind(AssertUnwindSafe(|| step(cluster, slot, wait))) {
                Ok(p) => progressed |= p,
                Err(p) => {
                    // The task's protocol state is gone; the cluster can
                    // only abort. Mark this slot aborted so its teardown
                    // still shuts the endpoint down and wakes its app.
                    cluster.abort.store(true, Ordering::Release);
                    slot.exit = Some(Ok(Some(Message::Abort {
                        source: slot.pe,
                        code: abort_code::GENERIC,
                        detail: b"kernel task panicked".to_vec(),
                    })));
                    panic_payload.get_or_insert(p);
                    progressed = true;
                }
            }
        }
        if progressed {
            idle_sweeps = 0;
        } else {
            idle_sweeps += 1;
            if idle_sweeps < SPIN_SWEEPS {
                thread::yield_now();
            } else {
                thread::sleep(IDLE_SLEEP);
            }
        }
    }
    for slot in slots {
        let exit = slot.exit.expect("loop exits only when every slot has");
        finish_kernel(slot.pe, cluster, slot.transport, slot.task, exit);
    }
    if let Some(p) = panic_payload {
        resume_unwind(p);
    }
}

/// One visit to one live task: abort latch first, then its messages and
/// its timer. With `wait` the visit is one event — the next message, or a
/// `Tick` when none came in time. Without, it is a bounded batch of the
/// messages already there, then a `Tick` if the deadline has passed.
/// Returns whether any event was consumed. Sets `slot.exit` when the task
/// finishes.
fn step(cluster: &LiveCluster, slot: &mut Slot<'_>, wait: Option<Duration>) -> bool {
    if cluster.aborting() {
        let done = drive(cluster, slot, KernelEvent::AbortLatch);
        debug_assert!(done, "abort latch poll is terminal");
        return true;
    }
    if wait.is_some() {
        let event = match slot.transport.recv(wait) {
            Ok(Some(env)) => message(env),
            Ok(None) => KernelEvent::Tick,
            Err(e) => {
                slot.exit = Some(Err(FailureKind::Transport(e)));
                return true;
            }
        };
        drive(cluster, slot, event);
        return true;
    }
    let mut progressed = false;
    for _ in 0..MAX_BATCH {
        match slot.transport.poll_recv() {
            Ok(Some(env)) => {
                progressed = true;
                if drive(cluster, slot, message(env)) {
                    return true;
                }
            }
            Ok(None) => break,
            Err(e) => {
                slot.exit = Some(Err(FailureKind::Transport(e)));
                return true;
            }
        }
    }
    if Instant::now() >= slot.deadline {
        progressed = true;
        if drive(cluster, slot, KernelEvent::Tick) {
            return true;
        }
    }
    if progressed {
        slot.deadline = slot.task.deadline();
    }
    progressed
}

fn message(env: Envelope) -> KernelEvent {
    KernelEvent::Message {
        from: env.from,
        msg: env.msg,
        ctx: env.ctx,
    }
}

/// Feed one event and flush the outbox. Returns true when the slot
/// reached a terminal state.
fn drive(cluster: &LiveCluster, slot: &mut Slot<'_>, event: KernelEvent) -> bool {
    let prog = slot.task.poll(event);
    if let Err(e) = play_outbound(slot.task.drain_outbox(), slot.transport, cluster, slot.pe) {
        slot.exit = Some(Err(e));
        return true;
    }
    match prog {
        Progress::Pending => false,
        Progress::Clean => {
            slot.exit = Some(Ok(None));
            true
        }
        Progress::Aborted(frame) => {
            slot.exit = Some(match frame {
                // First-hand: this kernel rejected a peer's message. Any
                // other frame is relayed; its cause was reported where it
                // was seen.
                Message::Abort {
                    source,
                    code: abort_code::PROTOCOL,
                    detail,
                } if source == slot.pe => Err(FailureKind::PeerProtocol {
                    detail: String::from_utf8_lossy(&detail).into_owned(),
                }),
                frame => Ok(Some(frame)),
            });
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LiveRunConfig;
    use dse_transport::ChannelTransport;

    #[test]
    fn pool_has_a_worker_per_pe_or_per_core() {
        // PEs below, at and above the host's parallelism (8 here).
        for (nprocs, tasks) in [(3, 3), (8, 8), (64, 8)] {
            assert_eq!(worker_count(SchedulerKind::Threads, nprocs, || 8), nprocs);
            assert_eq!(worker_count(SchedulerKind::Tasks, nprocs, || 8), tasks);
        }
    }

    #[test]
    fn a_kernel_alone_waits_for_its_timeout_and_sharing_kernels_poll() {
        let cluster = LiveCluster::with_config(2, &LiveRunConfig::default(), true);
        let hook = |_: &dse_obs::ClusterAggregator, _: u64| {};
        let interval = Duration::from_millis(10);
        let start = Instant::now();
        let mesh = ChannelTransport::cluster(2);
        let partition = |n: usize, watch| -> Vec<Slot<'_>> {
            (0..n)
                .map(|pe| Slot::new(&cluster, pe as u32, &mesh[pe], watch, start))
                .collect()
        };

        let alone = partition(1, None);
        assert_eq!(recv_wait(&alone, 0), Some(KERNEL_TICK));
        // The wait is the task's, not the constant: a telemetry emission
        // due sooner shortens it.
        let watched = partition(1, cluster.watch(Some((interval, &hook as _))));
        assert!(recv_wait(&watched, 0).expect("one kernel waits") <= interval);

        let mut shared = partition(2, None);
        assert_eq!(recv_wait(&shared, 0), None);
        assert_eq!(recv_wait(&shared, 1), None);
        // The survivor of a shared partition keeps polling.
        shared[0].exit = Some(Ok(None));
        assert_eq!(recv_wait(&shared, 1), None);
    }
}
