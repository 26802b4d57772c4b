//! The direct-execution discrete-event engine.
//!
//! Each simulated process runs its *real* Rust code on a dedicated OS thread,
//! but exactly one thread executes at any instant: the runnable entity with
//! the lowest virtual time runs until it yields (every blocking context-API
//! call yields), and only then does the next one proceed. Virtual time
//! advances solely through the context API, so event handling is totally
//! ordered by `(time, sequence)` and a run is bit-for-bit deterministic.
//!
//! This is the classic "direct execution" simulation style: application
//! results are computed for real (a solver really converges, a game tree is
//! really searched) while *timing* comes entirely from the cost model that
//! callers express through [`ProcCtx::use_resource`], [`ProcCtx::sleep`] and
//! message latencies.
//!
//! ## The shared scheduler core
//!
//! All scheduler state — event heap, per-process slots (state, epoch, inbox,
//! a one-slot resume mailbox, the thread handle), resource queues,
//! statistics — lives in one [`Core`] behind one mutex, shared by
//! every process context and the thread inside [`Simulator::run`]. Because
//! exactly one thread runs at a time the mutex is never contended and the
//! interleaving of core operations is deterministic.
//!
//! There is no engine thread. The scheduler is a *baton*: whichever process
//! is running holds it, and a process that blocks dispatches the next event
//! itself.
//!
//! - [`ProcCtx::send`] and [`ProcCtx::spawn`] only append to the core, and
//!   [`ProcCtx::recv`] on a non-empty inbox only pops from it: no context
//!   switch.
//! - [`ProcCtx::sleep`] and [`ProcCtx::use_resource`] complete inline when
//!   the resulting wake would be the very next event popped (no earlier
//!   event is queued, and nothing can be queued before it while the caller
//!   is the running process): no context switch
//!   ([`SimStats::inline_wakes`]).
//! - Every other blocking call — `recv` on an empty inbox, a sleep or hold
//!   whose wake is not next, the end of the process function — records the
//!   caller's own yield under the core lock and then runs the
//!   pop-and-dispatch loop on the caller's thread. Deliveries are handled in
//!   place. A wake for the caller itself returns inline: no context switch.
//!   A wake for another process fills that process's mailbox, unlocks,
//!   unparks it and parks the caller: one context switch
//!   ([`SimStats::handoffs`]), where a scheduler thread in the middle would
//!   cost two.
//! - A passive [`Component`] has a slot, an inbox and wakes like a process
//!   but no thread: the dispatcher resumes it in place, under the core
//!   lock, as a function call ([`component`]). No context switch, ever.
//!
//! The thread inside [`Simulator::run`] only dispatches until the first
//! process starts, sleeps until a dispatcher finds the heap empty (or a
//! process panics), and then drains: every process still blocked is released
//! with a shutdown indication, one at a time, and joined.
//!
//! Whichever thread pops an event does exactly the bookkeeping any other
//! would, so the logical event sequence — counters, virtual times, FCFS
//! grants and the determinism hash — does not depend on who
//! carried the baton; only the number of OS context switches does.
//!
//! Two rules of the hand-off are measured, not stylistic:
//!
//! - **Unpark after unlock.** The next thread is unparked only once the
//!   core lock is released ([`pass`]). Unparking while holding it lets the
//!   woken thread preempt the waker and immediately block on the mutex,
//!   which puts the second context switch back (3.4 µs per hand-off against
//!   0.9 µs pinned to one CPU).
//! - **Join before proceeding.** A process that ends leaves its join handle
//!   in the core, and the next baton holder joins it before doing anything
//!   else ([`await_resume`]), so a finished thread's stack and allocator
//!   arena are released before the next thread allocates. Leaving the joins
//!   to the end of the run changes the order glibc recycles arenas and cost
//!   12 MB of peak RSS on a 5-application run (38 → 50 MB).

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::{self, JoinHandle, Thread};

use parking_lot::{Mutex, MutexGuard};

pub use component::{CompCtx, Component, Wait, Wakeup};

mod component;

use crate::envelope::{Envelope, RecvResult};
use crate::ids::{ProcId, ResourceId};
use crate::stats::{ResourceStats, SimReport, SimStats, TraceHasher};
use crate::time::{SimDuration, SimTime};

type ProcFn<M> = Box<dyn FnOnce(&mut ProcCtx<M>) + Send + 'static>;

/// What a process finds in its mailbox when it is resumed.
enum ResumePayload<M: Send + 'static> {
    /// Plain wakeup (wait expired, start).
    None,
    /// A received message.
    Msg(Envelope<M>),
    /// A `recv` deadline expired with no message.
    Timeout,
    /// The simulation is over; unblock and clean up.
    Shutdown,
}

struct Resume<M: Send + 'static> {
    time: SimTime,
    payload: ResumePayload<M>,
}

/// Heap event actions.
enum Action<M: Send + 'static> {
    /// Resume process if its epoch still matches.
    Wake(ProcId, u64, ResumePayload<M>),
    /// Deposit a message at its destination.
    Deliver(ProcId, Envelope<M>),
    /// A component's timer, if its timer epoch still matches.
    Timer(ProcId, u64),
}

/// How a pop-and-dispatch loop ended.
enum Baton<M: Send + 'static> {
    /// The dispatcher's own wake came up: it keeps running, no switch.
    Kept(Resume<M>),
    /// Another thread runs next: a process whose mailbox was just filled,
    /// or the run thread because the heap is empty. Hand over with [`pass`].
    Passed(Thread),
}

/// Bits of the packed heap key reserved for the slab slot index; the rest
/// carry the global schedule sequence. 24 bits bound the number of
/// *outstanding* (scheduled, not yet fired) events at ~16.7M, leaving 40
/// bits of sequence — ~10^12 events per run before wraparound.
const SLOT_BITS: u32 = 24;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    /// Has a pending wake event in the heap.
    Scheduled,
    /// Blocked in `recv` (a deadline wake may be pending); a component
    /// waiting for a message.
    Blocked,
    /// Currently executing: it holds the baton, or it is a component being
    /// resumed by the baton holder.
    Running,
    /// Finished.
    Done,
}

struct ProcSlot<M: Send + 'static> {
    name: String,
    state: ProcState,
    /// Guards against stale wake events; bumped whenever a wake is scheduled.
    epoch: u64,
    time: SimTime,
    /// Whether the process has been resumed at least once.
    started: bool,
    inbox: VecDeque<Envelope<M>>,
    /// One-slot resume mailbox: filled under the core lock by whoever
    /// dispatches this process's wake (or tears the run down), emptied by
    /// the process once it has been unparked.
    mailbox: Option<Resume<M>>,
    /// The process's OS thread, until someone takes it to join it.
    thread: Option<JoinHandle<()>>,
    /// A passive component's body (no thread), until it finishes; taken
    /// out while it is being resumed.
    component: Option<Box<dyn Component<M>>>,
    /// The component's armed timer deadline and the epoch guarding its heap
    /// event.
    timer: Option<SimTime>,
    timer_epoch: u64,
}

impl<M: Send + 'static> ProcSlot<M> {
    fn new(name: &str) -> Self {
        ProcSlot {
            name: name.to_string(),
            state: ProcState::Scheduled,
            epoch: 0,
            time: SimTime::ZERO,
            started: false,
            inbox: VecDeque::new(),
            mailbox: None,
            thread: None,
            component: None,
            timer: None,
            timer_epoch: 0,
        }
    }
}

struct ResourceState {
    name: String,
    available_at: SimTime,
    stats_busy: SimDuration,
    stats_waited: SimDuration,
    acquisitions: u64,
}

/// The mutable scheduler state shared between every [`ProcCtx`] and the
/// thread inside [`Simulator::run`]. See the module docs for why the mutex
/// is uncontended and the operation order deterministic.
struct Core<M: Send + 'static> {
    /// Min-heap of `(time, seq << SLOT_BITS | slot)` keys. Ordering is by
    /// `(time, seq)` — the sequence is globally unique, so the slot bits
    /// never decide a comparison — and sift operations move 16-byte keys
    /// instead of full `Action` payloads. The payload lives in `slab` at
    /// the key's slot until the key is popped.
    heap: BinaryHeap<Reverse<(SimTime, u64)>>,
    /// Indexed event storage; `free` recycles vacated slots so steady-state
    /// scheduling allocates nothing.
    slab: Vec<Option<Action<M>>>,
    free: Vec<u32>,
    /// Queued events that are not component timers
    /// ([`CompCtx::only_timers_pending`]).
    non_timers: usize,
    seq: u64,
    now: SimTime,
    stats: SimStats,
    hasher: TraceHasher,
    resources: Vec<ResourceState>,
    procs: Vec<ProcSlot<M>>,
    /// The thread inside [`Simulator::run`], parked while processes run.
    runner: Option<Thread>,
    /// A dispatcher found the heap empty: the run thread should drain.
    finished: bool,
    /// The run is being torn down; a process that ends just ends.
    shutting_down: bool,
    /// `(name, message)` of the first process that panicked.
    panic: Option<(String, String)>,
    /// The thread of the process that ended last, for the next baton holder
    /// to join (module docs, "Join before proceeding").
    reap: Option<JoinHandle<()>>,
}

impl<M: Send + 'static> Core<M> {
    fn new() -> Self {
        Core {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            non_timers: 0,
            seq: 0,
            now: SimTime::ZERO,
            stats: SimStats::default(),
            hasher: TraceHasher::new(),
            resources: Vec::new(),
            procs: Vec::new(),
            runner: None,
            finished: false,
            shutting_down: false,
            panic: None,
            reap: None,
        }
    }

    fn push_event(&mut self, time: SimTime, action: Action<M>) {
        let seq = self.seq;
        self.seq += 1;
        debug_assert!(seq < (1 << (64 - SLOT_BITS)), "schedule sequence overflow");
        self.non_timers += usize::from(!matches!(action, Action::Timer(..)));
        let slot = match self.free.pop() {
            Some(s) => {
                self.slab[s as usize] = Some(action);
                s
            }
            None => {
                assert!(
                    self.slab.len() as u64 <= SLOT_MASK,
                    "too many outstanding events"
                );
                self.slab.push(Some(action));
                (self.slab.len() - 1) as u32
            }
        };
        self.heap
            .push(Reverse((time, (seq << SLOT_BITS) | slot as u64)));
    }

    /// Schedule a wake for `p` at `time`, invalidating older pending wakes.
    fn push_wake(&mut self, time: SimTime, p: ProcId, payload: ResumePayload<M>) {
        let slot = &mut self.procs[p.index()];
        slot.epoch += 1;
        let epoch = slot.epoch;
        slot.state = ProcState::Scheduled;
        self.push_event(time, Action::Wake(p, epoch, payload));
    }

    /// Lookahead: would a wake at `t` for the currently running process be
    /// the very next event popped? True when every queued event is strictly
    /// later (a tie loses — the queued event has the smaller sequence).
    /// While the caller is the running process nothing else can queue an
    /// event, so a true answer stays true until the caller acts on it.
    #[inline]
    fn wake_is_next(&self, t: SimTime) -> bool {
        match self.heap.peek() {
            None => true,
            Some(Reverse((ht, _))) => *ht > t,
        }
    }

    /// Account a wake of `p` at `t` that is completing inline on the
    /// process thread: exactly the bookkeeping the pop-and-dispatch path
    /// would have done, so statistics, virtual time, and the determinism
    /// hash are identical to the parked schedule.
    #[inline]
    fn account_inline_wake(&mut self, p: ProcId, t: SimTime) {
        self.stats.events += 1;
        self.stats.inline_wakes += 1;
        self.now = t;
        self.hash_wake(p, t);
    }

    /// Fold a wake of `p` at `t` into the determinism hash.
    #[inline]
    fn hash_wake(&mut self, p: ProcId, t: SimTime) {
        self.hasher.mix(t.as_nanos());
        self.hasher.mix(p.0 as u64);
    }

    /// `p` resumes at `time`: mark it running. Returns whether this is its
    /// first resume.
    fn note_resumed(&mut self, p: ProcId, time: SimTime) -> bool {
        let slot = &mut self.procs[p.index()];
        slot.state = ProcState::Running;
        slot.time = time;
        !std::mem::replace(&mut slot.started, true)
    }

    /// Queue a process whose clock reads `yt` FCFS on `res` for `dur`;
    /// returns when the hold ends. The grant order is the order of these
    /// calls.
    fn book(&mut self, res: ResourceId, yt: SimTime, dur: SimDuration) -> SimTime {
        let r = &mut self.resources[res.index()];
        let start = r.available_at.max(yt);
        r.stats_waited += start - yt;
        r.stats_busy += dur;
        r.acquisitions += 1;
        let done = start + dur;
        r.available_at = done;
        done
    }

    /// `from` (whose clock reads `now`) sends `msg` to `to`, arriving after
    /// `latency`.
    fn send(&mut self, from: ProcId, now: SimTime, to: ProcId, latency: SimDuration, msg: M) {
        let delivered_at = now + latency;
        let env = Envelope {
            from,
            sent_at: now,
            delivered_at,
            msg,
        };
        self.stats.sends += 1;
        self.push_event(delivered_at, Action::Deliver(to, env));
    }

    /// Pop and handle events in `(time, sequence)` order until one of them
    /// makes a process thread runnable; components are resumed in place.
    /// `me` is the process dispatching (it has already recorded its own
    /// yield), or `None` on the run thread.
    fn dispatch(&mut self, shared: &Arc<Mutex<Core<M>>>, me: Option<ProcId>) -> Baton<M> {
        loop {
            if self.panic.is_some() {
                // A component panicked: the run thread tears the run down.
                return self.to_runner();
            }
            let Some(Reverse((time, packed))) = self.heap.pop() else {
                self.finished = true;
                return self.to_runner();
            };
            let slot = (packed & SLOT_MASK) as usize;
            let action = self.slab[slot].take().expect("popped key with empty slot");
            self.free.push(slot as u32);
            self.non_timers -= usize::from(!matches!(action, Action::Timer(..)));
            self.stats.events += 1;
            debug_assert!(time >= self.now, "event heap out of order");
            self.now = time;
            match action {
                Action::Deliver(to, env) => {
                    if let Some((at, env)) = self.deliver(to, env, time) {
                        self.resume_component(shared, to, at, ResumePayload::Msg(env));
                    }
                }
                Action::Timer(p, epoch) => {
                    let slot = &mut self.procs[p.index()];
                    // A timer that comes due mid-service is found when the
                    // component next waits for a message.
                    if slot.timer_epoch == epoch
                        && slot.timer.is_some()
                        && slot.state == ProcState::Blocked
                    {
                        slot.timer = None;
                        self.hash_wake(p, time);
                        self.resume_component(shared, p, time, ResumePayload::Timeout);
                    }
                }
                Action::Wake(p, epoch, payload) => {
                    let i = p.index();
                    if self.procs[i].epoch != epoch {
                        continue; // stale wake (e.g. timeout raced a message)
                    }
                    self.hash_wake(p, time);
                    if self.procs[i].component.is_some() {
                        self.resume_component(shared, p, time, payload);
                        continue;
                    }
                    self.note_resumed(p, time);
                    let slot = &mut self.procs[i];
                    let resume = Resume { time, payload };
                    if me == Some(p) {
                        return Baton::Kept(resume);
                    }
                    slot.mailbox = Some(resume);
                    if me.is_some() {
                        self.stats.handoffs += 1;
                    }
                    let thread = slot.thread.as_ref().expect("woken process has a thread");
                    return Baton::Passed(thread.thread().clone());
                }
            }
        }
    }

    /// The baton goes back to the thread inside [`Simulator::run`].
    fn to_runner(&self) -> Baton<M> {
        let runner = self.runner.clone();
        Baton::Passed(runner.expect("events are dispatched only inside run"))
    }

    /// Deposit `env` at `to`. A component waiting for a message whose wake
    /// would be the very next event is not queued a wake: the wake is
    /// accounted inline and the message handed back, with the time the
    /// component resumes at, for the caller to resume it.
    fn deliver(
        &mut self,
        to: ProcId,
        env: Envelope<M>,
        now: SimTime,
    ) -> Option<(SimTime, Envelope<M>)> {
        self.hasher.mix(env.delivered_at.as_nanos());
        self.hasher.mix(0x00de_11fe ^ to.0 as u64);
        let slot = &mut self.procs[to.index()];
        match slot.state {
            ProcState::Done => {
                self.stats.dropped += 1;
            }
            ProcState::Blocked => {
                self.stats.delivers += 1;
                // Wake the receiver at the later of its local time and now.
                let t = slot.time.max(now);
                if slot.component.is_some() && self.wake_is_next(t) {
                    self.account_inline_wake(to, t);
                    return Some((t, env));
                }
                self.push_wake(t, to, ResumePayload::Msg(env));
            }
            _ => {
                self.stats.delivers += 1;
                slot.inbox.push_back(env);
            }
        }
        None
    }
}

/// Hand the baton to `next`: release the core lock, *then* unpark (module
/// docs, "Unpark after unlock").
fn pass<M: Send + 'static>(core: MutexGuard<'_, Core<M>>, next: Thread) {
    drop(core);
    next.unpark();
}

/// Park until this process's mailbox is filled. The mailbox is re-checked
/// under the lock on every return from `park`, which may be spurious. A
/// process that ended since this one last ran is joined before returning.
fn await_resume<M: Send + 'static>(shared: &Mutex<Core<M>>, me: ProcId) -> Resume<M> {
    loop {
        thread::park();
        let mut core = shared.lock();
        if let Some(resume) = core.procs[me.index()].mailbox.take() {
            let ended = core.reap.take();
            drop(core);
            if let Some(thread) = ended {
                // It caught its own panic, if any, and reported it.
                let _ = thread.join();
            }
            return resume;
        }
    }
}

/// With `me`'s yield recorded in `core`, dispatch events on this thread
/// until a wake resumes `me` — inline, or after handing the baton on.
fn carry_baton<M: Send + 'static>(
    shared: &Arc<Mutex<Core<M>>>,
    mut core: MutexGuard<'_, Core<M>>,
    me: ProcId,
) -> Resume<M> {
    match core.dispatch(shared, Some(me)) {
        Baton::Kept(resume) => resume,
        Baton::Passed(next) => {
            pass(core, next);
            await_resume(shared, me)
        }
    }
}

/// Suspend `me` (whose clock reads `now`) until `until`. All timing
/// bookkeeping was done by the caller; this only completes the wake, inline
/// when it is the next event.
fn wait_until<M: Send + 'static>(
    shared: &Arc<Mutex<Core<M>>>,
    mut core: MutexGuard<'_, Core<M>>,
    me: ProcId,
    now: SimTime,
    until: SimTime,
) -> Resume<M> {
    if core.wake_is_next(until) {
        core.account_inline_wake(me, until);
        return Resume {
            time: until,
            payload: ResumePayload::None,
        };
    }
    core.procs[me.index()].time = now;
    core.push_wake(until, me, ResumePayload::None);
    carry_baton(shared, core, me)
}

/// Create process `name` with its thread and schedule its first wake at
/// `at`. The caller holds the core lock, so the slot exists before the new
/// thread can look for it; the thread parks before it first takes the lock,
/// so it does not contend.
fn spawn_proc<M: Send + 'static>(
    shared: &Arc<Mutex<Core<M>>>,
    core: &mut Core<M>,
    name: &str,
    f: ProcFn<M>,
    at: SimTime,
) -> ProcId {
    let id = ProcId(core.procs.len() as u32);
    let thread = thread::Builder::new()
        .name(format!("sim-{name}"))
        .spawn({
            let shared = Arc::clone(shared);
            move || proc_main(shared, id, f)
        })
        .expect("failed to spawn simulation thread");
    let mut slot = ProcSlot::new(name);
    slot.thread = Some(thread);
    core.procs.push(slot);
    core.stats.spawns += 1;
    core.stats.threads += 1;
    core.push_wake(at, id, ResumePayload::None);
    id
}

/// Body of a process thread: wait for the first wake, run `f`, end. A panic
/// anywhere in it is recorded for [`Simulator::run`] to re-raise.
fn proc_main<M: Send + 'static>(shared: Arc<Mutex<Core<M>>>, id: ProcId, f: ProcFn<M>) {
    let mut ctx = ProcCtx {
        id,
        now: SimTime::ZERO,
        core: shared,
        dead: false,
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let start = await_resume(&ctx.core, id);
        if let ResumePayload::Shutdown = ctx.resumed(start) {
            return; // torn down before it ever ran
        }
        f(&mut ctx);
        ctx.exit();
    }));
    if let Err(payload) = outcome {
        let mut core = ctx.core.lock();
        let name = core.procs[id.index()].name.clone();
        core.panic
            .get_or_insert((name, panic_message(payload.as_ref())));
        let runner = core.runner.clone();
        drop(core);
        if let Some(runner) = runner {
            runner.unpark();
        }
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "<non-string panic>".into())
}

/// The simulation engine. Type parameter `M` is the message payload type
/// exchanged between processes.
///
/// ```
/// use dse_sim::{SimDuration, Simulator};
///
/// let mut sim: Simulator<u32> = Simulator::new();
/// let echo = sim.spawn("echo", |ctx| {
///     while let Some(env) = ctx.recv() {
///         ctx.send(env.from, SimDuration::from_micros(10), env.msg + 1);
///     }
/// });
/// sim.spawn("client", move |ctx| {
///     ctx.send(echo, SimDuration::from_micros(10), 41);
///     let reply = ctx.recv().unwrap();
///     assert_eq!(reply.msg, 42);
///     assert_eq!(ctx.now().as_nanos(), 20_000); // two 10 µs hops
/// });
/// let report = sim.run();
/// assert_eq!(report.stats.sends, 2);
/// ```
pub struct Simulator<M: Send + 'static> {
    core: Arc<Mutex<Core<M>>>,
}

impl<M: Send + 'static> Default for Simulator<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Send + 'static> Simulator<M> {
    /// Create an empty simulator.
    pub fn new() -> Self {
        Simulator {
            core: Arc::new(Mutex::new(Core::new())),
        }
    }

    /// Register a FCFS resource (e.g. a machine CPU). Must be called before
    /// [`Simulator::run`].
    pub fn add_resource(&mut self, name: &str) -> ResourceId {
        let mut core = self.core.lock();
        let id = ResourceId(core.resources.len() as u32);
        core.resources.push(ResourceState {
            name: name.to_string(),
            available_at: SimTime::ZERO,
            stats_busy: SimDuration::ZERO,
            stats_waited: SimDuration::ZERO,
            acquisitions: 0,
        });
        id
    }

    /// Register a process to start at t = 0.
    pub fn spawn<F>(&mut self, name: &str, f: F) -> ProcId
    where
        F: FnOnce(&mut ProcCtx<M>) + Send + 'static,
    {
        let core = &mut self.core.lock();
        spawn_proc(&self.core, core, name, Box::new(f), SimTime::ZERO)
    }

    /// Register a passive component — a process without a thread, resumed
    /// in place by whichever thread pops its events — to start at t = 0.
    pub fn spawn_component(&mut self, name: &str, body: impl Component<M>) -> ProcId {
        self.core.lock().spawn_component(name, Box::new(body))
    }

    /// Run the simulation to completion and return the report.
    ///
    /// The run ends when the event heap drains; any process still blocked in
    /// `recv` at that point (typically server loops) is resumed with a
    /// shutdown indication and reported in `blocked_at_end` if it does not
    /// finish.
    ///
    /// A panic raised inside a process is propagated to the caller, after
    /// every other process thread has been released and joined.
    pub fn run(self) -> SimReport {
        {
            let mut core = self.core.lock();
            core.runner = Some(thread::current());
            match core.dispatch(&self.core, None) {
                Baton::Passed(first) => pass(core, first),
                Baton::Kept(_) => unreachable!("the run thread is not a process"),
            }
        }
        loop {
            let core = self.core.lock();
            if core.finished || core.panic.is_some() {
                break;
            }
            drop(core);
            thread::park();
        }
        self.teardown();
        let mut core = self.core.lock();
        if let Some((name, msg)) = core.panic.take() {
            drop(core);
            panic!("simulated process '{name}' panicked: {msg}");
        }
        let mut completed = Vec::new();
        let mut blocked = Vec::new();
        for slot in &core.procs {
            match slot.state {
                ProcState::Done => completed.push(slot.name.clone()),
                _ => blocked.push(slot.name.clone()),
            }
        }
        SimReport {
            end_time: core.now,
            stats: std::mem::take(&mut core.stats),
            resources: core
                .resources
                .iter()
                .map(|r| ResourceStats {
                    name: r.name.clone(),
                    busy: r.stats_busy,
                    waited: r.stats_waited,
                    acquisitions: r.acquisitions,
                })
                .collect(),
            completed,
            blocked_at_end: blocked,
            trace_hash: core.hasher.finish(),
        }
    }

    /// Release every process thread that is still parked with `Shutdown`
    /// and join it, one at a time in id order, so the bodies unwind their
    /// loops one after another; a component still waiting ends where its
    /// slot comes up. Time
    /// is frozen: a released context short-circuits every call. Idempotent;
    /// called with no process running.
    fn teardown(&self) {
        let (ended, nprocs) = {
            let mut core = self.core.lock();
            core.shutting_down = true;
            (core.reap.take(), core.procs.len())
        };
        if let Some(thread) = ended {
            let _ = thread.join();
        }
        for i in 0..nprocs {
            let mut core = self.core.lock();
            let slot = &mut core.procs[i];
            if let Some(body) = slot.component.take() {
                slot.state = ProcState::Done;
                drop(core);
                drop(body);
                continue;
            }
            let Some(thread) = slot.thread.take() else {
                continue; // ended and joined during the run
            };
            slot.mailbox = Some(Resume {
                time: slot.time,
                payload: ResumePayload::Shutdown,
            });
            pass(core, thread.thread().clone());
            // A panic in the body was caught on its thread and recorded.
            let _ = thread.join();
        }
    }
}

impl<M: Send + 'static> Drop for Simulator<M> {
    /// A simulator dropped without [`Simulator::run`] (or unwinding out of
    /// it) still releases and joins its process threads.
    fn drop(&mut self) {
        self.teardown();
    }
}

/// The context handed to each simulated process. All virtual-time effects
/// flow through these methods.
pub struct ProcCtx<M: Send + 'static> {
    id: ProcId,
    now: SimTime,
    core: Arc<Mutex<Core<M>>>,
    dead: bool,
}

impl<M: Send + 'static> ProcCtx<M> {
    /// This process's id.
    #[inline]
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// Current local virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// True once the engine has signalled shutdown to this process.
    #[inline]
    pub fn is_shutdown(&self) -> bool {
        self.dead
    }

    /// Adopt the time and payload this process was resumed with.
    fn resumed(&mut self, resume: Resume<M>) -> ResumePayload<M> {
        self.now = resume.time;
        if let ResumePayload::Shutdown = resume.payload {
            self.dead = true;
        }
        resume.payload
    }

    /// The process function returned: record it and dispatch what follows.
    fn exit(&mut self) {
        let i = self.id.index();
        let mut core = self.core.lock();
        core.procs[i].state = ProcState::Done;
        if core.shutting_down {
            return; // released by teardown, which is joining this thread
        }
        debug_assert!(core.reap.is_none(), "an ended thread was never joined");
        core.reap = core.procs[i].thread.take();
        match core.dispatch(&self.core, Some(self.id)) {
            Baton::Passed(next) => pass(core, next),
            Baton::Kept(_) => unreachable!("a finished process has no pending wake"),
        }
    }

    /// Advance this process's clock by `d` without contending for any
    /// resource (pure delay, e.g. a propagation latency).
    pub fn sleep(&mut self, d: SimDuration) {
        let until = self.now + d;
        self.sleep_until(until);
    }

    /// Suspend until absolute time `t` (no-op if `t` is in the past).
    pub fn sleep_until(&mut self, t: SimTime) {
        if self.dead {
            return;
        }
        let until = t.max(self.now);
        let core = self.core.lock();
        let resume = wait_until(&self.core, core, self.id, self.now, until);
        self.resumed(resume);
    }

    /// Queue FCFS on `res` and hold it for `dur`; returns once the hold
    /// completes. This is how CPU computation is charged.
    ///
    /// The grant order is the order in which running processes reach this
    /// call (virtual-time execution order); the wake-up is short-circuited
    /// when no earlier event is pending.
    pub fn use_resource(&mut self, res: ResourceId, dur: SimDuration) {
        if dur.is_zero() || self.dead {
            return;
        }
        let yt = self.now;
        let mut core = self.core.lock();
        let done = core.book(res, yt, dur);
        let resume = wait_until(&self.core, core, self.id, yt, done);
        self.resumed(resume);
    }

    /// Send `msg` to `to`, arriving after `latency`. Non-blocking: the
    /// delivery event goes straight onto the shared heap, so a send costs
    /// no context switch. Virtual time does not advance.
    pub fn send(&mut self, to: ProcId, latency: SimDuration, msg: M) {
        if self.dead {
            return;
        }
        self.core.lock().send(self.id, self.now, to, latency, msg);
    }

    /// Take the next message, blocking (optionally until `deadline`) when
    /// the inbox is empty.
    fn recv_until(&mut self, deadline: Option<SimTime>) -> ResumePayload<M> {
        if self.dead {
            return ResumePayload::Shutdown;
        }
        let i = self.id.index();
        let mut core = self.core.lock();
        if let Some(env) = core.procs[i].inbox.pop_front() {
            drop(core);
            self.now = self.now.max(env.delivered_at);
            return ResumePayload::Msg(env);
        }
        let slot = &mut core.procs[i];
        slot.time = self.now;
        if let Some(d) = deadline {
            core.push_wake(d.max(self.now), self.id, ResumePayload::Timeout);
        }
        // With or without a timeout wake pending, deliveries must find the
        // process blocked (push_wake marked it scheduled).
        core.procs[i].state = ProcState::Blocked;
        let resume = carry_baton(&self.core, core, self.id);
        self.resumed(resume)
    }

    /// Block until a message arrives. Returns `None` when the simulation is
    /// shutting down and no further messages can arrive.
    pub fn recv(&mut self) -> Option<Envelope<M>> {
        match self.recv_until(None) {
            ResumePayload::Msg(env) => Some(env),
            _ => None,
        }
    }

    /// Block until a message arrives or `deadline` passes.
    pub fn recv_deadline(&mut self, deadline: SimTime) -> RecvResult<M> {
        match self.recv_until(Some(deadline)) {
            ResumePayload::Msg(env) => RecvResult::Msg(env),
            ResumePayload::Timeout => RecvResult::Timeout,
            _ => RecvResult::Shutdown,
        }
    }

    /// Block until a message arrives or `d` elapses from now (relative form
    /// of [`ProcCtx::recv_deadline`]).
    pub fn recv_timeout(&mut self, d: SimDuration) -> RecvResult<M> {
        let deadline = self.now + d;
        self.recv_deadline(deadline)
    }

    /// Spawn a new process starting at the current time; returns its id.
    /// Non-blocking: the child's first wake is queued like any other event.
    pub fn spawn<F>(&mut self, name: &str, f: F) -> ProcId
    where
        F: FnOnce(&mut ProcCtx<M>) + Send + 'static,
    {
        assert!(!self.dead, "spawn failed: simulation shutting down");
        let core = &mut self.core.lock();
        spawn_proc(&self.core, core, name, Box::new(f), self.now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn single_process_sleeps() {
        let mut sim: Simulator<()> = Simulator::new();
        let done = Arc::new(AtomicU64::new(0));
        let d2 = done.clone();
        sim.spawn("a", move |ctx| {
            ctx.sleep(SimDuration::from_millis(5));
            d2.store(ctx.now().as_nanos(), Ordering::SeqCst);
        });
        let report = sim.run();
        assert_eq!(done.load(Ordering::SeqCst), 5_000_000);
        assert_eq!(report.end_time.as_nanos(), 5_000_000);
        assert!(report.completed_named("a"));
    }

    #[test]
    fn ping_pong_message_latency() {
        let mut sim: Simulator<u32> = Simulator::new();
        let log = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let l1 = log.clone();
        let ponger = sim.spawn("pong", move |ctx| {
            let env = ctx.recv().expect("ping");
            l1.lock().push(("pong-got", ctx.now().as_nanos(), env.msg));
            ctx.send(env.from, SimDuration::from_micros(10), env.msg + 1);
        });
        let l2 = log.clone();
        sim.spawn("ping", move |ctx| {
            ctx.send(ponger, SimDuration::from_micros(10), 7);
            let env = ctx.recv().expect("pong");
            l2.lock().push(("ping-got", ctx.now().as_nanos(), env.msg));
        });
        sim.run();
        let log = log.lock();
        assert_eq!(log[0], ("pong-got", 10_000, 7));
        assert_eq!(log[1], ("ping-got", 20_000, 8));
    }

    #[test]
    fn resource_serializes_holders() {
        let mut sim: Simulator<()> = Simulator::new();
        let cpu = sim.add_resource("cpu");
        let ends = Arc::new(parking_lot::Mutex::new(Vec::new()));
        for i in 0..3 {
            let e = ends.clone();
            sim.spawn(&format!("w{i}"), move |ctx| {
                ctx.use_resource(cpu, SimDuration::from_millis(10));
                e.lock().push((i, ctx.now().as_nanos()));
            });
        }
        let report = sim.run();
        let ends = ends.lock();
        // FCFS in spawn order; each holds 10ms exclusively.
        assert_eq!(ends[0], (0, 10_000_000));
        assert_eq!(ends[1], (1, 20_000_000));
        assert_eq!(ends[2], (2, 30_000_000));
        let rs = &report.resources[0];
        assert_eq!(rs.acquisitions, 3);
        assert_eq!(rs.busy.as_nanos(), 30_000_000);
        assert_eq!(rs.waited.as_nanos(), 10_000_000 + 20_000_000);
    }

    #[test]
    fn recv_deadline_times_out() {
        let mut sim: Simulator<()> = Simulator::new();
        let out = Arc::new(AtomicU64::new(0));
        let o = out.clone();
        sim.spawn("t", move |ctx| {
            match ctx.recv_deadline(SimTime::from_nanos(1000)) {
                RecvResult::Timeout => o.store(ctx.now().as_nanos(), Ordering::SeqCst),
                _ => panic!("expected timeout"),
            }
        });
        sim.run();
        assert_eq!(out.load(Ordering::SeqCst), 1000);
    }

    #[test]
    fn recv_timeout_is_relative_to_now() {
        let mut sim: Simulator<()> = Simulator::new();
        let out = Arc::new(AtomicU64::new(0));
        let o = out.clone();
        sim.spawn("t", move |ctx| {
            ctx.sleep(SimDuration::from_nanos(250));
            match ctx.recv_timeout(SimDuration::from_nanos(1000)) {
                RecvResult::Timeout => o.store(ctx.now().as_nanos(), Ordering::SeqCst),
                _ => panic!("expected timeout"),
            }
        });
        sim.run();
        assert_eq!(out.load(Ordering::SeqCst), 1250);
    }

    #[test]
    fn message_beats_deadline() {
        let mut sim: Simulator<u8> = Simulator::new();
        let out = Arc::new(AtomicU64::new(0));
        let o = out.clone();
        let rx = sim.spawn("rx", move |ctx| {
            match ctx.recv_deadline(SimTime::from_nanos(1_000_000)) {
                RecvResult::Msg(env) => o.store(env.msg as u64, Ordering::SeqCst),
                _ => panic!("expected message"),
            }
            // Stale timeout wake must not disturb a later recv.
            assert!(ctx.recv().is_none());
        });
        sim.spawn("tx", move |ctx| {
            ctx.send(rx, SimDuration::from_nanos(500), 42);
        });
        sim.run();
        assert_eq!(out.load(Ordering::SeqCst), 42);
    }

    #[test]
    fn dynamic_spawn_runs_child() {
        let mut sim: Simulator<()> = Simulator::new();
        let count = Arc::new(AtomicU64::new(0));
        let c = count.clone();
        sim.spawn("parent", move |ctx| {
            for i in 0..4 {
                let c2 = c.clone();
                ctx.spawn(&format!("child{i}"), move |cctx| {
                    cctx.sleep(SimDuration::from_micros(1));
                    c2.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        let report = sim.run();
        assert_eq!(count.load(Ordering::SeqCst), 4);
        assert_eq!(report.completed.len(), 5);
    }

    #[test]
    fn server_loop_reported_blocked_at_end() {
        let mut sim: Simulator<u32> = Simulator::new();
        let served = Arc::new(AtomicU64::new(0));
        let s = served.clone();
        let server = sim.spawn("server", move |ctx| {
            while let Some(env) = ctx.recv() {
                s.fetch_add(env.msg as u64, Ordering::SeqCst);
            }
        });
        sim.spawn("client", move |ctx| {
            ctx.send(server, SimDuration::from_nanos(10), 5);
            ctx.send(server, SimDuration::from_nanos(10), 6);
        });
        let report = sim.run();
        assert_eq!(served.load(Ordering::SeqCst), 11);
        assert!(report.completed_named("client"));
        assert!(report.completed_named("server")); // drained at shutdown
    }

    #[test]
    fn deterministic_trace_hash() {
        fn build() -> SimReport {
            let mut sim: Simulator<u64> = Simulator::new();
            let cpu = sim.add_resource("cpu");
            let echo = sim.spawn("echo", move |ctx| {
                while let Some(env) = ctx.recv() {
                    ctx.use_resource(cpu, SimDuration::from_nanos(env.msg));
                    ctx.send(env.from, SimDuration::from_micros(3), env.msg * 2);
                }
            });
            for i in 0..3u64 {
                sim.spawn(&format!("c{i}"), move |ctx| {
                    ctx.sleep(SimDuration::from_nanos(i * 100));
                    ctx.send(echo, SimDuration::from_micros(3), i + 1);
                    let _ = ctx.recv();
                });
            }
            sim.run()
        }
        let a = build();
        let b = build();
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(a.end_time, b.end_time);
    }

    #[test]
    fn inline_wakes_preserve_virtual_time_and_events() {
        // A lone process's sleeps and holds complete inline (no earlier
        // event can exist), yet the event count and end time must match
        // the parked schedule's.
        let mut sim: Simulator<()> = Simulator::new();
        let cpu = sim.add_resource("cpu");
        sim.spawn("solo", move |ctx| {
            for _ in 0..100 {
                ctx.use_resource(cpu, SimDuration::from_micros(3));
                ctx.sleep(SimDuration::from_micros(2));
            }
        });
        let report = sim.run();
        // 1 start wake + 200 inline wakes.
        assert_eq!(report.stats.events, 201);
        assert_eq!(report.stats.inline_wakes, 200);
        assert_eq!(report.stats.handoffs, 0);
        assert_eq!(report.end_time.as_nanos(), 100 * 5_000);
    }

    #[test]
    #[should_panic(expected = "simulated process 'bad' panicked: boom")]
    fn process_panic_propagates() {
        let mut sim: Simulator<()> = Simulator::new();
        sim.spawn("bad", |_ctx| panic!("boom"));
        sim.run();
    }

    /// Counts how many of its instances were dropped.
    struct DropGuard(Arc<AtomicU64>);
    impl Drop for DropGuard {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn panic_releases_and_joins_the_other_processes() {
        let drops = Arc::new(AtomicU64::new(0));
        let shut_down = Arc::new(AtomicU64::new(0));
        let mut sim: Simulator<()> = Simulator::new();
        // One process parked in `recv`, one parked on a wake still queued.
        for (name, sleeps) in [("server", false), ("sleeper", true)] {
            let guard = DropGuard(drops.clone());
            let shut_down = shut_down.clone();
            sim.spawn(name, move |ctx| {
                let _in_body = guard;
                if sleeps {
                    ctx.sleep(SimDuration::from_secs(1));
                } else {
                    while ctx.recv().is_some() {}
                }
                shut_down.fetch_add(ctx.is_shutdown() as u64, Ordering::SeqCst);
            });
        }
        sim.spawn("bad", |ctx| {
            ctx.sleep(SimDuration::from_millis(1));
            panic!("boom at {}", ctx.now().as_nanos());
        });
        let err = catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("run must panic");
        assert_eq!(
            panic_message(err.as_ref()),
            "simulated process 'bad' panicked: boom at 1000000"
        );
        // Joined, not detached: both bodies have unwound by the time `run`
        // re-raises.
        assert_eq!(drops.load(Ordering::SeqCst), 2);
        assert_eq!(shut_down.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn drop_without_run_leaves_no_thread_parked() {
        let drops = Arc::new(AtomicU64::new(0));
        let mut sim: Simulator<()> = Simulator::new();
        for i in 0..3 {
            let guard = DropGuard(drops.clone());
            sim.spawn(&format!("p{i}"), move |_ctx| {
                let _captured = guard;
                unreachable!("never started");
            });
        }
        drop(sim);
        // Every thread returned (dropping its closure) and was joined.
        assert_eq!(drops.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn ping_pong_hands_off_twice_per_round_trip() {
        const ROUNDS: u64 = 50;
        let tick = SimDuration::from_nanos(10);
        let mut sim: Simulator<u64> = Simulator::new();
        let echo = sim.spawn("echo", move |ctx| {
            while let Some(env) = ctx.recv() {
                ctx.send(env.from, tick, env.msg);
            }
        });
        sim.spawn("ping", move |ctx| {
            for i in 0..ROUNDS {
                ctx.send(echo, tick, i);
                assert_eq!(ctx.recv().expect("echo").msg, i);
            }
        });
        let report = sim.run();
        // echo blocks first and starts ping (1); each round trip is ping →
        // echo → ping (2). The run thread starting echo and releasing it at
        // the end are not process-to-process hand-offs.
        assert_eq!(report.stats.handoffs, 1 + 2 * ROUNDS);
        assert_eq!(report.stats.inline_wakes, 0);
        // 2 starts + per round trip 2 deliveries and 2 message wakes.
        assert_eq!(report.stats.events, 2 + 4 * ROUNDS);
    }

    #[test]
    fn recv_on_a_filled_inbox_never_switches() {
        const N: u64 = 100;
        let mut sim: Simulator<u64> = Simulator::new();
        sim.spawn("solo", |ctx| {
            let me = ctx.id();
            for i in 0..N {
                ctx.send(me, SimDuration::from_nanos(1), i);
            }
            // The deliveries are earlier than this wake, so it is not
            // inline: the process dispatches them, and then its own wake,
            // itself.
            ctx.sleep(SimDuration::from_nanos(5));
            for i in 0..N {
                assert_eq!(ctx.recv().expect("queued").msg, i);
            }
        });
        let report = sim.run();
        assert_eq!(report.stats.handoffs, 0);
        assert_eq!(report.stats.inline_wakes, 0);
        assert_eq!(report.stats.delivers, N);
        assert_eq!(report.stats.events, 1 + N + 1);
    }

    #[test]
    fn message_to_done_process_is_dropped() {
        let mut sim: Simulator<u8> = Simulator::new();
        let gone = sim.spawn("gone", |_ctx| {});
        sim.spawn("late", move |ctx| {
            ctx.sleep(SimDuration::from_millis(1));
            ctx.send(gone, SimDuration::from_nanos(1), 1);
        });
        let report = sim.run();
        assert_eq!(report.stats.dropped, 1);
    }

    #[test]
    fn messages_queue_in_inbox_while_running() {
        // A receiver that computes first, then drains: both messages must be
        // waiting in its inbox and be received in delivery order.
        let mut sim: Simulator<u32> = Simulator::new();
        let cpu = sim.add_resource("cpu");
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let o = order.clone();
        let rx = sim.spawn("rx", move |ctx| {
            ctx.use_resource(cpu, SimDuration::from_millis(10));
            o.lock().push(ctx.recv().unwrap().msg);
            o.lock().push(ctx.recv().unwrap().msg);
        });
        sim.spawn("tx", move |ctx| {
            ctx.send(rx, SimDuration::from_micros(1), 1);
            ctx.send(rx, SimDuration::from_micros(2), 2);
        });
        sim.run();
        assert_eq!(*order.lock(), vec![1, 2]);
    }
}
