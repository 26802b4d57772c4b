//! Passive components: simulated processes without a thread.
//!
//! A component is a state machine in the `resume → Wait` shape. It occupies
//! a process slot like any other process — same id space, same inbox, same
//! wake and delivery events in the same `(time, sequence)` positions, same
//! determinism-hash entries — but its body runs *in place*, on
//! whichever thread pops its event, under the core lock. Resuming it is a
//! function call, never a context switch:
//!
//! - a message for a component that is waiting for one queues a wake, like
//!   a blocked process's, unless that wake would be the very next event —
//!   then it is accounted inline ([`SimStats::inline_wakes`]) and the
//!   component resumed at once;
//! - a message for a component that is mid-service (holding a resource)
//!   joins its inbox and is served, first in first out, when the component
//!   next returns [`Wait::Message`];
//! - a [`Wait::Hold`] books the resource and queues the continuation wake,
//!   or — when that wake is the next event — accounts it inline and
//!   resumes the component without leaving the loop.
//!
//! Because a component's body runs under the core lock it must not touch a
//! [`ProcCtx`]; everything it may do to the simulation goes through its
//! [`CompCtx`].

use super::*;

/// Why a component is being resumed.
pub enum Wakeup<M> {
    /// The component's first resume, at the time it was spawned.
    Start,
    /// The hold it returned has ended.
    Resumed,
    /// A message arrived while it was waiting for one, or was queued while
    /// it was busy.
    Message(Envelope<M>),
    /// Its timer came due. A timer never interrupts a service: one that
    /// comes due while the component is busy is delivered when it next
    /// waits for a message, ahead of any queued message.
    Timer,
}

/// What a component waits for when it returns from a resume.
pub enum Wait {
    /// Queue FCFS on the resource and hold it for the duration (nothing at
    /// all happens for a zero duration); resumed with [`Wakeup::Resumed`].
    Hold(ResourceId, SimDuration),
    /// The next message or the timer, whichever is first.
    Message,
    /// The component is done; later messages to it are dropped.
    Finished,
}

/// The body of a passive component.
pub trait Component<M: Send + 'static>: Send + 'static {
    /// Run until the next wait and return it. Virtual time does not advance
    /// inside a resume.
    fn resume(&mut self, ctx: &mut CompCtx<'_, M>, wakeup: Wakeup<M>) -> Wait;
}

/// What a component may do to the simulation during a resume.
pub struct CompCtx<'a, M: Send + 'static> {
    core: &'a mut Core<M>,
    shared: &'a Arc<Mutex<Core<M>>>,
    id: ProcId,
    now: SimTime,
}

impl<M: Send + 'static> CompCtx<'_, M> {
    /// This component's process id.
    #[inline]
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// The virtual time of this resume.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Send `msg` to `to`, arriving after `latency`.
    pub fn send(&mut self, to: ProcId, latency: SimDuration, msg: M) {
        self.core.send(self.id, self.now, to, latency, msg);
    }

    /// Spawn a process (with a thread of its own) starting now.
    pub fn spawn<F>(&mut self, name: &str, f: F) -> ProcId
    where
        F: FnOnce(&mut ProcCtx<M>) + Send + 'static,
    {
        spawn_proc(self.shared, self.core, name, Box::new(f), self.now)
    }

    /// Arm this component's one timer for `at`, replacing an earlier one.
    pub fn set_timer(&mut self, at: SimTime) {
        let slot = &mut self.core.procs[self.id.index()];
        slot.timer = Some(at);
        slot.timer_epoch += 1;
        let epoch = slot.timer_epoch;
        self.core
            .push_event(at.max(self.now), Action::Timer(self.id, epoch));
    }

    /// True when every queued event is a component timer: no process has a
    /// wake or a hold pending and no message is in flight, so without
    /// timers the run would end here.
    pub fn only_timers_pending(&self) -> bool {
        self.core.non_timers == 0
    }
}

impl<M: Send + 'static> Core<M> {
    /// Create component `name` and schedule its first resume at t = 0.
    pub(super) fn spawn_component(&mut self, name: &str, body: Box<dyn Component<M>>) -> ProcId {
        let id = ProcId(self.procs.len() as u32);
        let mut slot = ProcSlot::new(name);
        slot.component = Some(body);
        self.procs.push(slot);
        self.stats.spawns += 1;
        self.push_wake(SimTime::ZERO, id, ResumePayload::None);
        id
    }

    /// Component `p`'s wake at `time` was popped (or accounted inline):
    /// resume it, and keep resuming it while what it waits for is already
    /// there — a hold whose end is the next event, a queued message, a
    /// timer that came due. A panic in its body is recorded like a process
    /// thread's; the caller's dispatch loop then returns to the run thread.
    pub(super) fn resume_component(
        &mut self,
        shared: &Arc<Mutex<Core<M>>>,
        p: ProcId,
        time: SimTime,
        payload: ResumePayload<M>,
    ) {
        let i = p.index();
        let first = self.note_resumed(p, time);
        let mut body = self.procs[i]
            .component
            .take()
            .expect("only a component is resumed in place");
        let mut now = time;
        let mut wakeup = match payload {
            ResumePayload::None if first => Wakeup::Start,
            ResumePayload::None => Wakeup::Resumed,
            ResumePayload::Msg(env) => Wakeup::Message(env),
            ResumePayload::Timeout => Wakeup::Timer,
            ResumePayload::Shutdown => unreachable!("components are not released by mailbox"),
        };
        loop {
            let mut ctx = CompCtx {
                core: self,
                shared,
                id: p,
                now,
            };
            let wait = match catch_unwind(AssertUnwindSafe(|| body.resume(&mut ctx, wakeup))) {
                Ok(wait) => wait,
                Err(payload) => {
                    let slot = &mut self.procs[i];
                    slot.state = ProcState::Done;
                    let name = slot.name.clone();
                    self.panic
                        .get_or_insert((name, panic_message(payload.as_ref())));
                    return;
                }
            };
            let slot = &mut self.procs[i];
            match wait {
                Wait::Hold(_, dur) if dur.is_zero() => wakeup = Wakeup::Resumed,
                Wait::Hold(res, dur) => {
                    let done = self.book(res, now, dur);
                    if !self.wake_is_next(done) {
                        self.procs[i].time = now;
                        self.push_wake(done, p, ResumePayload::None);
                        break;
                    }
                    self.account_inline_wake(p, done);
                    now = done;
                    wakeup = Wakeup::Resumed;
                }
                Wait::Message => {
                    if slot.timer.is_some_and(|at| at <= now) {
                        slot.timer = None;
                        wakeup = Wakeup::Timer;
                    } else if let Some(env) = slot.inbox.pop_front() {
                        now = now.max(env.delivered_at);
                        wakeup = Wakeup::Message(env);
                    } else {
                        slot.time = now;
                        slot.state = ProcState::Blocked;
                        break;
                    }
                }
                Wait::Finished => {
                    slot.state = ProcState::Done;
                    return;
                }
            }
        }
        self.procs[i].component = Some(body);
    }
}
