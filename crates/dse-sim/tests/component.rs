//! Passive components, checked by counting context switches rather than
//! timing them: a component is resumed in place by whichever thread pops
//! its event, so talking to one costs no hand-off.

use std::sync::Arc;

use dse_sim::{
    CompCtx, Component, Envelope, ProcCtx, ResourceId, SimDuration, SimReport, SimTime, Simulator,
    Wait, Wakeup,
};
use parking_lot::Mutex;

const TICK: SimDuration = SimDuration::from_nanos(10);

/// Answers every message with itself, at once.
struct Echo;

impl Component<u64> for Echo {
    fn resume(&mut self, ctx: &mut CompCtx<'_, u64>, wakeup: Wakeup<u64>) -> Wait {
        if let Wakeup::Message(env) = wakeup {
            ctx.send(env.from, TICK, env.msg);
        }
        Wait::Message
    }
}

/// Holds `cpu` for `hold` per message, then answers; logs the order served.
struct Server {
    cpu: ResourceId,
    hold: SimDuration,
    serving: Option<Envelope<u64>>,
    served: Arc<Mutex<Vec<u64>>>,
}

impl Component<u64> for Server {
    fn resume(&mut self, ctx: &mut CompCtx<'_, u64>, wakeup: Wakeup<u64>) -> Wait {
        if let Wakeup::Message(env) = wakeup {
            self.serving = Some(env);
            return Wait::Hold(self.cpu, self.hold);
        }
        if let Some(env) = self.serving.take() {
            self.served.lock().push(env.msg);
            ctx.send(env.from, TICK, env.msg);
        }
        Wait::Message
    }
}

fn round_trips(ctx: &mut ProcCtx<u64>, server: dse_sim::ProcId, n: u64) {
    for i in 0..n {
        ctx.send(server, TICK, i);
        assert_eq!(ctx.recv().expect("answer").msg, i);
    }
}

#[test]
fn round_trips_against_a_component_never_switch() {
    const N: u64 = 50;
    let run = |passive: bool| -> SimReport {
        let mut sim: Simulator<u64> = Simulator::new();
        let echo = if passive {
            sim.spawn_component("echo", Echo)
        } else {
            sim.spawn("echo", |ctx| {
                while let Some(env) = ctx.recv() {
                    ctx.send(env.from, TICK, env.msg);
                }
            })
        };
        sim.spawn("client", move |ctx| round_trips(ctx, echo, N));
        sim.run()
    };
    let (threaded, passive) = (run(false), run(true));
    assert_eq!(threaded.stats.handoffs, 2 * N + 1);
    assert_eq!(passive.stats.handoffs, 0);
    assert_eq!((threaded.stats.threads, passive.stats.threads), (2, 1));
    // The same schedule: 2 starts, and per round trip 2 deliveries and 2
    // message wakes — of which the component's skips the heap.
    assert_eq!(passive.stats.events, threaded.stats.events);
    assert_eq!(passive.stats.events, 2 + 4 * N);
    assert_eq!(passive.stats.inline_wakes, N);
    assert_eq!(passive.trace_hash, threaded.trace_hash);
    assert_eq!(passive.end_time, threaded.end_time);
    assert!(passive.completed_named("echo"), "ended at teardown");
}

#[test]
fn two_clients_of_one_component_hand_off_only_to_each_other() {
    const N: u64 = 40;
    let mut sim: Simulator<u64> = Simulator::new();
    let cpu = sim.add_resource("cpu");
    let served = Arc::new(Mutex::new(Vec::new()));
    let server = sim.spawn_component(
        "server",
        Server {
            cpu,
            hold: SimDuration::from_nanos(7),
            serving: None,
            served: Arc::clone(&served),
        },
    );
    for name in ["a", "b"] {
        sim.spawn(name, move |ctx| round_trips(ctx, server, N));
    }
    let report = sim.run();
    assert_eq!(served.lock().len() as u64, 2 * N);
    // Every switch is one client resuming the other: `a` starting `b`, then
    // one per answer — the server's own wakes (a message and a hold's end
    // per round trip, which would each switch to a server thread and back)
    // are function calls on whichever client is dispatching.
    assert_eq!(report.stats.handoffs, 1 + 2 * N);
    assert_eq!(report.stats.threads, 2);
}

#[test]
fn messages_arriving_mid_service_are_served_first_in_first_out() {
    let mut sim: Simulator<u64> = Simulator::new();
    let cpu = sim.add_resource("cpu");
    let served = Arc::new(Mutex::new(Vec::new()));
    let server = sim.spawn_component(
        "server",
        Server {
            cpu,
            hold: SimDuration::from_micros(1),
            serving: None,
            served: Arc::clone(&served),
        },
    );
    sim.spawn("burst", move |ctx| {
        // All five land while the first is still holding the CPU.
        for i in 0..5 {
            ctx.send(server, SimDuration::from_nanos(10 + i), i);
        }
        let mut answers = Vec::new();
        for _ in 0..5 {
            let env = ctx.recv().expect("answer");
            answers.push((env.msg, ctx.now().as_nanos()));
        }
        // One hold after another, each answered 10 ns after its hold ends.
        let expect: Vec<_> = (0..5).map(|i| (i, 10 + 1_000 * (i + 1) + 10)).collect();
        assert_eq!(answers, expect);
    });
    let report = sim.run();
    assert_eq!(*served.lock(), [0, 1, 2, 3, 4]);
    assert_eq!(report.stats.handoffs, 0);
}

#[test]
fn a_continuation_that_is_the_next_event_completes_inline() {
    let mut sim: Simulator<u64> = Simulator::new();
    let cpu = sim.add_resource("cpu");
    let served = Arc::new(Mutex::new(Vec::new()));
    let server = sim.spawn_component(
        "server",
        Server {
            cpu,
            hold: SimDuration::from_nanos(5),
            serving: None,
            served,
        },
    );
    sim.spawn("client", move |ctx| round_trips(ctx, server, 10));
    let report = sim.run();
    // Nothing else is ever queued: per round trip the component's message
    // wake and its hold's end both skip the heap; the client's own wake
    // does not (a thread cannot be resumed in place), but it pops it itself.
    assert_eq!(report.stats.inline_wakes, 2 * 10);
    assert_eq!(report.stats.handoffs, 0);
    assert_eq!(report.stats.events, 2 + 10 * 5);
    assert_eq!(report.resources[0].acquisitions, 10);
}

/// Logs the time of every timer and message; re-arms its timer `every`.
struct Ticker {
    cpu: ResourceId,
    every: SimDuration,
    log: Arc<Mutex<Vec<(&'static str, u64)>>>,
}

impl Component<u64> for Ticker {
    fn resume(&mut self, ctx: &mut CompCtx<'_, u64>, wakeup: Wakeup<u64>) -> Wait {
        let now = ctx.now();
        match wakeup {
            Wakeup::Start => ctx.set_timer(now + self.every),
            Wakeup::Timer => {
                self.log.lock().push(("timer", now.as_nanos()));
                ctx.set_timer(now + self.every);
            }
            Wakeup::Message(_) => {
                self.log.lock().push(("message", now.as_nanos()));
                return Wait::Hold(self.cpu, SimDuration::from_nanos(300));
            }
            Wakeup::Resumed => {}
        }
        if now >= SimTime::from_nanos(1_000) {
            return Wait::Finished;
        }
        Wait::Message
    }
}

#[test]
fn a_timer_fires_when_idle_and_waits_for_the_service_in_progress() {
    let mut sim: Simulator<u64> = Simulator::new();
    let cpu = sim.add_resource("cpu");
    let log = Arc::new(Mutex::new(Vec::new()));
    let ticker = sim.spawn_component(
        "ticker",
        Ticker {
            cpu,
            every: SimDuration::from_nanos(400),
            log: Arc::clone(&log),
        },
    );
    sim.spawn("tx", move |ctx| {
        // In service 350..650 and 650..950: the second arrives, and the timer
        // armed for 400 comes due, while the first is still being served.
        ctx.send(ticker, SimDuration::from_nanos(350), 1);
        ctx.send(ticker, SimDuration::from_nanos(500), 2);
    });
    let report = sim.run();
    assert_eq!(
        *log.lock(),
        [
            ("message", 350),
            // Due at 400, mid-service: delivered when the service ends,
            // ahead of the message queued at 500.
            ("timer", 650),
            ("message", 650),
            // Re-armed at 650 for 1050: idle by then, fires on time.
            ("timer", 1_050),
        ]
    );
    assert!(report.completed_named("ticker"));
    assert_eq!(report.stats.handoffs, 0);
}

/// Panics on its second message.
struct Fragile(u32);

impl Component<u64> for Fragile {
    fn resume(&mut self, _ctx: &mut CompCtx<'_, u64>, wakeup: Wakeup<u64>) -> Wait {
        if let Wakeup::Message(env) = wakeup {
            self.0 += 1;
            assert!(self.0 < 2, "boom on message {}", env.msg);
        }
        Wait::Message
    }
}

#[test]
#[should_panic(expected = "simulated process 'fragile' panicked: boom on message 8")]
fn a_component_that_panics_is_reported_like_a_process() {
    let mut sim: Simulator<u64> = Simulator::new();
    let fragile = sim.spawn_component("fragile", Fragile(0));
    // The panic unwinds on the sender's thread, inside its blocking call;
    // it must surface under the component's name, and the sender and the
    // bystander must still be released and joined.
    sim.spawn("bystander", |ctx| while ctx.recv().is_some() {});
    sim.spawn("sender", move |ctx| {
        ctx.send(fragile, TICK, 7);
        ctx.send(fragile, TICK + TICK, 8);
        ctx.sleep(SimDuration::from_micros(1));
        unreachable!("the run is torn down at the panic");
    });
    sim.run();
}
