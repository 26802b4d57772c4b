//! Golden schedules: three fixed programs whose logical event sequence was
//! recorded under the engine-thread scheduler (the commit before the
//! baton-passing rewrite) and must never move. Every figure and the
//! cross-engine suite rest on the scheduler producing exactly this
//! sequence; which OS thread pops an event is not allowed to show.

use dse_sim::{
    CompCtx, Component, Envelope, ProcCtx, RecvResult, ResourceId, SimDuration, SimReport, SimTime,
    Simulator, Wait, Wakeup,
};

/// Everything about a run that must repeat exactly:
/// `(events, inline_wakes, sends, delivers, end_time_ns, trace_hash,
/// each resource's (busy_ns, waited_ns, acquisitions))`. Hold ends and
/// deliveries are in `trace_hash`; the resource totals pin the FCFS grant
/// arithmetic.
type Fingerprint = (u64, u64, u64, u64, u64, u64, Vec<(u64, u64, u64)>);

fn fingerprint(report: &SimReport) -> Fingerprint {
    let resources = report
        .resources
        .iter()
        .map(|r| (r.busy.as_nanos(), r.waited.as_nanos(), r.acquisitions))
        .collect();
    (
        report.stats.events,
        report.stats.inline_wakes,
        report.stats.sends,
        report.stats.delivers,
        report.end_time.as_nanos(),
        report.trace_hash,
        resources,
    )
}

fn ns(n: u64) -> SimDuration {
    SimDuration::from_nanos(n)
}

/// The echo server of [`echo_with_shared_resource`] as a passive component.
struct PassiveEcho {
    cpu: ResourceId,
    serving: Option<Envelope<u64>>,
}

impl Component<u64> for PassiveEcho {
    fn resume(&mut self, ctx: &mut CompCtx<'_, u64>, wakeup: Wakeup<u64>) -> Wait {
        if let Wakeup::Message(env) = wakeup {
            let hold = ns(300 + env.msg * 7);
            self.serving = Some(env);
            return Wait::Hold(self.cpu, hold);
        }
        if let Some(env) = self.serving.take() {
            ctx.send(env.from, ns(3_000), env.msg * 2);
        }
        Wait::Message
    }
}

/// An echo server — a process thread, or a passive component — and three
/// clients that all compute on one shared CPU.
fn echo_with_shared_resource(passive: bool) -> SimReport {
    let mut sim: Simulator<u64> = Simulator::new();
    let cpu = sim.add_resource("cpu");
    let echo = if passive {
        sim.spawn_component("echo", PassiveEcho { cpu, serving: None })
    } else {
        sim.spawn("echo", move |ctx| {
            while let Some(env) = ctx.recv() {
                ctx.use_resource(cpu, ns(300 + env.msg * 7));
                ctx.send(env.from, ns(3_000), env.msg * 2);
            }
        })
    };
    for i in 0..3u64 {
        sim.spawn(&format!("client{i}"), move |ctx| {
            for k in 0..20u64 {
                ctx.use_resource(cpu, ns(500 + 100 * i));
                ctx.send(echo, ns(2_000 + 10 * i), k + i);
                let reply = ctx.recv().expect("echo reply");
                ctx.sleep(ns(reply.msg * 13 % 700));
            }
        });
    }
    sim.run()
}

/// A receiver whose deadlines fall before, on and after message arrivals,
/// so stale timeout wakes and exact ties are both in the sequence.
fn deadline_racing_messages() -> SimReport {
    let mut sim: Simulator<u64> = Simulator::new();
    let rx = sim.spawn("rx", |ctx| {
        let mut got = 0;
        let mut round = 0u64;
        while got < 30 {
            let deadline = ctx.now() + ns(400 + (round * 37) % 900);
            match ctx.recv_deadline(deadline) {
                RecvResult::Msg(_) => got += 1,
                RecvResult::Timeout => ctx.sleep(ns(round % 5 * 20)),
                RecvResult::Shutdown => panic!("rx shut down after {got} messages"),
            }
            round += 1;
        }
    });
    for t in 0..2u64 {
        sim.spawn(&format!("tx{t}"), move |ctx| {
            for k in 0..15u64 {
                ctx.sleep(ns(250 + t * 150 + (k * 61) % 500));
                ctx.send(rx, ns(100 + (k * 29 + t * 7) % 300), k);
            }
        });
    }
    sim.run()
}

/// A spawn chain: each link spawns the next, reports to the root after a
/// delay that shrinks with depth, and the root collects every report.
fn dynamic_spawn_chain() -> SimReport {
    const DEPTH: u64 = 12;
    fn link(ctx: &mut ProcCtx<u64>, depth: u64, root: dse_sim::ProcId) {
        if depth < DEPTH {
            ctx.spawn(&format!("link{}", depth + 1), move |c| {
                link(c, depth + 1, root)
            });
        }
        ctx.sleep(ns((DEPTH - depth) * 100));
        ctx.send(root, ns(50 + depth * 5), depth);
    }
    let mut sim: Simulator<u64> = Simulator::new();
    sim.spawn("root", |ctx| {
        let root = ctx.id();
        ctx.spawn("link1", move |c| link(c, 1, root));
        let mut sum = 0;
        for _ in 0..DEPTH {
            sum += ctx.recv().expect("report").msg;
        }
        assert_eq!(sum, DEPTH * (DEPTH + 1) / 2);
        ctx.sleep_until(SimTime::from_nanos(5_000));
    });
    sim.run()
}

#[test]
fn golden_fingerprints_are_verbatim() {
    assert_eq!(
        fingerprint(&echo_with_shared_resource(false)),
        (
            411,
            109,
            120,
            120,
            129_090,
            10420655771447748291,
            vec![(58_410, 7_303, 120)]
        )
    );
    assert_eq!(
        fingerprint(&deadline_racing_messages()),
        (129, 2, 30, 30, 10_186, 16189783924862362001, vec![])
    );
    assert_eq!(
        fingerprint(&dynamic_spawn_chain()),
        (50, 2, 12, 12, 5_000, 9333605721861327002, vec![])
    );
}

/// A process without a thread occupies the same slot in the schedule: the
/// same events at the same times in the same order, down to the resource
/// totals and the determinism hash. Only the number of wakes that skip the
/// heap (and the number of context switches) may differ.
#[test]
fn a_passive_echo_server_leaves_the_golden_schedule_where_it_is() {
    let threaded = echo_with_shared_resource(false);
    let passive = echo_with_shared_resource(true);
    let (t, p) = (fingerprint(&threaded), fingerprint(&passive));
    assert_eq!(
        (t.0, t.2, t.3, t.4, t.5, t.6),
        (p.0, p.2, p.3, p.4, p.5, p.6)
    );
    assert!(p.1 >= t.1, "inline wakes {} -> {}", t.1, p.1);
    assert!(passive.stats.handoffs < threaded.stats.handoffs);
    assert_eq!(passive.stats.threads + 1, threaded.stats.threads);
}
