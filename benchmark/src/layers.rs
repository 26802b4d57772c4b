//! Layer probes: every per-layer number that does not come out of a
//! workload's own runs, produced by timing calls into the crates' public
//! functions from outside. Each probe warms up first, then measures for
//! its share of the run's time and reports a median, and sits in a span of
//! its own.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dse_api::{Distribution, DseProgram, GmArray, ParallelApi, Platform};
use dse_apps::{gauss_seidel, knights};
use dse_kernel::{
    serve_gm, Directory, GlobalStore, GmMode, KernelEnv, KernelEvent, KernelTask, NoHooks,
};
use dse_live::{LiveRunner, SchedulerKind};
use dse_msg::{
    encode_frame_into, Bytes, FrameDecoder, GlobalPid, Message, NodeId, RegionId, ReqId, TraceCtx,
};
use dse_net::{EthernetBus, Network, ETHERNET_10MBPS};
use dse_obs::{FlightRecorder, MetricKey, Registry};
use dse_sim::{SimDuration, SimTime, Simulator};
use dse_transport::{ChannelTransport, SocketTransport, Transport};

use crate::gm;
use crate::live::{LiveBench, RepPlan};
use crate::spans::{SpanId, SpanLog};
use crate::stats::median;
use crate::sys;

/// Probes that get an equal share of the time; keep in step with
/// [`run_all`].
const PROBE_SLOTS: u32 = 34;

/// Collects probe results and wraps each probe in a span.
pub struct Probes<'a> {
    share: Duration,
    spans: &'a mut SpanLog,
    parent: SpanId,
    pub out: Vec<(&'static str, f64)>,
}

impl Probes<'_> {
    fn run(&mut self, name: &'static str, probe: impl FnOnce(Duration) -> f64) {
        let id = self.spans.open(self.parent, format!("probe:{name}"));
        let value = probe(self.share);
        self.spans.close(id);
        self.out.push((name, value));
    }

    fn get(&self, name: &str) -> f64 {
        self.out
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Median nanoseconds per call of `f`: a tenth of `share` warms up and
/// sizes the batches, the rest is measured in about twenty batches.
fn ns_per_call(share: Duration, mut f: impl FnMut()) -> f64 {
    let warm = share / 10;
    let t0 = Instant::now();
    let mut calls = 0u64;
    while t0.elapsed() < warm || calls == 0 {
        f();
        calls += 1;
    }
    let per_call = t0.elapsed().as_secs_f64() / calls as f64;
    let batch = ((share.as_secs_f64() / 20.0 / per_call) as u64).max(1);
    let mut samples = Vec::with_capacity(32);
    let t1 = Instant::now();
    while t1.elapsed() < share - warm || samples.len() < 3 {
        let b0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(b0.elapsed().as_nanos() as f64 / batch as f64);
    }
    median(&samples)
}

/// Allocations per call of `f` over `calls` calls, after a warm-up that
/// fills pools and grows buffers.
fn allocs_per_call(calls: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..64 {
        f();
    }
    let before = sys::allocs();
    for _ in 0..calls {
        f();
    }
    (sys::allocs() - before) as f64 / calls as f64
}

/// Marginal cost per unit of a run whose cost is `fixed + n * unit`:
/// `run(n)` returns `(seconds, count)`; the median over repeated pairs of
/// `(run(2n) - run(n)) / n` is returned for both. The fixed part (thread
/// spawn, teardown) cancels.
fn marginal(share: Duration, n: u64, run: impl Fn(u64) -> (f64, u64)) -> (f64, f64) {
    run(n);
    let (mut secs, mut counts) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while t0.elapsed() < share || secs.len() < 3 {
        let (s1, c1) = run(n);
        let (s2, c2) = run(2 * n);
        secs.push((s2 - s1) / n as f64);
        counts.push((c2 as f64 - c1 as f64) / n as f64);
    }
    (median(&secs), median(&counts))
}

fn read_req(req: u64, region: RegionId, len: u32) -> Message {
    Message::GmReadReq {
        req: ReqId(req),
        region,
        offset: 0,
        len,
    }
}

/// Run every probe, giving each `budget / PROBE_SLOTS`.
pub fn run_all(
    budget: Duration,
    seed: u64,
    spans: &mut SpanLog,
    parent: SpanId,
) -> Vec<(&'static str, f64)> {
    let mut p = Probes {
        share: budget / PROBE_SLOTS,
        spans,
        parent,
        out: Vec::new(),
    };
    msg_probes(&mut p);
    transport_probes(&mut p);
    kernel_probes(&mut p);
    live_probes(&mut p);
    // The simulator runs one process thread at a time; pinned, as the
    // `sim_fine` workload is, its hand-offs stay on one CPU.
    sys::pinned("simulator probes", || {
        sim_probes(&mut p);
        api_probes(&mut p);
    });
    net_probes(&mut p);
    obs_probes(&mut p);
    apps_probes(&mut p);
    ledger(&mut p, seed);
    p.out
}

fn msg_probes(p: &mut Probes) {
    let small = Message::GmReadResp {
        req: ReqId(77),
        data: Bytes::copy_from_slice(&[7u8; 8]),
    };
    let big = Message::GmReadResp {
        req: ReqId(78),
        data: Bytes::from_vec(vec![0xAB; 64 * 1024]),
    };
    for (msg, enc, dec) in [
        (&small, "msg.encode_small_ns", "msg.decode_small_ns"),
        (&big, "msg.encode_64k_ns", "msg.decode_64k_ns"),
    ] {
        let mut buf = Vec::new();
        p.run(enc, |share| {
            ns_per_call(share, || {
                buf.clear();
                encode_frame_into(&mut buf, 1, black_box(msg));
                black_box(&buf);
            })
        });
        let mut decoder = FrameDecoder::new();
        p.run(dec, |share| {
            ns_per_call(share, || {
                decoder.push(black_box(&buf));
                black_box(decoder.next_frame().expect("valid frame"));
            })
        });
    }
    let mut buf = Vec::new();
    let mut decoder = FrameDecoder::new();
    p.run("msg.allocs_per_frame", |_| {
        allocs_per_call(2000, || {
            buf.clear();
            encode_frame_into(&mut buf, 1, &big);
            decoder.push(&buf);
            black_box(decoder.next_frame().expect("valid frame"));
        })
    });
}

fn transport_probes(p: &mut Probes) {
    let msg = read_req(1, RegionId(0), 8);
    {
        let cluster = ChannelTransport::cluster(2);
        let (a, b) = (&cluster[0], &cluster[1]);
        let oneway = || {
            a.send(1, black_box(&msg)).expect("channel send");
            black_box(b.poll_recv().expect("channel recv"));
        };
        p.run("transport.channel_oneway_ns", |share| {
            ns_per_call(share, oneway)
        });
        p.run("transport.allocs_per_send", |_| {
            allocs_per_call(20_000, oneway)
        });
        let batch: Vec<(Message, Option<TraceCtx>)> = (0..8).map(|_| (msg.clone(), None)).collect();
        p.run("transport.batch8_ns_per_frame", |share| {
            ns_per_call(share, || {
                a.send_batch(1, black_box(&batch)).expect("channel send");
                for _ in 0..batch.len() {
                    black_box(b.poll_recv().expect("channel recv"));
                }
            }) / batch.len() as f64
        });
    }
    p.run("transport.channel_wake_ns", |share| {
        let cluster = ChannelTransport::cluster(2);
        let (a, b) = (&cluster[0], &cluster[1]);
        std::thread::scope(|s| {
            // The echo side blocks in `recv`; its inbox closing ends it.
            let echo = s.spawn(|| {
                while let Ok(Some(env)) = b.recv(None) {
                    if b.send(0, &env.msg).is_err() {
                        break;
                    }
                }
            });
            let round_trip = ns_per_call(share, || {
                a.send(1, &msg).expect("channel send");
                black_box(a.recv(None).expect("channel recv"));
            });
            b.shutdown();
            echo.join().expect("echo thread");
            round_trip / 2.0
        })
    });
    p.run("transport.uds_oneway_us", |share| {
        let dir = std::env::temp_dir().join(format!("dse-bench-uds-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("socket directory");
        let cluster = SocketTransport::uds_cluster(2, &dir).expect("uds mesh");
        let ns = socket_oneway_ns(share, &cluster, &msg);
        drop(cluster);
        let _ = std::fs::remove_dir_all(&dir);
        ns / 1e3
    });
    p.run("transport.tcp_oneway_us", |share| {
        let cluster = SocketTransport::tcp_cluster(2).expect("tcp mesh");
        socket_oneway_ns(share, &cluster, &msg) / 1e3
    });
}

fn socket_oneway_ns(share: Duration, cluster: &[SocketTransport], msg: &Message) -> f64 {
    let (a, b) = (&cluster[0], &cluster[1]);
    let ns = ns_per_call(share, || {
        a.send(1, msg).expect("socket send");
        black_box(b.recv(None).expect("socket recv"));
    });
    a.shutdown();
    b.shutdown();
    ns
}

fn kernel_probes(p: &mut Probes) {
    let store = GlobalStore::new(2);
    let region = store.alloc(256 * 1024, Distribution::Blocked);
    let eight = Bytes::copy_from_slice(&[1u8; 8]);
    let mut req = 0u64;
    p.run("kernel.serve_read_ns", |share| {
        ns_per_call(share, || {
            black_box(serve_gm(&store, read_req(1, region, 8), &mut NoHooks));
        })
    });
    p.run("kernel.serve_write_ns", |share| {
        ns_per_call(share, || {
            let msg = Message::GmWriteReq {
                req: ReqId(1),
                region,
                offset: 64,
                data: eight.clone(),
            };
            black_box(serve_gm(&store, msg, &mut NoHooks));
        })
    });
    p.run("kernel.serve_fetch_add_ns", |share| {
        ns_per_call(share, || {
            let msg = Message::GmFetchAddReq {
                req: ReqId(1),
                region,
                offset: 128,
                delta: 3,
            };
            black_box(serve_gm(&store, msg, &mut NoHooks));
        })
    });
    p.run("kernel.serve_read_64k_ns", |share| {
        ns_per_call(share, || {
            black_box(serve_gm(
                &store,
                read_req(1, region, 64 * 1024),
                &mut NoHooks,
            ));
        })
    });

    let (metrics, flight, guard) = (
        Registry::new(),
        FlightRecorder::with_capacity(256),
        parking_lot::Mutex::new(0u64),
    );
    let env = KernelEnv {
        pe: 0,
        nprocs: 2,
        store: &store,
        metrics: &metrics,
        flight: &flight,
        cache: None,
        gm_mode: GmMode::WriteInvalidate,
        install_guard: &guard,
        engine_t0: Instant::now(),
        run_start: Instant::now(),
    };
    let mut task = KernelTask::new(env, None, Duration::from_millis(50), false);
    p.run("kernel.task_poll_read_ns", |share| {
        ns_per_call(share, || {
            // A fresh request id each time: a repeated one would be
            // answered from the dedup cache, not served.
            req += 1;
            task.poll(KernelEvent::Message {
                from: 1,
                msg: read_req(req, region, 8),
                ctx: None,
            });
            task.drain_outbox().for_each(|o| drop(black_box(o)));
        })
    });
    p.run("kernel.task_poll_barrier_ns", |share| {
        // One full round of a 2-party barrier: two polls, two releases.
        ns_per_call(share, || {
            for pe in [1u32, 0] {
                task.poll(KernelEvent::Message {
                    from: pe,
                    msg: Message::BarrierEnter {
                        barrier: 9,
                        pid: GlobalPid::new(NodeId(pe as u16), 0),
                    },
                    ctx: None,
                });
            }
            task.drain_outbox().for_each(|o| drop(black_box(o)));
        })
    });

    let dir = Directory::new();
    let mut block = 0u64;
    p.run("kernel.directory_grant_ns", |share| {
        // 64 blocks stay registered: the cached path, not a growing map.
        ns_per_call(share, || {
            block = (block + 1) % 64;
            black_box(dir.grant(region, block, NodeId(1)));
        })
    });
    p.run("kernel.directory_take_ns", |share| {
        // A write's invalidation lookup over one registered block,
        // including the grant that registers it again.
        ns_per_call(share, || {
            block = (block + 1) % 64;
            dir.grant(region, block, NodeId(1));
            black_box(dir.take_range(region, block * 512, 8, NodeId(0)));
        })
    });
}

fn live_probes(p: &mut Probes) {
    p.run("live.own_node_read_ns", |share| {
        let ns = Mutex::new(0.0);
        LiveRunner::new(1).run(|ctx| {
            let region = ctx.gm_alloc(4096, Distribution::Blocked);
            let got = ns_per_call(share, || {
                black_box(ctx.gm_read(region, 64, 8));
            });
            *ns.lock().expect("probe mutex") = got;
        });
        ns.into_inner().expect("probe mutex")
    });
    p.run("live.spawn_teardown_2_ms", |share| {
        ns_per_call(share, || {
            LiveRunner::new(2).run(|ctx| ctx.barrier());
        }) / 1e6
    });
    p.run("live.spawn_teardown_64_ms", |share| {
        ns_per_call(share, || {
            LiveRunner::new(64)
                .scheduler(SchedulerKind::Tasks)
                .run(|ctx| ctx.barrier());
        }) / 1e6
    });
}

fn sim_probes(p: &mut Probes) {
    let tick = SimDuration::from_nanos(10);
    let timed = |sim: Simulator<u32>| {
        let t0 = Instant::now();
        let report = sim.run();
        (t0.elapsed().as_secs_f64(), report.stats.events)
    };
    p.run("sim.inline_wake_ns", |share| {
        // One process sleeping: every wake is the next event, so none
        // leaves the process thread.
        let (secs, _) = marginal(share, 50_000, |n| {
            let mut sim = Simulator::new();
            sim.spawn("sleeper", move |ctx| {
                for _ in 0..n {
                    ctx.sleep(tick);
                }
            });
            timed(sim)
        });
        secs * 1e9
    });
    p.run("sim.handoff_ns", |share| {
        // Two processes sleeping in alternation: the other's wake is
        // always earlier, so every event parks one thread and unparks the
        // other. Reported per event.
        let (secs, events) = marginal(share, 1_000, |n| {
            let mut sim = Simulator::new();
            for offset in [0u64, 5] {
                sim.spawn("alternator", move |ctx| {
                    ctx.sleep(SimDuration::from_nanos(offset));
                    for _ in 0..n {
                        ctx.sleep(tick);
                    }
                });
            }
            timed(sim)
        });
        secs * 1e9 / events.max(1.0)
    });
    p.run("sim.send_recv_ns", |share| {
        // A message ping-pong between two processes, per message.
        let (secs, _) = marginal(share, 1_000, |n| {
            let mut sim = Simulator::new();
            let echo = sim.spawn("echo", move |ctx| {
                while let Some(env) = ctx.recv() {
                    ctx.send(env.from, tick, env.msg);
                }
            });
            sim.spawn("ping", move |ctx| {
                for i in 0..n {
                    ctx.send(echo, tick, i as u32);
                    black_box(ctx.recv());
                }
            });
            timed(sim)
        });
        secs * 1e9 / 2.0
    });
}

fn api_probes(p: &mut Probes) {
    let program = DseProgram::new(Platform::linux_pentium2());
    let mut events_per_read = 0.0;
    p.run("api.sim_remote_read_host_us", |share| {
        let (secs, events) = marginal(share, 500, |n| {
            let t0 = Instant::now();
            let run = program.run(2, move |ctx| {
                let arr = GmArray::<u64>::alloc(ctx, 512, Distribution::OnNode(NodeId(0)));
                ctx.barrier();
                if ctx.rank() == 1 {
                    for _ in 0..n {
                        black_box(arr.read(ctx, 0, 1));
                    }
                }
            });
            (t0.elapsed().as_secs_f64(), run.report.stats.events)
        });
        events_per_read = events;
        secs * 1e6
    });
    p.out
        .push(("api.sim_events_per_remote_read", events_per_read));
    p.run("api.sim_barrier_host_us", |share| {
        let (secs, _) = marginal(share, 200, |n| {
            let t0 = Instant::now();
            let run = program.run(4, move |ctx| {
                for _ in 0..n {
                    ctx.barrier();
                }
            });
            (t0.elapsed().as_secs_f64(), run.report.stats.events)
        });
        secs * 1e6
    });
}

fn net_probes(p: &mut Probes) {
    p.run("net.ethernet_frame_ns", |share| {
        let mut bus = EthernetBus::new(ETHERNET_10MBPS, 1);
        let mut t = 0u64;
        ns_per_call(share, || {
            t += 10_000_000;
            black_box(bus.transmit_frame(SimTime::from_nanos(t), 1518));
        })
    });
    p.run("net.send_message_4k_ns", |share| {
        let mut net = Network::paper_lan(1);
        let mut t = 0u64;
        ns_per_call(share, || {
            t += 50_000_000;
            black_box(net.send_message(SimTime::from_nanos(t), 0, 1, 4096));
        })
    });
}

fn obs_probes(p: &mut Probes) {
    let registry = Registry::new();
    p.run("obs.counter_incr_ns", |share| {
        ns_per_call(share, || {
            registry.incr(black_box(MetricKey::pe("bench", "counter", 0)))
        })
    });
    let mut v = 1u64;
    p.run("obs.hist_record_ns", |share| {
        ns_per_call(share, || {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            registry.record(MetricKey::pe("bench", "hist", 0), black_box(v >> 40));
        })
    });
}

fn apps_probes(p: &mut Probes) {
    let params = gauss_seidel::GaussSeidelParams::paper(400);
    p.run("apps.gauss_seq_400_ms", |share| {
        ns_per_call(share, || {
            black_box(gauss_seidel::solve_sequential(black_box(&params)));
        }) / 1e6
    });
    p.run("apps.knights_seq_ms", |share| {
        ns_per_call(share, || {
            black_box(knights::count_sequential(black_box(5)));
        }) / 1e6
    });
}

/// The ledger along one remote 8-byte read on the channel transport: the
/// request and the response each cross the transport once (the codec runs
/// inside `send` and `poll_recv`, so it is not added again), and the home
/// kernel task polls once. What the layers do not explain — thread
/// wake-ups and the `LiveCtx` client code — is the residual, by
/// construction `p50 - sum`.
fn ledger(p: &mut Probes, seed: u64) {
    let mut p50_ns = 0.0;
    p.run("ledger.remote_read_p50_ns", |share| {
        // `gm_small` as the workload runs it — pinned, short repetitions,
        // the best one kept — for two probe shares.
        let mut bench = LiveBench::new(gm::Small::gm_small(seed));
        let plan = RepPlan {
            time_box: Duration::from_millis(150),
            traced: false,
            setup_only: false,
        };
        p50_ns = sys::pinned("ledger", || {
            bench.rep(&plan, None);
            let started = Instant::now();
            let mut best = f64::INFINITY;
            while started.elapsed() < share * 2 {
                let rep = bench.rep(&plan, None);
                if rep.completed {
                    best = best.min(rep.p50_us[0] * 1e3);
                }
            }
            // No repetition completed: no ledger, rather than no result.
            if best.is_finite() {
                best
            } else {
                0.0
            }
        });
        p50_ns
    });
    let sum = 2.0 * p.get("transport.channel_oneway_ns") + p.get("kernel.task_poll_read_ns");
    let residual = p50_ns - sum;
    p.out.push(("ledger.remote_read_sum_ns", sum));
    p.out.push(("ledger.remote_read_residual_ns", residual));
    p.out.push((
        "ledger.remote_read_residual_share",
        if p50_ns > 0.0 { residual / p50_ns } else { 0.0 },
    ));
}
