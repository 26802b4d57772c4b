//! What a blocking hand-off costs, by count rather than by clock: context
//! switches per thread per round trip of a two-thread echo, read from the
//! kernel's own per-thread counters.
//!
//! The count only means something when both threads share one CPU (every
//! hand-off is then a switch, and a wake-up issued under the queue mutex
//! shows as two more), so the bound is asserted when the process is
//! confined to one — `taskset -c 0 cargo test --release -p dse-transport
//! --test handoff_counts` — and otherwise only the echoed order is. The
//! cases run one after the other in one test so neither pre-empts the
//! other's threads.
#![cfg(target_os = "linux")]

use std::fs;
use std::thread;

use dse_msg::{Message, RegionId, ReqId};
use dse_transport::{BlockingQueue, ChannelTransport, Pop, Transport};

const ROUNDS: u64 = 20_000;
const STOP: u64 = u64::MAX;

/// With the wake-up after the unlock a round trip costs each thread one
/// switch (it parks once, or is pre-empted once by the peer it woke); with
/// the wake-up under the lock it costs three.
const MAX_SWITCHES_PER_ROUND_TRIP: f64 = 1.5;

fn status_field<'a>(status: &'a str, key: &str) -> Option<&'a str> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .map(str::trim)
}

/// Voluntary plus involuntary context switches of the calling thread.
fn switches() -> u64 {
    let status = fs::read_to_string("/proc/thread-self/status").expect("procfs");
    ["voluntary_ctxt_switches", "nonvoluntary_ctxt_switches"]
        .iter()
        .map(|key| {
            status_field(&status, key)
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or_else(|| panic!("no {key} in /proc/thread-self/status"))
        })
        .sum()
}

fn confined_to_one_cpu() -> bool {
    let status = fs::read_to_string("/proc/self/status").expect("procfs");
    // A single CPU number, not a list ("0,2") or a range ("0-3").
    status_field(&status, "Cpus_allowed_list").is_some_and(|v| v.parse::<u32>().is_ok())
}

fn queue_take(q: &BlockingQueue<u64>) -> u64 {
    match q.pop(None) {
        Pop::Item(i) => i,
        _ => panic!("queue closed under the echo"),
    }
}

fn transport_put(t: &ChannelTransport, i: u64) {
    let msg = Message::GmReadReq {
        req: ReqId(i),
        region: RegionId(1),
        offset: 0,
        len: 8,
    };
    t.send(1 - t.pe(), &msg).expect("send");
}

fn transport_take(t: &ChannelTransport) -> u64 {
    match t.recv(None).expect("recv") {
        Some(env) => match env.msg {
            Message::GmReadReq { req, .. } => req.0,
            other => panic!("unexpected {other:?}"),
        },
        None => panic!("untimed recv returned nothing"),
    }
}

/// `ROUNDS` round trips from this thread through an echo thread; checks the
/// echoed order always and the switch count when it is meaningful. Each
/// side is its `(put, take)` pair.
fn echo(
    case: &str,
    (put, take): (impl Fn(u64), impl Fn() -> u64),
    (far_put, far_take): (impl Fn(u64) + Send, impl Fn() -> u64 + Send),
) {
    let (mine, theirs) = thread::scope(|s| {
        let echo = s.spawn(move || {
            let before = switches();
            loop {
                match far_take() {
                    STOP => return switches() - before,
                    i => far_put(i),
                }
            }
        });
        let before = switches();
        for i in 0..ROUNDS {
            put(i);
            assert_eq!(take(), i, "{case}: echo out of order");
        }
        let mine = switches() - before;
        put(STOP);
        (mine, echo.join().expect("echo thread"))
    });
    let per_round_trip = |n: u64| n as f64 / ROUNDS as f64;
    println!(
        "{case}: {:.2} / {:.2} switches per round trip (caller / echo)",
        per_round_trip(mine),
        per_round_trip(theirs)
    );
    if confined_to_one_cpu() {
        for (who, n) in [("caller", mine), ("echo", theirs)] {
            assert!(
                per_round_trip(n) <= MAX_SWITCHES_PER_ROUND_TRIP,
                "{case}: the {who} thread switched {:.2} times per round trip",
                per_round_trip(n)
            );
        }
    }
}

#[test]
fn a_round_trip_costs_each_thread_one_switch() {
    let (ping, pong) = (BlockingQueue::default(), BlockingQueue::default());
    echo(
        "BlockingQueue pair",
        (|i| assert!(ping.push(i)), || queue_take(&pong)),
        (|i| assert!(pong.push(i)), || queue_take(&ping)),
    );

    let mut cluster = ChannelTransport::cluster(2);
    let far = cluster.pop().expect("endpoint 1");
    let near = cluster.pop().expect("endpoint 0");
    echo(
        "ChannelTransport",
        (|i| transport_put(&near, i), || transport_take(&near)),
        (|i| transport_put(&far, i), || transport_take(&far)),
    );
}
