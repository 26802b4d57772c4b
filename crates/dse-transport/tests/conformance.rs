//! What every transport must do, written once and run over all three: the
//! channel, TCP and Unix-domain sockets (`channel::*`, `tcp::*`, `uds::*`).
//! What differs by backend on purpose is tested beside the backend: buffer
//! pooling and bulk adoption (channel), dial backoff (socket), and how
//! peers learn of an abort — a channel's when they send to it, a socket's
//! when they receive.

use std::path::PathBuf;
use std::thread;
use std::time::Duration;

use dse_msg::{Message, RegionId, ReqId, TraceCtx};
use dse_transport::{ChannelTransport, Envelope, SocketTransport, Transport, TransportError};

const WAIT: Option<Duration> = Some(Duration::from_secs(5));

/// A cluster's endpoints, and the directory its socket files live in.
struct Cluster {
    eps: Vec<Box<dyn Transport>>,
    dir: Option<PathBuf>,
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.eps.clear();
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl std::ops::Index<usize> for Cluster {
    type Output = dyn Transport;
    fn index(&self, pe: usize) -> &Self::Output {
        &*self.eps[pe]
    }
}

fn boxed<T: Transport + 'static>(eps: Vec<T>) -> Vec<Box<dyn Transport>> {
    eps.into_iter()
        .map(|t| Box::new(t) as Box<dyn Transport>)
        .collect()
}

fn channel_cluster(_test: &str) -> Cluster {
    Cluster {
        eps: boxed(ChannelTransport::cluster(2)),
        dir: None,
    }
}

fn tcp_cluster(_test: &str) -> Cluster {
    Cluster {
        eps: boxed(SocketTransport::tcp_cluster(2).unwrap()),
        dir: None,
    }
}

#[cfg(unix)]
fn uds_cluster(test: &str) -> Cluster {
    let dir = std::env::temp_dir().join(format!("dse-conf-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    Cluster {
        eps: boxed(SocketTransport::uds_cluster(2, &dir).unwrap()),
        dir: Some(dir),
    }
}

fn msg(i: u64) -> Message {
    Message::GmReadReq {
        req: ReqId(i),
        region: RegionId(2),
        offset: i,
        len: 16,
    }
}

/// A message reaches its destination from its sender, as that edge's
/// frame 0.
fn round_trip(c: &Cluster) {
    c[1].send(0, &msg(7)).unwrap();
    let env = c[0].recv(WAIT).unwrap().unwrap();
    assert_eq!((env.from, env.seq, env.msg), (1, 0, msg(7)));
}

/// A batch's frames take one sequence number each, a single send continues
/// after them, and each frame keeps the trace context it was sent with.
fn sequence_continues_after_a_batch(c: &Cluster) {
    let ctx = TraceCtx {
        trace: 10,
        parent: 20,
    };
    let batch = [
        (msg(0), None),
        (msg(1), Some(ctx)),
        (msg(2), None),
        (msg(3), None),
    ];
    c[0].send_batch(1, &batch).unwrap();
    c[0].send(1, &msg(4)).unwrap();
    for i in 0..5u64 {
        let env = c[1].recv(WAIT).unwrap().unwrap();
        assert_eq!((env.seq, env.msg), (i, msg(i)));
        assert_eq!(env.ctx, (i == 1).then_some(ctx));
    }
}

/// A trace context reaches a peer, and a send to oneself loops back with
/// its context too.
fn traced_loopback(c: &Cluster) {
    let ctx = TraceCtx {
        trace: 5,
        parent: 6,
    };
    c[0].send_ctx(1, &msg(1), ctx).unwrap();
    c[0].send_ctx(0, &msg(2), ctx).unwrap();
    let remote = c[1].recv(WAIT).unwrap().unwrap();
    assert_eq!(
        (remote.from, remote.msg, remote.ctx),
        (0, msg(1), Some(ctx))
    );
    let local = c[0].recv(WAIT).unwrap().unwrap();
    assert_eq!((local.from, local.msg, local.ctx), (0, msg(2), Some(ctx)));
}

/// Poll until a message arrives: a socket delivers through its poller
/// thread, so arrival is not immediate.
fn poll_until(t: &dyn Transport) -> Envelope {
    for _ in 0..5000 {
        if let Some(env) = t.poll_recv().unwrap() {
            return env;
        }
        thread::sleep(Duration::from_millis(1));
    }
    panic!("nothing arrived within 5 s");
}

/// `poll_recv` never waits, delivers in order, and after a shutdown drains
/// what was already delivered before it reports closure.
fn poll_recv_delivers_without_waiting(c: &Cluster) {
    assert_eq!(c[1].poll_recv(), Ok(None));
    c[0].send(1, &msg(1)).unwrap();
    c[0].send(1, &msg(2)).unwrap();
    assert_eq!(poll_until(&c[1]).msg, msg(1));
    assert_eq!(poll_until(&c[1]).msg, msg(2));
    assert_eq!(c[1].poll_recv(), Ok(None));
    // A send to oneself is in the inbox when `send` returns.
    c[1].send(1, &msg(3)).unwrap();
    c[1].shutdown();
    assert_eq!(c[1].poll_recv().unwrap().unwrap().msg, msg(3));
    assert_eq!(c[1].poll_recv(), Err(TransportError::Closed));
}

/// A peer's messages before its clean shutdown arrive; after its `Bye`
/// there is silence, not an error.
fn silent_after_bye(c: &Cluster) {
    c[1].send(0, &msg(1)).unwrap();
    c[1].shutdown();
    assert_eq!(c[0].recv(WAIT).unwrap().unwrap().msg, msg(1));
    assert_eq!(c[0].recv(Some(Duration::from_millis(100))), Ok(None));
}

macro_rules! conformance {
    ($backend:ident, $cluster:ident) => {
        mod $backend {
            use super::$cluster as cluster;

            #[test]
            fn round_trip() {
                super::round_trip(&cluster("round_trip"));
            }

            #[test]
            fn sequence_continues_after_a_batch() {
                super::sequence_continues_after_a_batch(&cluster("batch"));
            }

            #[test]
            fn traced_loopback() {
                super::traced_loopback(&cluster("loopback"));
            }

            #[test]
            fn poll_recv_delivers_without_waiting() {
                super::poll_recv_delivers_without_waiting(&cluster("poll"));
            }

            #[test]
            fn silent_after_bye() {
                super::silent_after_bye(&cluster("bye"));
            }
        }
    };
}

conformance!(channel, channel_cluster);
conformance!(tcp, tcp_cluster);
#[cfg(unix)]
conformance!(uds, uds_cluster);
