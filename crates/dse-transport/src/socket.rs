//! Socket backend: real byte streams between PEs, over TCP or Unix domain
//! sockets, under the same frame discipline as the channel ([`FrameMux`]).
//!
//! Mesh construction: every PE binds a listener; PE `p` dials every peer
//! `q < p` (with retry under bounded exponential backoff, since peers come
//! up in arbitrary order) and accepts connections from every `q > p`. The
//! dialer identifies itself with a 4-byte little-endian hello carrying its
//! rank, and each higher rank must say hello exactly once.
//!
//! An endpoint is what a channel endpoint is: an inbox of `(from, bytes)`
//! deliveries plus a `FrameMux`. Sends are the mux's, delivered by a write
//! on the peer's connection (or, to itself, by a push into its own inbox).
//! The receive path is one poller thread per *endpoint* (not per
//! connection): a byte pump that sweeps every peer connection in
//! nonblocking mode and pushes what it reads, then a notice when a stream
//! ends or a read fails, into the inbox. Reassembly, sequence checks and
//! decoding happen in the mux on the receiving thread. Nonblocking is a
//! property of the shared fd, so the write half absorbs `WouldBlock`
//! itself (see `write_all_nb`).
//!
//! Shutdown is a handshake: `shutdown` sends a `Bye` frame on every
//! connection and closes the write half. A stream that ends after the
//! peer's `Bye`, or after we began closing, ends quietly; one that ends
//! without it is reported to the consumer as
//! [`TransportError::PeerDropped`], and a cut mid-frame is just as visible
//! — the partial frame never decodes.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use dse_msg::{Message, TraceCtx};

use crate::mux::{hand_over, FrameMux, FramePool, Inbound, Inbox};
use crate::{Envelope, Transport, TransportError};

/// Bounded exponential backoff for mesh dialing.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Maximum connection attempts before giving up.
    pub max_attempts: u32,
    /// Delay after the first failed attempt.
    pub base_delay: Duration,
    /// Ceiling on the per-attempt delay.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 20,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(200),
        }
    }
}

/// A duplex stream, TCP or Unix.
#[derive(Debug)]
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Uds(UnixStream),
}

impl Conn {
    fn try_clone(&self) -> std::io::Result<Conn> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Uds(s) => s.try_clone().map(Conn::Uds),
        }
    }

    fn shutdown(&self, how: Shutdown) {
        let _ = match self {
            Conn::Tcp(s) => s.shutdown(how),
            #[cfg(unix)]
            Conn::Uds(s) => s.shutdown(how),
        };
    }

    fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_nonblocking(nb),
            #[cfg(unix)]
            Conn::Uds(s) => s.set_nonblocking(nb),
        }
    }
}

/// `write_all` over a nonblocking stream. The poller needs the fd
/// nonblocking for its readiness sweep, and nonblocking is a property of
/// the fd shared by both clones — so the write half must absorb
/// `WouldBlock` (kernel send buffer full, e.g. mid-way through a 1 MiB
/// frame) by retrying after a short sleep instead of failing the send.
fn write_all_nb(conn: &mut Conn, mut buf: &[u8]) -> std::io::Result<()> {
    use std::io::ErrorKind;
    while !buf.is_empty() {
        match conn.write(buf) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::WriteZero,
                    "connection wrote zero bytes",
                ))
            }
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_micros(100));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Uds(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Uds(s) => s.flush(),
        }
    }
}

/// Where a PE's mesh listener is dialed: a loopback TCP port or a socket
/// file. One [`dial`] and one [`join_mesh`] serve both.
trait PeerAddr: Sync {
    type Listener: Send;
    fn connect(&self) -> std::io::Result<Conn>;
    fn accept(listener: &Self::Listener) -> std::io::Result<Conn>;
}

impl PeerAddr for SocketAddr {
    type Listener = TcpListener;
    fn connect(&self) -> std::io::Result<Conn> {
        TcpStream::connect(self).map(Conn::Tcp)
    }
    fn accept(listener: &TcpListener) -> std::io::Result<Conn> {
        listener.accept().map(|(s, _)| Conn::Tcp(s))
    }
}

#[cfg(unix)]
impl PeerAddr for PathBuf {
    type Listener = UnixListener;
    fn connect(&self) -> std::io::Result<Conn> {
        UnixStream::connect(self).map(Conn::Uds)
    }
    fn accept(listener: &UnixListener) -> std::io::Result<Conn> {
        listener.accept().map(|(s, _)| Conn::Uds(s))
    }
}

/// Connect to `peer` at `addr`, retrying under `retry`'s bounded
/// exponential backoff.
fn dial(addr: &impl PeerAddr, peer: u32, retry: &RetryPolicy) -> Result<Conn, TransportError> {
    let mut delay = retry.base_delay;
    let mut last = String::new();
    for attempt in 0..retry.max_attempts {
        match addr.connect() {
            Ok(conn) => return Ok(conn),
            Err(e) => last = e.to_string(),
        }
        if attempt + 1 < retry.max_attempts {
            thread::sleep(delay);
            delay = (delay * 2).min(retry.max_delay);
        }
    }
    Err(TransportError::ConnectFailed {
        peer,
        attempts: retry.max_attempts,
        last,
    })
}

/// PE `pe`'s side of the mesh over `addrs` (one per PE): dial every lower
/// rank and say hello, then accept every higher rank and read its hello.
/// The listener is a loopback port or file any local process can dial, so
/// a hello must name a rank in `pe + 1..npes` not yet connected; anything
/// else is [`TransportError::BadHello`].
fn join_mesh<A: PeerAddr>(
    pe: u32,
    listener: &A::Listener,
    addrs: &[A],
    retry: &RetryPolicy,
) -> Result<Vec<(u32, Conn)>, TransportError> {
    let npes = addrs.len() as u32;
    let mut conns = Vec::new();
    for (q, addr) in (0..pe).zip(addrs) {
        let mut conn = dial(addr, q, retry)?;
        conn.write_all(&pe.to_le_bytes())?;
        conns.push((q, conn));
    }
    for _ in pe + 1..npes {
        let mut conn = A::accept(listener)?;
        let mut hello = [0u8; 4];
        conn.read_exact(&mut hello)?;
        let q = u32::from_le_bytes(hello);
        if q <= pe || q >= npes || conns.iter().any(|(r, _)| *r == q) {
            return Err(TransportError::BadHello { rank: q });
        }
        conns.push((q, conn));
    }
    Ok(conns)
}

/// Socket-backed transport endpoint. Build whole in-process clusters with
/// [`SocketTransport::tcp_cluster`] / [`SocketTransport::uds_cluster`].
pub struct SocketTransport {
    kind: &'static str,
    mux: FrameMux,
    inbox: Arc<Inbox>,
    /// Writer side per peer; None at our own index and once a peer's
    /// connection is closed or broken.
    peers: Vec<Mutex<Option<Conn>>>,
}

impl SocketTransport {
    /// Build an `npes`-endpoint TCP mesh over loopback, using ephemeral
    /// ports. Endpoint `i` belongs to PE `i`.
    pub fn tcp_cluster(npes: u32) -> Result<Vec<SocketTransport>, TransportError> {
        let listeners: Vec<TcpListener> = (0..npes)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<Result<_, _>>()?;
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(TcpListener::local_addr)
            .collect::<Result<_, _>>()?;
        Self::build_mesh("tcp", listeners, &addrs)
    }

    /// Build an `npes`-endpoint Unix-domain-socket mesh with socket files
    /// under `dir`.
    #[cfg(unix)]
    pub fn uds_cluster(npes: u32, dir: &Path) -> Result<Vec<SocketTransport>, TransportError> {
        let paths: Vec<PathBuf> = (0..npes)
            .map(|i| dir.join(format!("pe-{i}.sock")))
            .collect();
        let listeners: Vec<UnixListener> = paths
            .iter()
            .map(|p| {
                let _ = std::fs::remove_file(p);
                UnixListener::bind(p)
            })
            .collect::<Result<_, _>>()?;
        Self::build_mesh("uds", listeners, &paths)
    }

    fn build_mesh<A: PeerAddr>(
        kind: &'static str,
        listeners: Vec<A::Listener>,
        addrs: &[A],
    ) -> Result<Vec<SocketTransport>, TransportError> {
        let retry = &RetryPolicy::default();
        let results: Vec<Result<Vec<(u32, Conn)>, TransportError>> = thread::scope(|s| {
            let handles: Vec<_> = listeners
                .into_iter()
                .enumerate()
                .map(|(pe, listener)| {
                    s.spawn(move || join_mesh(pe as u32, &listener, addrs, retry))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(TransportError::Io("mesh connect thread panicked".into()))
                    })
                })
                .collect()
        });
        results
            .into_iter()
            .enumerate()
            .map(|(pe, conns)| Self::from_conns(pe as u32, addrs.len() as u32, kind, conns?))
            .collect()
    }

    fn from_conns(
        pe: u32,
        npes: u32,
        kind: &'static str,
        conns: Vec<(u32, Conn)>,
    ) -> Result<SocketTransport, TransportError> {
        let pool = Arc::new(FramePool::default());
        let inbox = Arc::new(Inbox::default());
        let mut peers: Vec<Mutex<Option<Conn>>> = (0..npes).map(|_| Mutex::new(None)).collect();
        let mut readers = Vec::with_capacity(conns.len());
        for (q, conn) in conns {
            let reader = conn.try_clone()?;
            // The mesh/hello exchange ran blocking; from here on the fd is
            // nonblocking for the poller sweep (writes compensate via
            // `write_all_nb`).
            reader.set_nonblocking(true)?;
            readers.push((q, reader));
            let slot = peers
                .get_mut(q as usize)
                .ok_or(TransportError::NoSuchPeer { peer: q })?;
            *slot.get_mut().unwrap_or_else(|e| e.into_inner()) = Some(conn);
        }
        if !readers.is_empty() {
            let (inbox, pool) = (Arc::clone(&inbox), Arc::clone(&pool));
            thread::Builder::new()
                .name(format!("dse-poll-{pe}"))
                .spawn(move || pump(readers, &inbox, &pool))
                .map_err(|e| TransportError::Io(format!("spawn poller thread: {e}")))?;
        }
        Ok(SocketTransport {
            kind,
            mux: FrameMux::with_pool(pe, npes, pool),
            inbox,
            peers,
        })
    }

    /// Deliver encoded frames to `to`: one write on its connection, or to
    /// ourselves a push into our own inbox. A failed write closes the
    /// connection, so later sends to `to` report the dropped peer.
    fn deliver(&self, to: u32, frames: &mut Vec<u8>) -> Result<(), TransportError> {
        if to == self.mux.pe() {
            return hand_over(&self.inbox, to, to, frames);
        }
        let mut peer = self.peers[to as usize]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let conn = peer
            .as_mut()
            .ok_or(TransportError::PeerDropped { peer: to })?;
        if let Err(e) = write_all_nb(conn, frames) {
            conn.shutdown(Shutdown::Both);
            *peer = None;
            return Err(e.into());
        }
        Ok(())
    }
}

/// The endpoint's one receive thread, a byte pump: it sweeps every peer
/// connection in nonblocking mode and pushes what each read returned into
/// the inbox, tagged with the sender, and a notice when a stream ends or a
/// read fails (after which it drops that connection). It sleeps briefly
/// only when a full pass read nothing, and exits when every stream has
/// ended. (`poll(2)` would replace that sleep here; see DESIGN §5l.)
fn pump(mut conns: Vec<(u32, Conn)>, inbox: &Inbox, pool: &FramePool) {
    use std::io::ErrorKind;
    let mut buf = [0u8; 64 * 1024];
    while !conns.is_empty() {
        let mut progress = false;
        conns.retain_mut(|(from, conn)| {
            let end = match conn.read(&mut buf) {
                Ok(0) => Inbound::Eof,
                Ok(n) => {
                    progress = true;
                    let mut bytes = pool.get(n);
                    bytes.extend_from_slice(&buf[..n]);
                    inbox.push((*from, Inbound::Bytes(bytes)));
                    return true;
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                    return true
                }
                Err(e) => Inbound::Failed(e.to_string()),
            };
            inbox.push((*from, end));
            false
        });
        if !progress {
            thread::sleep(Duration::from_micros(500));
        }
    }
}

impl Transport for SocketTransport {
    fn pe(&self) -> u32 {
        self.mux.pe()
    }

    fn npes(&self) -> u32 {
        self.mux.npes()
    }

    fn send(&self, to: u32, msg: &Message) -> Result<(), TransportError> {
        self.mux
            .send_frame(to, msg, None, |frame| self.deliver(to, frame))
    }

    fn send_ctx(&self, to: u32, msg: &Message, ctx: TraceCtx) -> Result<(), TransportError> {
        self.mux
            .send_frame(to, msg, Some(ctx), |frame| self.deliver(to, frame))
    }

    /// One write for the whole run: every frame is encoded back-to-back
    /// into the destination's buffer.
    fn send_batch(
        &self,
        to: u32,
        msgs: &[(Message, Option<TraceCtx>)],
    ) -> Result<(), TransportError> {
        self.mux
            .send_frames(to, msgs, |frames| self.deliver(to, frames))
    }

    fn recv(&self, timeout: Option<Duration>) -> Result<Option<Envelope>, TransportError> {
        self.mux.recv_via(&self.inbox, timeout)
    }

    fn poll_recv(&self) -> Result<Option<Envelope>, TransportError> {
        self.mux.poll_via(&self.inbox)
    }

    fn shutdown(&self) {
        // The inbox closes first, so a stream that ends from here on is
        // one we are ending: its notice is refused, not reported.
        self.inbox.close();
        self.mux.send_byes(|to, bye| {
            let conn = self.peers[to as usize]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take();
            let mut conn = conn.ok_or(TransportError::PeerDropped { peer: to })?;
            write_all_nb(&mut conn, bye)?;
            // Half-close: FIN the write side but keep reading, so the
            // poller still drains whatever the peer has in flight until
            // its own `Bye` and EOF. A full close here could turn a
            // late-arriving frame into a connection reset that destroys
            // our already-queued `Bye` before the peer reads it.
            conn.shutdown(Shutdown::Write);
            Ok(())
        });
    }

    /// Kill every connection *without* the `Bye` handshake — as if the
    /// process died. Peers observe [`TransportError::PeerDropped`]. This is
    /// the fault-injection entry point used by transport fault tests.
    fn abort(&self) {
        self.inbox.close();
        for peer in &self.peers {
            let conn = peer.lock().unwrap_or_else(|e| e.into_inner()).take();
            if let Some(conn) = conn {
                conn.shutdown(Shutdown::Both);
            }
        }
    }

    fn kind(&self) -> &'static str {
        self.kind
    }
}

impl Drop for SocketTransport {
    /// A dropped endpoint says `Bye` unless it already shut down or
    /// aborted, in which case no connection is left to say it on.
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dse_msg::{encode_bye, encode_frame, encode_frame_ctx, CodecError, RegionId, ReqId};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Instant;

    fn msg(i: u64) -> Message {
        Message::GmReadReq {
            req: ReqId(i),
            region: RegionId(2),
            offset: i,
            len: 16,
        }
    }

    #[test]
    fn tcp_mesh_roundtrip_ring() {
        let cluster = SocketTransport::tcp_cluster(3).unwrap();
        for (pe, t) in cluster.iter().enumerate() {
            let to = ((pe + 1) % 3) as u32;
            t.send(to, &msg(pe as u64)).unwrap();
        }
        for (pe, t) in cluster.iter().enumerate() {
            let expect_from = ((pe + 2) % 3) as u32;
            let env = t.recv(Some(Duration::from_secs(5))).unwrap().unwrap();
            assert_eq!(env.from, expect_from);
            assert_eq!(env.msg, msg(expect_from as u64));
        }
    }

    #[test]
    fn large_message_reassembles_across_reads() {
        // 1 MiB payload: many 64 KiB reads per frame, so the reader must
        // reassemble partial frames.
        let cluster = SocketTransport::tcp_cluster(2).unwrap();
        let big = Message::GmWriteReq {
            req: ReqId(1),
            region: RegionId(0),
            offset: 0,
            data: (0..1_048_576u32)
                .map(|i| i as u8)
                .collect::<Vec<u8>>()
                .into(),
        };
        cluster[0].send(1, &big).unwrap();
        let env = cluster[1]
            .recv(Some(Duration::from_secs(10)))
            .unwrap()
            .unwrap();
        assert_eq!(env.msg, big);
    }

    #[test]
    fn peer_drop_without_bye_is_reported() {
        let mut cluster = SocketTransport::tcp_cluster(2).unwrap();
        let b = cluster.pop().unwrap();
        let a = cluster.pop().unwrap();
        b.abort(); // dies without the handshake
        match a.recv(Some(Duration::from_secs(5))) {
            Err(TransportError::PeerDropped { peer: 1 }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    /// PE 0 of a 2-PE endpoint whose one connection, to PE 1, is the far
    /// end of the returned raw stream: a test writes PE 1's bytes itself.
    fn wrapped() -> (TcpStream, SocketTransport) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let raw = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (end, _) = listener.accept().unwrap();
        let t = SocketTransport::from_conns(0, 2, "tcp", vec![(1, Conn::Tcp(end))]).unwrap();
        (raw, t)
    }

    fn recv(t: &SocketTransport) -> Result<Option<Envelope>, TransportError> {
        t.recv(Some(Duration::from_secs(5)))
    }

    #[test]
    fn a_sequence_gap_is_reported_after_the_frames_before_it() {
        let (mut raw, t) = wrapped();
        let wire: Vec<u8> = [0, 2, 3]
            .into_iter()
            .flat_map(|seq| encode_frame(seq, &msg(seq)))
            .collect();
        raw.write_all(&wire).unwrap();
        assert_eq!(recv(&t).unwrap().unwrap().msg, msg(0));
        let gap = TransportError::SequenceGap {
            peer: 1,
            expected: 1,
            got: 2,
        };
        assert_eq!(recv(&t), Err(gap));
        // Nothing more is delivered from that peer, its EOF included.
        drop(raw);
        assert_eq!(t.recv(Some(Duration::from_millis(50))), Ok(None));
    }

    #[test]
    fn an_undecodable_frame_is_a_codec_error() {
        let (mut raw, t) = wrapped();
        let mut frame = encode_frame(0, &msg(0));
        frame[4] = 9; // the kind byte: no such frame kind
        raw.write_all(&frame).unwrap();
        assert_eq!(recv(&t), Err(TransportError::Codec(CodecError::BadTag(9))));
    }

    #[test]
    fn a_connection_cut_mid_frame_is_a_dropped_peer() {
        let (mut raw, t) = wrapped();
        let frame = encode_frame(0, &msg(0));
        raw.write_all(&frame[..frame.len() / 2]).unwrap();
        drop(raw);
        assert_eq!(recv(&t), Err(TransportError::PeerDropped { peer: 1 }));
    }

    #[test]
    fn the_wire_carries_exactly_the_encoded_frames_then_bye() {
        let (mut raw, t) = wrapped();
        let ctx = TraceCtx {
            trace: 3,
            parent: 4,
        };
        t.send(1, &msg(0)).unwrap();
        t.send_ctx(1, &msg(1), ctx).unwrap();
        t.send_batch(1, &[(msg(2), Some(ctx)), (msg(3), None)])
            .unwrap();
        t.send(1, &msg(4)).unwrap();
        t.shutdown();
        let mut wire = Vec::new();
        raw.read_to_end(&mut wire).unwrap();
        let ctxs = [None, Some(ctx), Some(ctx), None, None];
        let mut expected: Vec<u8> = (0..5u64)
            .flat_map(|seq| encode_frame_ctx(seq, &msg(seq), ctxs[seq as usize]))
            .collect();
        expected.extend(encode_bye(5));
        assert_eq!(wire, expected);
    }

    /// PE 0 of an `npes`-PE TCP mesh joins with raw streams in the higher
    /// ranks' places, each saying one of `hellos`.
    fn join_with_hellos(npes: u32, hellos: &[u32]) -> Result<SocketTransport, TransportError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = vec![listener.local_addr().unwrap(); npes as usize];
        let _dialers: Vec<TcpStream> = hellos
            .iter()
            .map(|hello| {
                let mut s = TcpStream::connect(addrs[0]).unwrap();
                s.write_all(&hello.to_le_bytes()).unwrap();
                s
            })
            .collect();
        join_mesh(0, &listener, &addrs, &RetryPolicy::default())
            .and_then(|conns| SocketTransport::from_conns(0, npes, "tcp", conns))
    }

    #[test]
    fn a_hello_out_of_range_is_an_error() {
        assert!(matches!(
            join_with_hellos(2, &[999]),
            Err(TransportError::BadHello { rank: 999 })
        ));
    }

    #[test]
    fn a_hello_that_repeats_a_rank_or_names_ours_is_an_error() {
        assert!(matches!(
            join_with_hellos(3, &[1, 1]),
            Err(TransportError::BadHello { rank: 1 })
        ));
        assert!(matches!(
            join_with_hellos(2, &[0]),
            Err(TransportError::BadHello { rank: 0 })
        ));
        assert!(join_with_hellos(3, &[2, 1]).is_ok());
    }

    #[test]
    fn dial_retries_until_listener_appears() {
        // Reserve a port, free it, and only rebind it after a delay: the
        // first attempts fail and backoff carries the dialer to success.
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        let retry = RetryPolicy {
            max_attempts: 50,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(40),
        };
        let accepted = Arc::new(AtomicU64::new(0));
        let acc = Arc::clone(&accepted);
        let server = thread::spawn(move || {
            thread::sleep(Duration::from_millis(80));
            let l = TcpListener::bind(addr).unwrap();
            let _ = l.accept().unwrap();
            acc.store(1, Ordering::SeqCst);
        });
        let t0 = Instant::now();
        let stream = dial(&addr, 0, &retry).unwrap();
        assert!(
            t0.elapsed() >= Duration::from_millis(40),
            "no backoff happened"
        );
        drop(stream);
        server.join().unwrap();
        assert_eq!(accepted.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn dial_gives_up_after_bounded_attempts() {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe); // nothing ever listens here again
        let retry = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(4),
        };
        match dial(&addr, 7, &retry) {
            Err(TransportError::ConnectFailed {
                peer: 7,
                attempts: 3,
                ..
            }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}
