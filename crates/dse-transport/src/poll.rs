//! Readiness waits: `poll(2)`, which std does not expose. The socket
//! backend's fds are nonblocking, so its pump waits here until a
//! connection has bytes, has ended or has failed, and a writer waits here
//! while the kernel's send buffer is full. Nothing else sleeps on a socket.
//!
//! This module is the crate's only `unsafe`: one call into the C library,
//! declared as Linux declares it (`nfds_t` is an `unsigned long`).

use std::ffi::{c_int, c_short, c_ulong};
use std::io;
use std::os::fd::RawFd;

/// There is data to read, or the stream's end.
pub(crate) const POLLIN: c_short = 0x001;
/// Writing will not block.
pub(crate) const POLLOUT: c_short = 0x004;

/// `struct pollfd`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Block until at least one of `fds` is ready for its events, has hung up
/// or has failed. No timeout; an interrupted wait waits again.
fn wait(fds: &mut [PollFd]) -> io::Result<()> {
    loop {
        // SAFETY: `fds` is a live, writable array of `struct pollfd` laid
        // out as the C library expects, its length is passed alongside, and
        // `poll` writes nothing but the entries' `revents`.
        if unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, -1) } >= 0 {
            return Ok(());
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// A reusable set of fds to wait on: rebuilt from the caller's live fds
/// on every wait, so it allocates only when the set grows.
#[derive(Default)]
pub(crate) struct PollSet {
    fds: Vec<PollFd>,
}

impl PollSet {
    /// Wait until at least one of `fds` is ready for `events`, has hung up
    /// or has failed.
    pub(crate) fn wait(
        &mut self,
        fds: impl Iterator<Item = RawFd>,
        events: c_short,
    ) -> io::Result<()> {
        self.fds.clear();
        self.fds.extend(fds.map(|fd| PollFd {
            fd,
            events,
            revents: 0,
        }));
        wait(&mut self.fds)
    }

    /// Whether each fd of the last wait, in order, is ready, hung up or
    /// failed.
    pub(crate) fn ready(&self) -> impl Iterator<Item = bool> + '_ {
        self.fds.iter().map(|p| p.revents != 0)
    }
}

/// Wait until `fd` is ready for `events`, has hung up or has failed.
pub(crate) fn wait_one(fd: RawFd, events: c_short) -> io::Result<()> {
    wait(&mut [PollFd {
        fd,
        events,
        revents: 0,
    }])
}
