//! Waiting on one socket with a sub-millisecond timeout.
//!
//! The open-loop client must wake both when a request falls due and
//! when a reply arrives, on one thread per connection. The standard
//! library's socket timeouts have the kernel's tick as resolution, so
//! this calls `ppoll(2)`, whose timeout is a `timespec`.

use std::ffi::{c_int, c_long, c_short, c_ulong, c_void};
use std::io;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::Duration;

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Blocks until `conn` is readable (or writable, when `writable` is
/// asked for) or `timeout` passes. A signal ends the wait early, which
/// callers treat like a timeout.
pub fn wait(conn: &TcpStream, writable: bool, timeout: Duration) -> io::Result<()> {
    let mut fd = PollFd {
        fd: conn.as_raw_fd(),
        events: POLLIN | if writable { POLLOUT } else { 0 },
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs().min(c_long::MAX as u64) as c_long,
        tv_nsec: timeout.subsec_nanos() as c_long,
    };
    // SAFETY: `fd` and `ts` are live, properly initialised `#[repr(C)]`
    // values matching `struct pollfd` and `struct timespec`; `nfds` is
    // 1, the length of the one-element array `&mut fd` points to; a
    // null `sigmask` asks ppoll not to change the signal mask. ppoll
    // writes only `fd.revents`.
    let rc = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}
