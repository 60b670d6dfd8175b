//! The Linux readiness syscalls the TCP backend waits in.
//!
//! The container vendors no `libc` crate, so the three `epoll(7)` calls
//! and `eventfd(2)` are declared here directly, the way `ring-server`
//! declares `signal(2)`. Descriptors are held as [`OwnedFd`]/[`File`],
//! so std closes them; a socket closed by its owner leaves the epoll
//! set on its own (no descriptor is ever duplicated).

use std::fs::File;
use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::time::Duration;

/// Readable (or, for a listener, a connection to accept).
pub(crate) const EPOLLIN: u32 = 0x001;
/// Writable again after a write would have blocked.
pub(crate) const EPOLLOUT: u32 = 0x004;

const O_CLOEXEC: i32 = 0o2_000_000;
const O_NONBLOCK: i32 = 0o4_000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_MOD: i32 = 3;

/// `struct epoll_event`: packed on x86-64 only, as the kernel lays it out.
#[derive(Clone, Copy, Default)]
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
pub(crate) struct Event {
    events: u32,
    token: u64,
}

impl Event {
    /// The token the ready descriptor was registered with.
    pub(crate) fn token(&self) -> u64 {
        self.token
    }

    /// Whether the event reports `flags` (error and hang-up count as
    /// both readable and writable: the next read or write reports them).
    pub(crate) fn has(&self, flags: u32) -> bool {
        const ERR_HUP: u32 = 0x008 | 0x010;
        self.events & (flags | ERR_HUP) != 0
    }
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut Event) -> i32;
    fn epoll_wait(epfd: i32, events: *mut Event, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
}

/// A descriptor returned by a syscall, or its `errno`.
fn owned(fd: i32) -> io::Result<OwnedFd> {
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: a fresh descriptor the kernel just handed to us alone.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// One epoll set (level-triggered).
#[derive(Debug)]
pub(crate) struct Epoll(OwnedFd);

impl Epoll {
    pub(crate) fn new() -> io::Result<Epoll> {
        // SAFETY: no pointers; the result is checked by `owned`.
        owned(unsafe { epoll_create1(O_CLOEXEC) }).map(Epoll)
    }

    /// Registers `fd` for `events`, reported with `token`.
    pub(crate) fn add(&self, fd: &impl AsRawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, events)
    }

    /// Changes the events `fd` is registered for.
    pub(crate) fn modify(&self, fd: &impl AsRawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, events)
    }

    fn ctl(&self, op: i32, fd: &impl AsRawFd, token: u64, events: u32) -> io::Result<()> {
        let mut event = Event { events, token };
        // SAFETY: `event` outlives the call, which only reads it.
        let r = unsafe { epoll_ctl(self.0.as_raw_fd(), op, fd.as_raw_fd(), &mut event) };
        if r < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Waits up to `timeout` (`None`: no limit) for a registered
    /// descriptor to become ready and fills the front of `events`;
    /// returns how many were filled. The kernel counts whole
    /// milliseconds, so a timeout is rounded up, never down. A signal
    /// ends the wait early with nothing ready, as any caller that
    /// re-checks its deadline expects; so does any other failure.
    pub(crate) fn wait(&self, events: &mut [Event], timeout: Option<Duration>) -> usize {
        let ms = timeout.map_or(-1, |t| {
            i32::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX)
        });
        let max = i32::try_from(events.len()).unwrap_or(i32::MAX);
        // SAFETY: the kernel writes at most `max` entries into `events`.
        let n = unsafe { epoll_wait(self.0.as_raw_fd(), events.as_mut_ptr(), max, ms) };
        usize::try_from(n).unwrap_or(0)
    }
}

/// A nonblocking eventfd: one write makes it readable, which wakes
/// whoever waits on an epoll set it is registered in.
pub(crate) fn event_fd() -> io::Result<File> {
    // SAFETY: no pointers; the result is checked by `owned`.
    owned(unsafe { eventfd(0, O_CLOEXEC | O_NONBLOCK) }).map(File::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn an_eventfd_write_wakes_a_wait_and_timeouts_round_up() {
        let ep = Epoll::new().unwrap();
        let mut wake = event_fd().unwrap();
        ep.add(&wake, 7, EPOLLIN).unwrap();
        let mut events = [Event::default(); 4];

        let start = std::time::Instant::now();
        assert_eq!(ep.wait(&mut events, Some(Duration::from_micros(10))), 0);
        assert!(start.elapsed() >= Duration::from_micros(10), "never early");

        wake.write_all(&1u64.to_ne_bytes()).unwrap();
        assert_eq!(ep.wait(&mut events, None), 1);
        assert_eq!(events[0].token(), 7);
        assert!(events[0].has(EPOLLIN) && !events[0].has(EPOLLOUT));

        let mut count = [0u8; 8];
        wake.read_exact(&mut count).unwrap();
        assert_eq!(u64::from_ne_bytes(count), 1);
        assert_eq!(ep.wait(&mut events, Some(Duration::ZERO)), 0, "drained");
        ep.modify(&wake, 8, EPOLLOUT).unwrap();
        assert_eq!(ep.wait(&mut events, Some(Duration::ZERO)), 1);
        assert_eq!(events[0].token(), 8);
    }
}
