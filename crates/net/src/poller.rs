//! Readiness waiting for the poll-mode TCP ingress.
//!
//! A [`Poller`] lets one thread block until any of its registered sockets
//! is readable — or until another thread calls [`Poller::notify`] —
//! instead of scanning every socket on a timer. Sockets are registered
//! under caller-chosen `u64` keys; [`Poller::wait`] hands back the keys
//! that are ready, so the caller touches O(ready) sockets per wake-up.
//!
//! On Linux this is `epoll` (level-triggered) plus an `eventfd` waker,
//! declared by hand the way `videopipe-cluster`'s `signals` module declares
//! `signal`/`kill`: the vendored dependency set has no libc. Elsewhere the
//! same type degrades to a 1 ms timed wait that reports every registered
//! key as ready, which is the scan-and-sleep loop this module replaced.
//!
//! The same island holds [`exact_timer_wakeups`], which asks the kernel to
//! fire the calling thread's timed waits on time instead of up to the
//! default 50 µs timer slack late; it too degrades to a no-op elsewhere.
//!
//! This is the crate's one `unsafe` island (`lib.rs` denies `unsafe_code`
//! everywhere else): five foreign calls and the adoption of the two file
//! descriptors two of them return.

pub use imp::{exact_timer_wakeups, Poller};

/// Key reserved for the poller's own waker; [`Poller::add`] rejects it.
const WAKER_KEY: u64 = u64::MAX;

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use super::WAKER_KEY;
    use std::fs::File;
    use std::io::{self, Read, Write};
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
    use std::time::Duration;

    // Values from the Linux UAPI headers for x86_64 and aarch64 (the
    // `cfg` above keeps every other target on the portable fallback).
    const EPOLL_CLOEXEC: i32 = 0o2_000_000;
    const EFD_CLOEXEC: i32 = 0o2_000_000;
    const EFD_NONBLOCK: i32 = 0o4_000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLLIN: u32 = 0x001;
    const EPOLLRDHUP: u32 = 0x2000;
    const PR_SET_TIMERSLACK: i32 = 29;

    /// Ready events fetched per `epoll_wait`; a fuller ready set is
    /// reported over consecutive waits (level-triggered: nothing is lost).
    const MAX_EVENTS: usize = 128;

    /// `struct epoll_event`: packed on x86_64, naturally aligned elsewhere.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn prctl(option: i32, ...) -> i32;
    }

    /// Converts a `-1`-on-error libc return into an `io::Result`.
    fn cvt(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// Sets the calling thread's timer slack to 1 ns, so its timed waits
    /// (`park_timeout`, `recv_timeout`, `sleep`, `epoll_wait`) end at their
    /// deadline rather than up to the default 50 µs after it, when the
    /// kernel would rather batch the wake-up with other timers. The value
    /// is 1, not 0: 0 resets the thread to its default. Slack is per
    /// thread; threads this one spawns later inherit it.
    ///
    /// # Errors
    ///
    /// Propagates the `prctl` failure; the thread keeps its old slack.
    pub fn exact_timer_wakeups() -> io::Result<()> {
        // SAFETY: `PR_SET_TIMERSLACK` takes one `unsigned long` by value
        // and no pointers, and only changes the calling thread.
        cvt(unsafe { prctl(PR_SET_TIMERSLACK, 1_u64) }).map(drop)
    }

    /// A level-triggered readiness set with a cross-thread waker.
    ///
    /// `wait` is meant for one thread at a time; `add`, `delete` and
    /// `notify` may be called from any thread, also while another thread
    /// is blocked in `wait`.
    pub struct Poller {
        epoll: OwnedFd,
        /// The `eventfd`, as a `File` so it is read and written in safe
        /// code. Non-blocking: draining an already-drained waker returns
        /// `WouldBlock` instead of hanging.
        waker: File,
    }

    impl Poller {
        /// Creates an empty readiness set.
        ///
        /// # Errors
        ///
        /// Propagates `epoll_create1`/`eventfd`/`epoll_ctl` failures (fd
        /// limit reached, out of memory).
        pub(crate) fn new() -> io::Result<Self> {
            // SAFETY: `epoll_create1` takes a flag word and no pointers.
            let epoll = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            // SAFETY: `epoll` was just returned by a successful
            // `epoll_create1`, so it is an open descriptor nobody else owns.
            let epoll = unsafe { OwnedFd::from_raw_fd(epoll) };
            // SAFETY: `eventfd` takes two integers and no pointers.
            let waker = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
            // SAFETY: `waker` was just returned by a successful `eventfd`,
            // so it is an open descriptor nobody else owns.
            let waker = File::from(unsafe { OwnedFd::from_raw_fd(waker) });
            let poller = Poller { epoll, waker };
            poller.ctl(EPOLL_CTL_ADD, poller.waker.as_raw_fd(), WAKER_KEY)?;
            Ok(poller)
        }

        fn ctl(&self, op: i32, fd: i32, key: u64) -> io::Result<()> {
            let mut event = EpollEvent {
                events: EPOLLIN | EPOLLRDHUP,
                data: key,
            };
            // SAFETY: `self.epoll` is an open epoll descriptor for as long
            // as `self` lives, and `event` is a live, writable
            // `epoll_event` for the duration of the call (the kernel copies
            // it; `EPOLL_CTL_DEL` ignores it). A stale or foreign `fd` makes
            // the call fail with `EBADF`/`ENOENT`, not misbehave.
            cvt(unsafe { epoll_ctl(self.epoll.as_raw_fd(), op, fd, &mut event) }).map(drop)
        }

        /// Registers `source` for readability (data, a pending connection,
        /// EOF, hang-up or error) under `key`.
        ///
        /// # Errors
        ///
        /// `InvalidInput` for the reserved key `u64::MAX`; otherwise the
        /// `epoll_ctl` failure (`EEXIST` when already registered).
        pub(crate) fn add(&self, source: &impl AsRawFd, key: u64) -> io::Result<()> {
            if key == WAKER_KEY {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "key u64::MAX is reserved for the waker",
                ));
            }
            self.ctl(EPOLL_CTL_ADD, source.as_raw_fd(), key)
        }

        /// Removes `source` from the set. Call this *before* closing the
        /// socket: the kernel only forgets a closed descriptor by itself
        /// when no duplicate of it is left open.
        ///
        /// # Errors
        ///
        /// Propagates the `epoll_ctl` failure (`ENOENT` when not registered).
        pub(crate) fn delete(&self, source: &impl AsRawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, source.as_raw_fd(), 0)
        }

        /// Blocks until a registered source is ready, [`Poller::notify`] is
        /// called, or `timeout` passes (`None` waits indefinitely), and
        /// appends the keys that are ready to `ready`. A notify or an
        /// interrupting signal returns early, possibly with no key.
        ///
        /// # Errors
        ///
        /// Propagates `epoll_wait` failures other than `EINTR`.
        pub(crate) fn wait(
            &self,
            ready: &mut Vec<u64>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            let timeout_ms = match timeout {
                None => -1,
                // Round up so a sub-millisecond deadline is not turned into
                // a busy loop of zero-timeout waits.
                Some(t) => i32::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX),
            };
            let mut events = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
            // SAFETY: `self.epoll` is an open epoll descriptor, and
            // `events` is a live, writable array of exactly `MAX_EVENTS`
            // `epoll_event`s, the count passed as `maxevents`.
            let n = match cvt(unsafe {
                epoll_wait(
                    self.epoll.as_raw_fd(),
                    events.as_mut_ptr(),
                    MAX_EVENTS as i32,
                    timeout_ms,
                )
            }) {
                Ok(n) => n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                Err(e) => return Err(e),
            };
            for event in &events[..n] {
                // By-value read: the struct may be packed.
                let key = event.data;
                if key == WAKER_KEY {
                    // One read resets the counter, however many notifies
                    // were folded into it.
                    let _ = (&self.waker).read(&mut [0u8; 8]);
                } else {
                    ready.push(key);
                }
            }
            Ok(())
        }

        /// Makes the current — or, when nobody is waiting, the next —
        /// `Poller::wait` return. Notifies that land before the waiter
        /// wakes collapse into one wake-up. Publish whatever the waiter
        /// should see *before* calling this.
        pub fn notify(&self) {
            // The only failure is `WouldBlock` on a saturated counter,
            // which already guarantees a wake-up.
            let _ = (&self.waker).write(&1u64.to_ne_bytes());
        }
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    use super::WAKER_KEY;
    use std::io;
    use std::sync::{Condvar, Mutex, PoisonError};
    use std::time::Duration;

    /// Longest one `wait` sleeps: the poll interval of the portable path.
    const SCAN_INTERVAL: Duration = Duration::from_millis(1);

    /// Does nothing: this target's timed waits keep their own precision.
    ///
    /// # Errors
    ///
    /// Never fails on this target.
    pub fn exact_timer_wakeups() -> io::Result<()> {
        Ok(())
    }

    /// Portable stand-in: a timed wait that reports every key as ready.
    #[derive(Default)]
    pub struct Poller {
        /// Registered keys and whether a notify is pending.
        state: Mutex<(Vec<u64>, bool)>,
        wake: Condvar,
    }

    impl Poller {
        /// Creates an empty readiness set.
        ///
        /// # Errors
        ///
        /// Never fails on this target.
        pub(crate) fn new() -> io::Result<Self> {
            Ok(Self::default())
        }

        /// Registers `source` under `key`.
        ///
        /// # Errors
        ///
        /// `InvalidInput` for the reserved key `u64::MAX`.
        pub(crate) fn add<S>(&self, _source: &S, key: u64) -> io::Result<()> {
            if key == WAKER_KEY {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "key u64::MAX is reserved for the waker",
                ));
            }
            let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.0.push(key);
            Ok(())
        }

        /// Forgets nothing: keys are never reused, and callers ignore a
        /// key whose socket is gone.
        ///
        /// # Errors
        ///
        /// Never fails on this target.
        pub(crate) fn delete<S>(&self, _source: &S) -> io::Result<()> {
            Ok(())
        }

        /// Sleeps up to 1 ms (less for a shorter `timeout`, not at all
        /// after a notify) and reports every registered key.
        ///
        /// # Errors
        ///
        /// Never fails on this target.
        pub(crate) fn wait(
            &self,
            ready: &mut Vec<u64>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            let nap = timeout.map_or(SCAN_INTERVAL, |t| t.min(SCAN_INTERVAL));
            let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            if !state.1 {
                state = self
                    .wake
                    .wait_timeout(state, nap)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            state.1 = false;
            ready.extend_from_slice(&state.0);
            Ok(())
        }

        /// Makes the current or next [`Poller::wait`] return at once.
        pub(crate) fn notify(&self) {
            self.state.lock().unwrap_or_else(PoisonError::into_inner).1 = true;
            self.wake.notify_one();
        }
    }
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn reserved_key_is_rejected() {
        let (_client, server) = pair();
        let poller = Poller::new().unwrap();
        assert!(poller.add(&server, u64::MAX).is_err());
        assert!(poller.add(&server, 7).is_ok());
    }

    #[test]
    fn readable_socket_reports_its_key() {
        let (mut client, server) = pair();
        let poller = Poller::new().unwrap();
        poller.add(&server, 42).unwrap();
        client.write_all(b"x").unwrap();
        let mut ready = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while !ready.contains(&42) {
            assert!(Instant::now() < deadline, "readiness never reported");
            poller
                .wait(&mut ready, Some(Duration::from_millis(100)))
                .unwrap();
        }
    }

    #[test]
    fn notify_wakes_a_blocked_wait_from_another_thread() {
        let poller = Arc::new(Poller::new().unwrap());
        let (entered_tx, entered_rx) = mpsc::channel();
        let (woke_tx, woke_rx) = mpsc::channel();
        let waiter = {
            let poller = Arc::clone(&poller);
            std::thread::spawn(move || {
                let mut ready = Vec::new();
                entered_tx.send(()).unwrap();
                // No timeout: only a notify can end this wait on Linux.
                poller.wait(&mut ready, None).unwrap();
                woke_tx.send(ready).unwrap();
            })
        };
        entered_rx.recv().unwrap();
        poller.notify();
        let ready = woke_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("notify never woke the waiter");
        assert!(ready.is_empty(), "the waker is not a caller key: {ready:?}");
        waiter.join().unwrap();
    }

    // The portable stand-in wakes every millisecond by design, so only the
    // epoll implementation can show that idle waits really block.
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    mod epoll_only {
        use super::*;

        #[test]
        fn repeated_notifies_coalesce_into_one_wakeup() {
            let poller = Poller::new().unwrap();
            for _ in 0..5 {
                poller.notify();
            }
            let mut ready = Vec::new();
            // All five are consumed by the first wait...
            let start = Instant::now();
            poller.wait(&mut ready, None).unwrap();
            assert!(start.elapsed() < Duration::from_secs(1));
            // ...so the second one runs out its timeout.
            let start = Instant::now();
            poller
                .wait(&mut ready, Some(Duration::from_millis(50)))
                .unwrap();
            assert!(
                start.elapsed() >= Duration::from_millis(45),
                "a stale notify ended the wait after {:?}",
                start.elapsed()
            );
            assert!(ready.is_empty());
        }

        #[test]
        fn deleted_source_stops_reporting() {
            let (mut client, server) = pair();
            let poller = Poller::new().unwrap();
            poller.add(&server, 9).unwrap();
            client.write_all(b"x").unwrap();
            let mut ready = Vec::new();
            let deadline = Instant::now() + Duration::from_secs(5);
            while ready.is_empty() {
                assert!(Instant::now() < deadline, "readiness never reported");
                poller
                    .wait(&mut ready, Some(Duration::from_millis(100)))
                    .unwrap();
            }
            poller.delete(&server).unwrap();
            ready.clear();
            // Still unread, so still readable — but no longer watched.
            poller
                .wait(&mut ready, Some(Duration::from_millis(20)))
                .unwrap();
            assert!(ready.is_empty(), "deleted key reported: {ready:?}");
            assert!(poller.delete(&server).is_err(), "double delete must fail");
        }
    }
}
