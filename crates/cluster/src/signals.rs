//! Minimal POSIX signal plumbing, without a libc dependency.
//!
//! Two needs, both tiny: binaries must notice SIGTERM/SIGINT so they can
//! drain instead of dying mid-frame, and the chaos harness must deliver
//! SIGKILL/SIGSTOP/SIGCONT/SIGTERM to child processes it spawned. Both
//! are raw syscalls the vendored dependency set doesn't wrap, so this
//! module declares the two libc entry points itself. The handler does the
//! only async-signal-safe thing possible: it sets a process-global atomic
//! flag that the main loops poll.
//!
//! This is the single `unsafe` island in the workspace (every other crate
//! is `#![forbid(unsafe_code)]`); keep it that way.

use std::sync::atomic::{AtomicBool, Ordering};

/// SIGINT (Ctrl-C).
pub(crate) const SIGINT: i32 = 2;
/// SIGTERM (graceful shutdown request).
pub(crate) const SIGTERM: i32 = 15;
/// SIGSTOP (uncatchable freeze; chaos "network partition/GC pause").
pub(crate) const SIGSTOP: i32 = 19;
/// SIGCONT (resume a stopped process; chaos "partition heals").
pub(crate) const SIGCONT: i32 = 18;

static TERMINATE: AtomicBool = AtomicBool::new(false);

type SigHandler = extern "C" fn(i32);

extern "C" {
    fn signal(signum: i32, handler: SigHandler) -> usize;
    #[link_name = "kill"]
    fn libc_kill(pid: i32, sig: i32) -> i32;
}

extern "C" fn on_terminate(_sig: i32) {
    // Async-signal-safe by construction: one relaxed atomic store, no
    // allocation, no locks, no I/O.
    TERMINATE.store(true, Ordering::Relaxed);
}

/// Installs flag-setting handlers for SIGTERM and SIGINT. Idempotent.
/// After this, [`termination_requested`] turns true the moment either
/// signal arrives.
pub fn install_termination_handler() {
    // SAFETY: `signal(2)` with a handler that only performs an atomic
    // store is async-signal-safe; the handler has C ABI and never unwinds.
    unsafe {
        signal(SIGTERM, on_terminate);
        signal(SIGINT, on_terminate);
    }
}

/// Whether SIGTERM/SIGINT has been received since
/// [`install_termination_handler`].
pub fn termination_requested() -> bool {
    TERMINATE.load(Ordering::Relaxed)
}

/// Sends `sig` to `pid` via `kill(2)`. Returns `false` when the syscall
/// fails (no such process, no permission). Used by the chaos harness to
/// SIGKILL/SIGSTOP/SIGCONT real child processes it spawned.
pub(crate) fn kill(pid: u32, sig: i32) -> bool {
    if pid == 0 {
        // Never signal "every process in our group" by accident.
        return false;
    }
    // SAFETY: plain syscall wrapper; any pid/sig combination is memory-safe.
    unsafe { libc_kill(pid as i32, sig) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SIGKILL (uncatchable; chaos "machine died").
    pub(crate) const SIGKILL: i32 = 9;

    /// Test hook: pretend a termination signal arrived (same flag the real
    /// handler sets).
    pub(crate) fn request_termination() {
        TERMINATE.store(true, Ordering::Relaxed);
    }

    #[test]
    fn termination_flag_roundtrip() {
        install_termination_handler();
        assert!(!termination_requested() || TERMINATE.load(Ordering::Relaxed));
        request_termination();
        assert!(termination_requested());
        TERMINATE.store(false, Ordering::Relaxed);
    }

    #[test]
    fn kill_rejects_pid_zero() {
        assert!(!kill(0, SIGCONT));
    }

    #[test]
    fn kill_signals_real_children() {
        // Spawn a sleeping child and SIGKILL it through our wrapper.
        let mut child = std::process::Command::new("sleep")
            .arg("30")
            .spawn()
            .expect("spawn sleep");
        assert!(kill(child.id(), SIGKILL));
        let status = child.wait().expect("wait");
        assert!(!status.success());
    }
}
