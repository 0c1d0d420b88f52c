//! Cooperative shutdown and cancellation.
//!
//! One process-wide shutdown flag, set from a signal handler, plus
//! [`CancelToken`]s that long-running pipelines poll between units of
//! work. Two flavours share the type:
//!
//! - [`CancelToken::for_shutdown`] observes the global flag — the batch
//!   CLI hands these to campaigns so Ctrl-C finishes the current run,
//!   flushes `--metrics`/`--trace` sinks, and exits nonzero.
//! - [`CancelToken::new`] is purely local — the `anacin serve` daemon
//!   gives every job its own so a drain (SIGTERM) can stop *admitting*
//!   work without killing jobs already in flight, and so one client's
//!   `Cancel` frame never touches another client's job. Under
//!   `--job-timeout` the daemon's tokens are [`CancelToken::with_timeout`]
//!   ones, which also fire by themselves at their deadline.
//!
//! The signal handler itself only performs an atomic store (the one
//! thing that is async-signal-safe); a second signal while the first is
//! still draining hard-exits with status 130, so a wedged process can
//! always be killed from the keyboard.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Process-wide "a shutdown signal arrived" flag.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// True once SIGINT/SIGTERM has been received.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// A cooperative cancellation handle. Cloning shares the underlying
/// flag; `is_cancelled` is a single atomic load (plus a shutdown-flag
/// load or a clock read for the tokens that follow those), cheap enough
/// to poll per run.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    /// Set by a [`CancelToken::cancel`] that came before the deadline.
    local: Arc<AtomicBool>,
    deadline: Option<Instant>,
    follow_shutdown: bool,
}

impl CancelToken {
    /// A token that only fires when [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that additionally fires once the process-wide shutdown
    /// flag is set (SIGINT/SIGTERM).
    pub fn for_shutdown() -> Self {
        CancelToken {
            follow_shutdown: true,
            ..Self::default()
        }
    }

    /// A token that additionally fires once `timeout` has passed from
    /// now; [`CancelToken::timed_out`] tells that from a cancel.
    pub fn with_timeout(timeout: Duration) -> Self {
        CancelToken {
            deadline: Instant::now().checked_add(timeout),
            ..Self::default()
        }
    }

    fn past_deadline(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Fire this token (and every clone of it). Past its deadline a token
    /// has fired already, as a timeout, and stays one.
    pub fn cancel(&self) {
        if !self.past_deadline() {
            self.local.store(true, Ordering::SeqCst);
        }
    }

    /// Has this token (or, for shutdown-following tokens, the process)
    /// been asked to stop, or has its deadline passed?
    pub fn is_cancelled(&self) -> bool {
        self.local.load(Ordering::SeqCst)
            || self.past_deadline()
            || (self.follow_shutdown && shutdown_requested())
    }

    /// Did the deadline pass before any [`CancelToken::cancel`]?
    pub fn timed_out(&self) -> bool {
        self.past_deadline() && !self.local.load(Ordering::SeqCst)
    }
}

#[cfg(unix)]
mod sys {
    use super::SHUTDOWN;
    use std::sync::atomic::Ordering;

    pub const SIGINT: i32 = 2;
    pub const SIGPIPE: i32 = 13;
    pub const SIGTERM: i32 = 15;
    /// `SIG_DFL`: the signal's default action.
    const SIG_DFL: usize = 0;

    // std already links libc; declaring the two symbols we need avoids
    // a dependency on a libc crate the offline container doesn't have.
    // `handler` is a `sighandler_t`: a function pointer or `SIG_DFL`.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn _exit(status: i32) -> !;
    }

    extern "C" fn on_signal(_signum: i32) {
        // swap + store are async-signal-safe; everything else (locks,
        // allocation, printing) is not, so nothing else happens here.
        if SHUTDOWN.swap(true, Ordering::SeqCst) {
            // Second signal while the first drain is still running:
            // the conventional 128+SIGINT exit status.
            unsafe { _exit(130) }
        }
    }

    pub fn install() {
        let handler = on_signal as extern "C" fn(i32) as usize;
        // SAFETY: `signal` is given valid signal numbers and a handler
        // with the C signature that does only async-signal-safe work.
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    pub fn default_sigpipe() {
        // SAFETY: `SIG_DFL` is a valid `sighandler_t` for any signal.
        unsafe {
            signal(SIGPIPE, SIG_DFL);
        }
    }
}

/// Install SIGINT/SIGTERM handlers that set the global shutdown flag
/// (first signal) or hard-exit 130 (second signal), and return a token
/// observing that flag. On non-unix targets this installs nothing, and
/// the returned token fires only when cancelled.
pub fn install_signal_handlers() -> CancelToken {
    #[cfg(unix)]
    sys::install();
    CancelToken::for_shutdown()
}

/// Give SIGPIPE back its default action, which Rust's runtime replaces
/// with "ignore". A process whose stdout is a pipe that the reader closed
/// (`anacin --help | head -1`) then ends on its next write, as other Unix
/// tools do, instead of panicking in `println!`. Only for processes that
/// write to no socket: there, a peer that goes away must stay an
/// `io::Error`. Does nothing on non-unix targets.
pub fn restore_default_sigpipe() {
    #[cfg(unix)]
    sys::default_sigpipe();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Set the global flag without a signal.
    fn request_shutdown() {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    /// Clear the global flag: it is process-wide, and this test binary
    /// runs many tests in one process.
    fn reset_shutdown_for_tests() {
        SHUTDOWN.store(false, Ordering::SeqCst);
    }

    #[test]
    fn local_token_is_isolated_from_shutdown() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled(), "clones share the flag");
        assert!(
            !CancelToken::new().is_cancelled(),
            "fresh tokens start clear"
        );
    }

    #[test]
    fn deadline_fires_the_token_once_it_passes() {
        let far = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(!far.is_cancelled() && !far.timed_out());
        let near = CancelToken::with_timeout(Duration::from_millis(5));
        let clone = near.clone();
        std::thread::sleep(Duration::from_millis(20));
        assert!(clone.is_cancelled() && clone.timed_out());
        near.cancel();
        assert!(
            clone.timed_out(),
            "a cancel after the deadline is a timeout"
        );
        assert!(!CancelToken::new().timed_out(), "no deadline, no timeout");
    }

    #[test]
    fn a_cancel_before_the_deadline_is_not_a_timeout() {
        let t = CancelToken::with_timeout(Duration::from_millis(200));
        t.clone().cancel();
        std::thread::sleep(Duration::from_millis(250));
        assert!(t.is_cancelled());
        assert!(!t.timed_out(), "the cancel came first");
    }

    #[test]
    fn shutdown_following_token_sees_global_flag() {
        reset_shutdown_for_tests();
        let t = CancelToken::for_shutdown();
        let local_only = CancelToken::new();
        assert!(!t.is_cancelled());
        request_shutdown();
        assert!(t.is_cancelled());
        assert!(
            !local_only.is_cancelled(),
            "local tokens ignore the global flag: a daemon drain must not kill in-flight jobs"
        );
        reset_shutdown_for_tests();
        assert!(!t.is_cancelled());
    }
}
