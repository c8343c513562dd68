//! Test-only: widen a condvar waiter's check→wait window.
//!
//! A waiter checks its predicate under a mutex and then waits, which
//! releases the mutex. A notifier that changes the predicate *without*
//! holding that mutex can land between the check and the wait, and its
//! wakeup is lost: the waiter sleeps forever and whoever `join`s it hangs.
//! The window is a few instructions wide, so the bug hides in ordinary
//! runs. A waiter calls [`WaitWindow::pass`] inside the window; a test
//! arms it to sleep there, which makes the lost wakeup happen on every run.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A pause point inside one waiter's check→wait window (see the module
/// docs). Inert until [`WaitWindow::arm`]ed.
#[derive(Debug, Default)]
pub(crate) struct WaitWindow {
    pause_ms: AtomicU64,
    entered: AtomicBool,
}

impl WaitWindow {
    /// Makes every later [`WaitWindow::pass`] sleep for `pause`.
    pub(crate) fn arm(&self, pause: Duration) {
        self.pause_ms
            .store(pause.as_millis() as u64, Ordering::SeqCst);
    }

    /// Called by the waiter after its predicate check and before its wait,
    /// with the mutex held.
    pub(crate) fn pass(&self) {
        let ms = self.pause_ms.load(Ordering::SeqCst);
        if ms > 0 {
            self.entered.store(true, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(ms));
        }
    }

    /// Blocks until an armed waiter is inside the window; false if none
    /// arrives within 10 s.
    pub(crate) fn wait_entered(&self) -> bool {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !self.entered.load(Ordering::SeqCst) {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }
}
