//! Cooperative per-cell execution guard: a thread-local cancel token and
//! simulated-cycle budget that every run loop polls, so a supervisor can
//! stop a runaway cell (wedged configuration, pathological workload)
//! without killing its worker thread.
//!
//! The guard is cooperative on purpose. Simulation state is
//! thread-confined `Rc`/`RefCell` soup that cannot be torn down safely
//! from outside, so instead of forcibly unwinding a stuck worker, the
//! supervisor trips a shared [`AtomicBool`] (its watchdog thread) or
//! installs a cycle budget up front, and the run loops — the
//! single-system driver [`run_until`](crate::run_until), `Cluster`, and
//! the functional fast-forward in `r3dla-sample` — bail out at the next
//! iteration. The supervisor then reads [`interrupt_cause`], discards
//! the partial result, and reports the cell as timed out.
//!
//! When no guard is installed (the default — every direct call to
//! `measure`/`run_until*` outside a supervised pool), [`tick`] is a
//! single thread-local flag read per loop iteration and nothing changes
//! behaviorally; deterministic reports stay byte-identical.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Why the guarded cell was interrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupt {
    /// The supervisor's watchdog tripped the cancel token (the cell
    /// overran its wall-clock deadline).
    Cancelled,
    /// The installed simulated-cycle budget ran out.
    BudgetExhausted,
}

/// Cycles of simulated progress between polls of the (cross-thread)
/// cancel token. The budget check is pure thread-local arithmetic and
/// runs on every tick; the atomic load is amortized.
const TOKEN_POLL_CYCLES: u64 = 4_096;

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static TOKEN: std::cell::RefCell<Option<Arc<AtomicBool>>> =
        const { std::cell::RefCell::new(None) };
    /// Remaining simulated-cycle budget; `u64::MAX` means unlimited.
    static REMAINING: Cell<u64> = const { Cell::new(u64::MAX) };
    /// Cycles accumulated since the cancel token was last polled.
    static SINCE_POLL: Cell<u64> = const { Cell::new(0) };
    static CAUSE: Cell<Option<Interrupt>> = const { Cell::new(None) };
}

/// RAII installation of a guard for the current thread. Run loops on
/// this thread honor the token/budget until the guard drops; dropping
/// restores the previous (usually inactive) state, so a cell can never
/// leak its guard into the next cell on the same worker.
#[derive(Debug)]
pub struct CellGuard {
    prev_active: bool,
    prev_token: Option<Arc<AtomicBool>>,
    prev_remaining: u64,
    prev_cause: Option<Interrupt>,
}

impl CellGuard {
    /// Installs a cancel token and/or a simulated-cycle budget for the
    /// current thread. With both `None` the guard is inert (loops stay
    /// on the one-flag fast path).
    pub fn install(token: Option<Arc<AtomicBool>>, cycle_budget: Option<u64>) -> CellGuard {
        let prev = CellGuard {
            prev_active: ACTIVE.get(),
            prev_token: TOKEN.with(|t| t.borrow().clone()),
            prev_remaining: REMAINING.get(),
            prev_cause: CAUSE.get(),
        };
        ACTIVE.set(token.is_some() || cycle_budget.is_some());
        REMAINING.set(cycle_budget.unwrap_or(u64::MAX));
        TOKEN.with(|t| *t.borrow_mut() = token);
        SINCE_POLL.set(0);
        CAUSE.set(None);
        prev
    }
}

impl Drop for CellGuard {
    fn drop(&mut self) {
        ACTIVE.set(self.prev_active);
        REMAINING.set(self.prev_remaining);
        TOKEN.with(|t| *t.borrow_mut() = self.prev_token.take());
        SINCE_POLL.set(0);
        CAUSE.set(self.prev_cause);
    }
}

/// Charges `cycles` of simulated progress against the installed guard
/// and reports whether the current cell should stop. Run loops call this
/// once per iteration with the cycles they just advanced; functional
/// fast-forward charges one cycle per emulated instruction. Without an
/// installed guard this is a single thread-local read.
#[inline]
pub fn tick(cycles: u64) -> bool {
    if !ACTIVE.get() {
        return false;
    }
    tick_slow(cycles)
}

#[cold]
fn tick_slow(cycles: u64) -> bool {
    if CAUSE.get().is_some() {
        return true;
    }
    let rem = REMAINING.get();
    if rem != u64::MAX {
        if cycles >= rem {
            REMAINING.set(0);
            CAUSE.set(Some(Interrupt::BudgetExhausted));
            return true;
        }
        REMAINING.set(rem - cycles);
    }
    let since = SINCE_POLL.get().saturating_add(cycles.max(1));
    if since < TOKEN_POLL_CYCLES {
        SINCE_POLL.set(since);
        return false;
    }
    SINCE_POLL.set(0);
    let tripped = TOKEN.with(|t| {
        t.borrow()
            .as_ref()
            .is_some_and(|tok| tok.load(Ordering::Relaxed))
    });
    if tripped {
        CAUSE.set(Some(Interrupt::Cancelled));
    }
    tripped
}

/// Convenience for loops that track an absolute clock: charges the delta
/// since `*last` and updates it. Equivalent to `tick(now - *last)`.
#[inline]
pub fn tick_since(now: u64, last: &mut u64) -> bool {
    let delta = now.saturating_sub(*last);
    *last = now;
    tick(delta)
}

/// Why the current guard fired, if it has. The supervisor reads this
/// (before dropping the [`CellGuard`]) to classify a cell that returned
/// early as timed out rather than short-but-successful.
pub fn interrupt_cause() -> Option<Interrupt> {
    CAUSE.get()
}

/// Whether the current guard has fired (loops that only need a yes/no).
#[inline]
pub fn interrupted() -> bool {
    ACTIVE.get() && CAUSE.get().is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_guard_never_fires() {
        assert!(!tick(u64::MAX));
        assert!(!interrupted());
        assert_eq!(interrupt_cause(), None);
    }

    #[test]
    fn budget_exhaustion_trips_and_latches() {
        let _g = CellGuard::install(None, Some(10_000));
        assert!(!tick(4_000));
        assert!(!tick(4_000));
        assert!(tick(4_000), "30k > 10k budget must trip");
        assert_eq!(interrupt_cause(), Some(Interrupt::BudgetExhausted));
        assert!(tick(0), "an interrupted guard stays interrupted");
        assert!(interrupted());
    }

    #[test]
    fn cancel_token_trips_within_poll_interval() {
        let token = Arc::new(AtomicBool::new(false));
        let _g = CellGuard::install(Some(Arc::clone(&token)), None);
        assert!(!tick(1));
        token.store(true, Ordering::Relaxed);
        // The token is polled every TOKEN_POLL_CYCLES of progress.
        let mut fired = false;
        for _ in 0..2 {
            fired |= tick(TOKEN_POLL_CYCLES);
        }
        assert!(fired);
        assert_eq!(interrupt_cause(), Some(Interrupt::Cancelled));
    }

    #[test]
    fn drop_restores_previous_state() {
        {
            let _outer = CellGuard::install(None, Some(5));
            {
                let _inner = CellGuard::install(None, None);
                assert!(!tick(u64::MAX), "inner guard is inert");
            }
            assert!(tick(100), "outer budget applies again after inner drop");
        }
        assert!(!tick(u64::MAX), "no guard after all drops");
        assert_eq!(interrupt_cause(), None);
    }

    #[test]
    fn tick_since_charges_deltas() {
        let _g = CellGuard::install(None, Some(1_000));
        let mut last = 500u64;
        assert!(!tick_since(900, &mut last));
        assert_eq!(last, 900);
        assert!(tick_since(5_000, &mut last), "4100 > remaining budget");
    }
}
