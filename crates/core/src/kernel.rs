//! Run loops: the one driver every single-system simulator runs
//! through ([`run_until`]), and the multi-tenant [`Cluster`] that
//! interleaves several simulated systems — e.g. two
//! [`DlaSystem`](crate::DlaSystem)s sharing an LLC/DRAM model — under
//! one global clock with a deterministic event queue ([`Kernel`]).
//!
//! # The wakeup contract
//!
//! An actor ([`KernelActor`]) is anything that can answer "when must I
//! next be dispatched?" after every advance. The cores'
//! `next_event_at()` gives a *lower bound* on the next architecturally
//! visible action: waking an actor early is always safe (it proves
//! quiescence again and goes back to sleep), waking it late never
//! happens. Because a provably quiescent stretch replayed by `skip_to`
//! is byte-identical to stepping it, *any* dispatch schedule that
//! respects the bound produces the same simulated state — which is why
//! the driver with skipping on, the driver stepping every cycle
//! (`set_fast_forward(false)`, the runner's `--no-skip`) and any
//! interleaving of cluster tenants all agree to the bit.
//!
//! # Determinism rules
//!
//! * [`Kernel`] events are totally ordered by `(time, seq)`; `seq` is a
//!   monotone insertion counter, so same-cycle events dispatch in the
//!   order they were scheduled (FIFO) — never by actor id or hash order.
//! * [`Cluster`] dispatches whichever tenant's local clock is earliest
//!   (ties by schedule order), so shared-LLC/DRAM state mutations occur
//!   in nondecreasing global-time order regardless of tenant count.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use r3dla_cpu::Core;
use r3dla_mem::SharedLlc;

use crate::system::{MeasureTarget, SysSnapshot, WindowReport};

/// Identifies an actor scheduled on a [`Kernel`] (a [`Cluster`] uses
/// the tenant's index).
pub type ActorId = usize;

/// Always `true`; reads no environment. The run-loop switch it used to
/// report is gone (every single system runs through [`run_until`]).
/// It survives only because the frozen `perfbench` campaign still calls
/// it, and goes with those call sites in the next benchmark change.
#[doc(hidden)]
pub fn event_kernel_default() -> bool {
    true
}

/// The deterministic event queue under [`Cluster`]: a min-heap of
/// wakeups keyed by `(time, seq)`, where `seq` is a monotone insertion
/// counter, so same-cycle wakeups dispatch FIFO.
///
/// # Examples
///
/// ```
/// use r3dla_core::Kernel;
///
/// let mut k = Kernel::new();
/// k.schedule(1, 10);
/// k.schedule(0, 10); // same cycle: dispatches after actor 1 (FIFO)
/// k.schedule(2, 5);
/// assert_eq!(k.pop(), Some((5, 2)));
/// assert_eq!(k.pop(), Some((10, 1)));
/// assert_eq!(k.pop(), Some((10, 0)));
/// assert_eq!(k.pop(), None);
/// assert_eq!(k.now(), 10);
/// ```
#[derive(Default)]
pub struct Kernel {
    heap: BinaryHeap<Reverse<(u64, u64, ActorId)>>,
    seq: u64,
    now: u64,
    // Dispatch accounting (a plain field: the kernel is single-threaded
    // and this must cost nothing). Surfaced through
    // [`stats`](Self::stats) for the telemetry sidecar.
    dispatched: u64,
}

/// Dispatch counters for one [`Kernel`], or accumulated across a
/// [`Cluster`]'s run phases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Wakeups returned by [`Kernel::pop`].
    pub dispatched: u64,
    /// Always 0: every scheduled wakeup is dispatched (a [`Cluster`]
    /// schedules each tenant once per dispatch and never re-arms or
    /// cancels). Kept because the `mix` telemetry sidecar reports it.
    pub stale_dropped: u64,
}

impl Kernel {
    /// An empty kernel at time 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Dispatch accounting since construction.
    pub fn stats(&self) -> KernelStats {
        KernelStats {
            dispatched: self.dispatched,
            stale_dropped: 0,
        }
    }

    /// Current kernel time: the timestamp of the last dispatched wakeup.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Queues a wakeup for `actor` at `at`, clamped to
    /// [`now`](Self::now): "schedule in the past" means "fire as soon as
    /// possible", after anything already queued for that cycle.
    pub fn schedule(&mut self, actor: ActorId, at: u64) {
        self.heap.push(Reverse((at.max(self.now), self.seq, actor)));
        self.seq += 1;
    }

    /// Dispatches the earliest wakeup: advances [`now`](Self::now) to
    /// its time and returns `(time, actor)`; `None` when the queue is
    /// empty.
    pub fn pop(&mut self) -> Option<(u64, ActorId)> {
        let Reverse((time, _, actor)) = self.heap.pop()?;
        self.now = time;
        self.dispatched += 1;
        Some((time, actor))
    }
}

/// The event-source surface a simulated system exposes to
/// [`run_until`] and [`Cluster`]: a local clock, halt/commit
/// observation, and a single-quantum advance that reports when the
/// system must next be dispatched.
///
/// Implementations must guarantee **progress** (`advance_quantum`
/// strictly increases `local_cycle`) and the **wakeup contract** (the
/// returned dispatch time is the local clock after the advance: either
/// the next cycle, or the end of a proven-quiescent skip — never beyond
/// the first possible architectural action).
pub trait KernelActor {
    /// The actor's local clock, in the shared global time base (all
    /// cluster tenants start at cycle 0).
    fn local_cycle(&self) -> u64;
    /// Whether the measured program has halted — the actor will never
    /// make progress again.
    fn halted(&self) -> bool;
    /// Committed instructions on the measured (main) thread.
    fn committed(&self) -> u64;
    /// Advances one scheduler quantum: a single cycle step, or a
    /// proven-quiescent skip never reaching past `cap`. Returns the cycle
    /// at which the actor must next be dispatched (the new local clock).
    /// `last_probe` is the actor's activity-probe memo — the cheap "did
    /// anything happen since last time?" gate in front of the quiescence
    /// proof — owned by the caller so the actor stays borrowable between
    /// dispatches.
    fn advance_quantum(&mut self, cap: u64, last_probe: &mut u64) -> u64;
}

/// Drives one actor until it commits `target` more instructions, halts,
/// or `max_cycles` pass on its local clock; returns the elapsed cycles.
///
/// Every iteration first charges the cycles advanced since the last one
/// to the thread's [`CellGuard`](crate::CellGuard) and stops if it
/// fires, then tests for termination, then advances one quantum capped
/// at `start + max_cycles`. Charging before the termination test means
/// the final quantum is always charged, so a cell whose cycle budget
/// equals its run length reports interrupted.
pub fn run_until<A: KernelActor + ?Sized>(a: &mut A, target: u64, max_cycles: u64) -> u64 {
    let start = a.local_cycle();
    let start_committed = a.committed();
    let cap = start.saturating_add(max_cycles);
    let mut last_probe = u64::MAX;
    let mut guard_last = start;
    while !crate::guard::tick_since(a.local_cycle(), &mut guard_last)
        && a.committed() - start_committed < target
        && !a.halted()
        && a.local_cycle() - start < max_cycles
    {
        a.advance_quantum(cap, &mut last_probe);
    }
    a.local_cycle() - start
}

/// A bare core (thread 0 measured), as the timing profile drives it.
impl KernelActor for Core {
    fn local_cycle(&self) -> u64 {
        self.cycle()
    }

    fn halted(&self) -> bool {
        Core::halted(self)
    }

    fn committed(&self) -> u64 {
        Core::committed(self, 0)
    }

    fn advance_quantum(&mut self, cap: u64, last_probe: &mut u64) -> u64 {
        Core::advance_quantum(self, cap, last_probe)
    }
}

/// Per-tenant dispatch bookkeeping inside [`Cluster`].
struct TenantState {
    start_cycle: u64,
    start_committed: u64,
    last_probe: u64,
    done: bool,
}

/// N simulated systems under one [`Kernel`] and one global clock — the
/// multi-tenant scenario (several systems contending for one shared
/// LLC/DRAM, built via
/// [`DlaSystem::assemble_shared`](crate::DlaSystem::assemble_shared)).
///
/// # Lifecycle
///
/// 1. Create the shared memory side and a cluster around it
///    ([`Cluster::with_shared`]), or a plain [`Cluster::new`] for
///    independent tenants.
/// 2. [`push`](Self::push) each tenant (any [`KernelActor`]; every
///    tenant of a shared cluster must have been assembled over the same
///    `SharedLlc` handle).
/// 3. [`run_until_each`](Self::run_until_each) /
///    [`measure_each`](Self::measure_each): one kernel interleaves all
///    tenants by earliest local clock; a tenant that reaches its target
///    (or halts, or exhausts its cycle budget) parks and stops
///    contending, and under `measure_each` its window report is captured
///    at that moment.
///
/// # Determinism
///
/// Dispatch order is a pure function of the tenants' initial state:
/// earliest local clock first, FIFO on ties. Tenants only touch the
/// shared LLC/DRAM while *stepping* (a skipped window is proven free of
/// memory-system activity), so shared-state mutations occur in
/// nondecreasing global-time order and two runs of the same cluster are
/// byte-identical. When a shared LLC is attached, each quantum is
/// additionally capped at [`SharedLlc::next_event_at`] — a pending fill
/// (possibly another tenant's) re-dispatches every tenant at its
/// completion rather than letting them sleep through it. The cap only
/// ever shortens skips, which the wakeup contract makes behavior-free.
pub struct Cluster<T> {
    tenants: Vec<T>,
    shared: Option<Rc<RefCell<SharedLlc>>>,
    kstats: KernelStats,
}

impl<T> Default for Cluster<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Cluster<T> {
    /// An empty cluster of independent tenants (no shared wake coupling).
    pub fn new() -> Self {
        Self {
            tenants: Vec::new(),
            shared: None,
            kstats: KernelStats::default(),
        }
    }

    /// An empty cluster whose tenants share `shared`; their skip windows
    /// are bounded by its next MSHR/DRAM completion so one tenant's fill
    /// wakes the others.
    pub fn with_shared(shared: Rc<RefCell<SharedLlc>>) -> Self {
        Self {
            tenants: Vec::new(),
            shared: Some(shared),
            kstats: KernelStats::default(),
        }
    }

    /// Dispatch accounting accumulated over every run/measure phase of
    /// this cluster (each phase pumps a fresh [`Kernel`]; totals add
    /// up here). Telemetry-only — never feeds report bytes.
    pub fn kernel_stats(&self) -> KernelStats {
        self.kstats
    }

    /// Adds a tenant; returns its index (dispatch id and report order).
    pub fn push(&mut self, tenant: T) -> usize {
        self.tenants.push(tenant);
        self.tenants.len() - 1
    }

    /// Number of tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether the cluster has no tenants.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// The tenants, in push order.
    pub fn tenants(&self) -> &[T] {
        &self.tenants
    }

    /// Mutable tenant access (attaching observers, toggling knobs).
    pub fn tenants_mut(&mut self) -> &mut [T] {
        &mut self.tenants
    }
}

impl<T: KernelActor> Cluster<T> {
    /// Pumps one kernel until every tenant is done (committed `target`
    /// more instructions, halted, or `max_cycles` elapsed on its local
    /// clock); `on_park` fires exactly once per tenant at the moment it
    /// finishes, while every still-running tenant is frozen at a local
    /// clock ≥ the parking tenant's.
    fn pump(&mut self, target: u64, max_cycles: u64, mut on_park: impl FnMut(usize, &T)) {
        let mut kernel = Kernel::new();
        let mut states: Vec<TenantState> = Vec::with_capacity(self.tenants.len());
        for (i, t) in self.tenants.iter().enumerate() {
            kernel.schedule(i, t.local_cycle());
            states.push(TenantState {
                start_cycle: t.local_cycle(),
                start_committed: t.committed(),
                last_probe: u64::MAX,
                done: false,
            });
        }
        let shared = self.shared.clone();
        while let Some((_, i)) = kernel.pop() {
            let tenant = &mut self.tenants[i];
            let st = &mut states[i];
            if tenant.committed() - st.start_committed >= target
                || tenant.halted()
                || tenant.local_cycle() - st.start_cycle >= max_cycles
            {
                st.done = true;
                on_park(i, tenant);
                continue;
            }
            let mut cap = st.start_cycle.saturating_add(max_cycles);
            if let Some(shared) = &shared {
                if let Some(wake) = shared.borrow().next_event_at(tenant.local_cycle()) {
                    cap = cap.min(wake);
                }
            }
            // Progress even when the shared cap is already behind us: a
            // zero-width skip window degenerates to a plain step.
            let before = tenant.local_cycle();
            let next = tenant.advance_quantum(cap.max(tenant.local_cycle()), &mut st.last_probe);
            if crate::guard::tick(tenant.local_cycle() - before) {
                break;
            }
            kernel.schedule(i, next);
        }
        let s = kernel.stats();
        self.kstats.dispatched += s.dispatched;
        self.kstats.stale_dropped += s.stale_dropped;
        debug_assert!(crate::guard::interrupted() || states.iter().all(|s| s.done));
    }

    /// Runs every tenant until each has committed `target` more
    /// instructions, halted, or spent `max_cycles`; tenants interleave
    /// through one kernel in global-time order. Returns the largest
    /// per-tenant elapsed cycle count.
    pub fn run_until_each(&mut self, target: u64, max_cycles: u64) -> u64 {
        let starts: Vec<u64> = self.tenants.iter().map(|t| t.local_cycle()).collect();
        self.pump(target, max_cycles, |_, _| {});
        self.tenants
            .iter()
            .zip(&starts)
            .map(|(t, s)| t.local_cycle() - s)
            .max()
            .unwrap_or(0)
    }
}

impl<T: MeasureTarget> Cluster<T> {
    /// Warms every tenant up over `warm` committed instructions (still
    /// contending), then measures a window of `win` per tenant. Each
    /// report is captured the moment its tenant crosses the target, so a
    /// tenant that finishes early does not accumulate the others'
    /// residual shared-channel traffic. Cycle budgets match
    /// [`measure_window`](crate::measure_window). Note `dram_traffic`
    /// counts the *shared* channel: in a shared-LLC cluster it includes
    /// lines moved for co-running tenants.
    pub fn measure_each(&mut self, warm: u64, win: u64) -> Vec<WindowReport> {
        self.run_until_each(warm, warm * 60 + 500_000);
        let snaps: Vec<SysSnapshot> = self.tenants.iter().map(|t| t.counters_snapshot()).collect();
        let mut reports: Vec<Option<WindowReport>> = self.tenants.iter().map(|_| None).collect();
        self.pump(win, win * 60 + 500_000, |i, t| {
            reports[i] = Some(t.window_report(&snaps[i]));
        });
        reports
            .into_iter()
            .enumerate()
            // A missing report means pump was interrupted by the cell
            // guard before this tenant parked; hand back the partial
            // window — the supervisor discards the cell as timed out.
            .map(|(i, r)| r.unwrap_or_else(|| self.tenants[i].window_report(&snaps[i])))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::{interrupt_cause, CellGuard, Interrupt};

    /// Same-cycle wakeups dispatch in schedule order, not actor-id order,
    /// and a wakeup scheduled in the past fires at `now`, after anything
    /// already queued for that cycle.
    #[test]
    fn fifo_tie_break_is_schedule_order() {
        let mut k = Kernel::new();
        k.schedule(1, 42);
        k.schedule(0, 42);
        k.schedule(2, 42);
        k.schedule(3, u64::MAX); // a "never" park stays queued
        assert_eq!(k.pop(), Some((42, 1)));
        k.schedule(1, 7); // clamped to now = 42
        assert_eq!(k.pop(), Some((42, 0)));
        assert_eq!(k.pop(), Some((42, 2)));
        assert_eq!(k.pop(), Some((42, 1)));
        assert_eq!(k.pop(), Some((u64::MAX, 3)));
        assert_eq!(k.pop(), None);
        assert_eq!(k.stats().dispatched, 5);
        assert_eq!(k.stats().stale_dropped, 0);
    }

    /// A scripted actor: commits one instruction per cycle, skips `skip`
    /// cycles per quantum (capped), halts at `halt_at`, and records
    /// every cap it was handed.
    struct Fake {
        cycle: u64,
        committed: u64,
        skip: u64,
        halt_at: u64,
        caps: Vec<u64>,
    }

    impl Fake {
        fn new(cycle: u64, skip: u64, halt_at: u64) -> Self {
            Self {
                cycle,
                committed: 0,
                skip,
                halt_at,
                caps: Vec::new(),
            }
        }
    }

    impl KernelActor for Fake {
        fn local_cycle(&self) -> u64 {
            self.cycle
        }
        fn halted(&self) -> bool {
            self.committed >= self.halt_at
        }
        fn committed(&self) -> u64 {
            self.committed
        }
        fn advance_quantum(&mut self, cap: u64, _last_probe: &mut u64) -> u64 {
            self.caps.push(cap);
            self.cycle = (self.cycle + self.skip).min(cap).max(self.cycle + 1);
            self.committed += 1;
            self.cycle
        }
    }

    #[test]
    fn driver_stops_at_target_halt_and_max_cycles() {
        // Target: 10 commits at one cycle per quantum.
        let mut a = Fake::new(100, 1, u64::MAX);
        assert_eq!(run_until(&mut a, 10, 1_000), 10);
        assert_eq!(a.committed, 10);
        // Halt before the target.
        let mut a = Fake::new(0, 1, 4);
        assert_eq!(run_until(&mut a, 10, 1_000), 4);
        assert_eq!(
            run_until(&mut a, 10, 1_000),
            0,
            "a halted actor never advances"
        );
        // Cycle limit: skipping 7 per quantum, the last skip is clipped
        // to exactly `start + max_cycles`.
        let mut a = Fake::new(50, 7, u64::MAX);
        assert_eq!(run_until(&mut a, 1_000, 30), 30);
        assert!(a.caps.iter().all(|&c| c == 80), "caps: {:?}", a.caps);
        assert_eq!(a.cycle, 80);
        // A cap near the top of the clock saturates instead of wrapping.
        let mut a = Fake::new(u64::MAX - 5, 1, u64::MAX);
        run_until(&mut a, 2, u64::MAX);
        assert_eq!(a.caps, vec![u64::MAX; 2]);
    }

    #[test]
    fn driver_charges_the_final_quantum_to_the_cell_guard() {
        // Budget equal to the run's length: the guard is charged before
        // the termination test, so the last quantum exhausts it.
        let _g = CellGuard::install(None, Some(10));
        let mut a = Fake::new(0, 1, u64::MAX);
        assert_eq!(run_until(&mut a, 10, 1_000), 10);
        assert_eq!(interrupt_cause(), Some(Interrupt::BudgetExhausted));
    }
}
