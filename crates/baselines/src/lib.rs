//! Comparison systems for paper Fig 9-b: B-Fetch (branch-prediction-
//! directed prefetching), SlipStream (reduced A-stream + R-stream), and
//! the Continuous Runahead Engine (CRE).
//!
//! Each is a *behaviourally faithful simplification*: it exercises the
//! mechanism class that defines the original design on the same
//! substrate, so the Fig 9-b ordering (B-Fetch < SlipStream < CRE < DLA <
//! R3-DLA) is reproduced structurally rather than numerically.
//!
//! # Event-driven fast path
//!
//! [`slipstream_system`] returns a `DlaSystem` and the plain single-core
//! baselines run on `SingleCoreSim`, so both inherit event-driven cycle
//! skipping from `r3dla-core` automatically. [`BFetchSim`] and
//! [`CreSim`] attach a side engine (the B-Fetch walker, the runahead
//! engine) that works on most cycles; they skip only stretches where the
//! core is provably stalled *and* the engine is exhausted, and run
//! through the same `r3dla_core::run_until` driver as every other
//! single system.

/// `KernelActor` for a single core with a side engine: the core's
/// activity-probe gate, then the type's engine-aware `next_event_at`
/// bound and a skip, else one `step` of core + engine. With
/// `fast_forward` off it always steps. Expects the fields `sim`
/// (`SingleCoreSim`) and `fast_forward`, and the methods
/// `next_event_at` and `step`.
macro_rules! side_engine_actor {
    ($ty:ty) => {
        impl r3dla_core::KernelActor for $ty {
            fn local_cycle(&self) -> u64 {
                self.sim.core().cycle()
            }

            fn halted(&self) -> bool {
                self.sim.core().halted()
            }

            fn committed(&self) -> u64 {
                self.sim.core().committed(0)
            }

            fn advance_quantum(&mut self, cap: u64, last_probe: &mut u64) -> u64 {
                if self.fast_forward {
                    let probe = self.sim.core().activity_probe();
                    if probe == *last_probe {
                        if let Some(wake) = self.next_event_at() {
                            self.sim.core_mut().skip_to(wake.min(cap));
                            return self.sim.core().cycle();
                        }
                    }
                    *last_probe = probe;
                }
                self.step();
                self.sim.core().cycle()
            }
        }
    };
}

mod bfetch;
mod cre;
mod slipstream;

pub use bfetch::BFetchSim;
pub use cre::CreSim;
pub use slipstream::slipstream_system;

#[cfg(test)]
mod tests {
    use super::*;
    use r3dla_workloads::{by_name, Scale};

    #[test]
    fn all_baselines_run_a_workload() {
        let wl = by_name("libq_like").unwrap().build(Scale::Tiny);
        let mut bf = BFetchSim::build(&wl);
        let (ipc, _, _) = bf.measure(3_000, 10_000);
        assert!(ipc > 0.0);
        let mut cre = CreSim::build(&wl);
        let (ipc, _, _) = cre.measure(3_000, 10_000);
        assert!(ipc > 0.0);
        let mut ss = slipstream_system(&wl);
        let rep = ss.measure(3_000, 10_000);
        assert!(rep.mt_ipc > 0.0);
    }
}
