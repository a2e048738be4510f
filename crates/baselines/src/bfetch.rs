//! B-Fetch (Kadjo et al., MICRO 2014): branch-prediction-directed
//! prefetching. A front-end walker runs ahead of fetch along the
//! *predicted* control flow, speculatively computing load addresses from
//! a register-file snapshot and prefetching them.
//!
//! Our simplification: the walker restarts from the committed
//! architectural state whenever it drifts, walks up to a bounded number
//! of basic blocks ahead using its own bimodal predictor + the static
//! binary, evaluates simple address-generation instructions (moves, adds,
//! shifts with immediate/known operands), and prefetches loads whose
//! addresses become computable.

use std::rc::Rc;

use r3dla_bpred::{Bimodal, DirectionPredictor};
use r3dla_core::SingleCoreSim;
use r3dla_cpu::CoreConfig;
use r3dla_isa::{eval_alu, BranchKind, Program, Reg, INST_BYTES};
use r3dla_mem::MemConfig;
use r3dla_workloads::BuiltWorkload;

/// How many instructions the walker advances per core cycle.
const WALK_RATE: usize = 6;
/// Walk window: how far beyond the restart point the walker may roam.
const WALK_LIMIT: usize = 256;

struct Walker {
    program: Rc<Program>,
    predictor: Bimodal,
    pc: u64,
    regs: [u64; Reg::COUNT],
    known: [bool; Reg::COUNT],
    walked: usize,
}

impl Walker {
    fn restart(&mut self, pc: u64, regs: [u64; Reg::COUNT]) {
        self.pc = pc;
        self.regs = regs;
        self.known = [true; Reg::COUNT];
        self.walked = 0;
    }

    /// Advances one instruction; returns a prefetch address if a load
    /// with a computable address was found.
    fn step(&mut self) -> Option<u64> {
        if self.walked >= WALK_LIMIT {
            return None;
        }
        let inst = self.program.fetch(self.pc)?;
        self.walked += 1;
        let mut next = self.pc + INST_BYTES;
        let mut out = None;
        match inst.branch_kind() {
            Some(BranchKind::Cond) => {
                // Train-free speculative walk: use the small predictor.
                if self.predictor.predict(self.pc) {
                    next = inst.imm as u64;
                }
            }
            Some(BranchKind::Jump) | Some(BranchKind::Call) => {
                next = inst.imm as u64;
            }
            Some(_) => {
                // Indirect control flow ends the walk.
                self.walked = WALK_LIMIT;
                return None;
            }
            None => {
                if inst.is_mem() {
                    let base = inst.rs1;
                    if self.known[base.index()] {
                        out = Some(self.regs[base.index()].wrapping_add(inst.imm as u64) & !7);
                    }
                    if inst.is_load() {
                        // The loaded value is unknown to the walker.
                        if let Some(rd) = inst.def() {
                            self.known[rd.index()] = false;
                        }
                    }
                } else if let Some(rd) = inst.def() {
                    // Evaluate simple value-generating instructions when
                    // operands are known; otherwise poison the result.
                    let srcs_known = inst.uses().iter().flatten().all(|r| self.known[r.index()]);
                    if srcs_known && !inst.is_branch() {
                        let a = self.regs[inst.rs1.index()];
                        let b = self.regs[inst.rs2.index()];
                        self.regs[rd.index()] = eval_alu(inst.op, a, b, inst.imm);
                        self.known[rd.index()] = true;
                    } else {
                        self.known[rd.index()] = false;
                    }
                }
            }
        }
        self.pc = next;
        out
    }

    /// Trains the walker's predictor from committed outcomes.
    fn train(&mut self, pc: u64, taken: bool) {
        let pred = self.predictor.predict(pc);
        self.predictor.update(pc, taken, pred != taken);
    }
}

/// A single core with the B-Fetch walker attached.
pub struct BFetchSim {
    sim: SingleCoreSim,
    walker: Walker,
    resync_interval: u64,
    last_resync: u64,
    /// MT committed-instruction count at the last walker restart
    /// (`u64::MAX` before the first): a resync only fires after commit
    /// progress, so a stalled core leaves the walker exhausted and pure.
    last_restart_commits: u64,
    fast_forward: bool,
}

impl std::fmt::Debug for BFetchSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BFetchSim").finish_non_exhaustive()
    }
}

impl BFetchSim {
    /// Builds the system for a workload with the paper's baseline core
    /// (BOP at L2 stays, as in Fig 9-b's common baseline).
    pub fn build(built: &BuiltWorkload) -> Self {
        let program = Rc::new(built.program.clone());
        let sim = SingleCoreSim::build(
            built,
            CoreConfig::paper(),
            MemConfig::paper(),
            None,
            Some("bop"),
        );
        let walker = Walker {
            program,
            predictor: Bimodal::new(4096),
            pc: 0,
            regs: [0; Reg::COUNT],
            known: [false; Reg::COUNT],
            walked: WALK_LIMIT,
        };
        Self {
            sim,
            walker,
            resync_interval: 64,
            last_resync: 0,
            last_restart_commits: u64::MAX,
            fast_forward: true,
        }
    }

    /// Enables or disables the event-driven fast path in
    /// [`run_until`](Self::run_until) (on by default; behavior-preserving
    /// either way — the off position exists for equivalence tests).
    pub fn set_fast_forward(&mut self, on: bool) {
        self.fast_forward = on;
    }

    /// Steps core + walker one cycle.
    pub fn step(&mut self) {
        let cycle = self.sim.core().cycle();
        let commits = self.sim.core().committed(0);
        // Periodically re-sync the walker with committed state (the
        // register snapshot B-Fetch reads at branch dispatch) — but only
        // once the core has committed since the last restart: re-walking
        // the identical predicted path from the identical snapshot would
        // issue the identical prefetches, and gating on progress leaves
        // a stalled core with an exhausted, side-effect-free walker,
        // which is what makes stall stretches provably quiescent.
        let due =
            cycle - self.last_resync >= self.resync_interval || self.walker.walked >= WALK_LIMIT;
        if due && commits != self.last_restart_commits {
            let pc = self.sim.core().arch_pc(0);
            let regs = self.sim.core().arch_regs(0);
            self.walker.restart(pc, regs);
            self.last_resync = cycle;
            self.last_restart_commits = commits;
        }
        for _ in 0..WALK_RATE {
            if let Some(addr) = self.walker.step() {
                self.sim.core_mut().mem_mut().prefetch_into_l1(addr, cycle);
            }
        }
        self.sim.core_mut().step();
    }

    /// Event-source surface for the run loop: `None` when the next cycle
    /// may act (walker mid-walk, restart pending, or the core itself),
    /// else the earliest cycle anything can happen — a lower bound with
    /// the same contract as `Core::next_event_at`, so a kernel can host
    /// this baseline like any other actor.
    pub fn next_event_at(&self) -> Option<u64> {
        // Walker mid-walk: it mutates its own state (and may prefetch)
        // every cycle until the window exhausts.
        if self.walker.walked < WALK_LIMIT {
            return None;
        }
        // Commit progress since the last restart arms a resync.
        if self.sim.core().committed(0) != self.last_restart_commits {
            return None;
        }
        self.sim.core().next_event_at()
    }

    /// Runs until `target` instructions commit (bounded by `max_cycles`)
    /// through the shared [`r3dla_core::run_until`] driver. Stretches
    /// where the core is provably stalled and the walker is exhausted
    /// are skipped to the next wakeup, byte-identically.
    pub fn run_until(&mut self, target: u64, max_cycles: u64) -> u64 {
        r3dla_core::run_until(self, target, max_cycles)
    }

    /// Warm up, then measure a window; returns `(IPC, insts, cycles)`.
    pub fn measure(&mut self, warmup: u64, window: u64) -> (f64, u64, u64) {
        self.run_until(warmup, warmup * 60 + 500_000);
        let c0 = self.sim.core().committed(0);
        let y0 = self.sim.core().cycle();
        self.run_until(window, window * 60 + 500_000);
        let insts = self.sim.core().committed(0) - c0;
        let cycles = self.sim.core().cycle() - y0;
        (
            if cycles == 0 {
                0.0
            } else {
                insts as f64 / cycles as f64
            },
            insts,
            cycles,
        )
    }

    /// Trains the walker's direction predictor (driven by an external
    /// commit observer in tests; the periodic resync keeps it roughly
    /// aligned regardless).
    pub fn train_walker(&mut self, pc: u64, taken: bool) {
        self.walker.train(pc, taken);
    }

    /// The underlying single-core simulation.
    pub fn sim(&self) -> &SingleCoreSim {
        &self.sim
    }
}

side_engine_actor!(BFetchSim);

#[cfg(test)]
mod tests {
    use super::*;
    use r3dla_workloads::{by_name, Scale};

    #[test]
    fn walker_prefetches_streaming_loads() {
        // On a streaming workload the walker should find computable load
        // addresses and help (or at least not hurt).
        let wl = by_name("libq_like").unwrap().build(Scale::Tiny);
        let mut plain = SingleCoreSim::build(
            &wl,
            CoreConfig::paper(),
            MemConfig::paper(),
            None,
            Some("bop"),
        );
        let base_ipc = plain.measure(5_000, 20_000).mt_ipc;
        let mut bf = BFetchSim::build(&wl);
        let (bf_ipc, _, _) = bf.measure(5_000, 20_000);
        assert!(
            bf_ipc > base_ipc * 0.9,
            "B-Fetch should not cripple the core: {bf_ipc} vs {base_ipc}"
        );
    }

    #[test]
    fn fast_forward_is_equivalent() {
        // The event-driven fast path must be invisible in every
        // statistic: measure the same memory-bound workload with
        // skipping on and off and compare everything observable.
        let wl = by_name("libq_like").unwrap().build(Scale::Tiny);
        let mut fast = BFetchSim::build(&wl);
        let mut slow = BFetchSim::build(&wl);
        slow.set_fast_forward(false);
        assert_eq!(fast.measure(2_000, 8_000), slow.measure(2_000, 8_000));
        let fp = |bf: &BFetchSim| {
            let core = bf.sim().core();
            format!(
                "{} {} {} {} {}",
                core.cycle(),
                core.committed(0),
                core.mem().l1d_stats().accesses.get(),
                core.mem().l1d_stats().misses.get(),
                core.mem().shared().borrow().dram_stats().traffic_lines(),
            )
        };
        assert_eq!(fp(&fast), fp(&slow), "skipping changed simulated state");
    }

    #[test]
    fn walker_restart_reseeds_registers() {
        let wl = by_name("md5_like").unwrap().build(Scale::Tiny);
        let mut bf = BFetchSim::build(&wl);
        bf.run_until(2_000, 200_000);
        // After running, the walker must have resynced at least once and
        // be inside the binary.
        assert!(bf.walker.walked <= WALK_LIMIT);
    }
}
