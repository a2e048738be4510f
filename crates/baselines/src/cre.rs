//! The Continuous Runahead Engine (Hashemi, Mutlu & Patt, MICRO 2016) —
//! the strongest related design in paper Fig 9-b.
//!
//! CRE extracts the backward dependence chains of delinquent loads at
//! runtime, then executes those chains *continuously* on a tiny engine at
//! the memory controller, prefetching for the core. Following the paper's
//! note, our CRE prefetches into L1.
//!
//! Simplifications: chains are limited to 32 µops (as in the original),
//! extracted with our dataflow substrate from the committed-miss stream,
//! and executed functionally against committed memory at a fixed engine
//! rate. The chain re-seeds its registers from architectural state every
//! re-dispatch, then free-runs — which reproduces CRE's defining
//! behaviour (autonomous loop-carried chain execution).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use r3dla_core::{Dataflow, SingleCoreSim};
use r3dla_cpu::{CommitRecord, CommitSink, CoreConfig};
use r3dla_isa::{eval_alu, mem_addr, DataMem, Inst, Program, Reg, VecMem};
use r3dla_mem::MemConfig;
use r3dla_workloads::BuiltWorkload;

/// Maximum chain length in instructions (CRE's 32-µop limit).
const CHAIN_LIMIT: usize = 32;
/// Engine execution rate: instructions per core cycle.
const ENGINE_RATE: usize = 2;
/// How many chain iterations the engine may run ahead per dispatch.
const MAX_ITERATIONS: u32 = 48;

#[derive(Debug, Default)]
struct MissTracker {
    misses: HashMap<u64, u64>, // load pc -> L1-miss count
}

struct TrackerSink {
    tracker: Rc<RefCell<MissTracker>>,
}

impl CommitSink for TrackerSink {
    fn on_commit(&mut self, rec: &CommitRecord) {
        if rec.inst.is_load() && rec.l2_miss {
            *self.tracker.borrow_mut().misses.entry(rec.pc).or_insert(0) += 1;
        }
    }
}

/// A runnable dependence chain: the instruction subsequence (program
/// order) that produces the delinquent load's address, including its
/// loop-carried updates.
#[derive(Debug, Clone)]
struct Chain {
    insts: Vec<Inst>,
    target_pos: usize, // position of the delinquent load within `insts`
}

fn extract_chain(prog: &Program, df: &Dataflow, load_idx: usize) -> Option<Chain> {
    // Closure over register producers, bounded to CHAIN_LIMIT.
    let mut included = vec![load_idx];
    let mut queue = vec![load_idx];
    while let Some(i) = queue.pop() {
        for &p in df.producers(i) {
            if !included.contains(&p) {
                included.push(p);
                if included.len() > CHAIN_LIMIT {
                    return None; // too complex for the engine
                }
                queue.push(p);
            }
        }
    }
    included.sort_unstable();
    let insts: Vec<Inst> = included.iter().map(|&i| prog.insts()[i]).collect();
    let target_pos = included.iter().position(|&i| i == load_idx)?;
    // Drop chains containing control flow or stores: the engine replays
    // pure address-generation dataflow.
    if insts
        .iter()
        .enumerate()
        .any(|(k, i)| (i.is_branch() || i.is_store()) && k != target_pos)
    {
        return None;
    }
    Some(Chain { insts, target_pos })
}

struct Engine {
    chain: Option<Chain>,
    regs: [u64; Reg::COUNT],
    pos: usize,
    iterations: u32,
    mem: Rc<RefCell<VecMem>>,
}

impl Engine {
    fn dispatch(&mut self, chain: Chain, regs: [u64; Reg::COUNT]) {
        self.chain = Some(chain);
        self.regs = regs;
        self.pos = 0;
        self.iterations = 0;
    }

    /// Executes up to `budget` chain instructions; pushes prefetch
    /// addresses into `out`.
    fn run(&mut self, budget: usize, out: &mut Vec<u64>) {
        let Some(chain) = &self.chain else { return };
        for _ in 0..budget {
            if self.iterations >= MAX_ITERATIONS {
                return;
            }
            let inst = &chain.insts[self.pos];
            if self.pos == chain.target_pos {
                // The delinquent load: emit the prefetch; feed the engine
                // the (committed) value so dependent iterations advance.
                let addr = mem_addr(inst, self.regs[inst.rs1.index()]);
                out.push(addr);
                if let Some(rd) = inst.def() {
                    self.regs[rd.index()] = self.mem.borrow_mut().load(addr);
                }
            } else if inst.is_load() {
                let addr = mem_addr(inst, self.regs[inst.rs1.index()]);
                if let Some(rd) = inst.def() {
                    self.regs[rd.index()] = self.mem.borrow_mut().load(addr);
                }
            } else if let Some(rd) = inst.def() {
                let a = self.regs[inst.rs1.index()];
                let b = self.regs[inst.rs2.index()];
                self.regs[rd.index()] = eval_alu(inst.op, a, b, inst.imm);
            }
            self.pos += 1;
            if self.pos == chain.insts.len() {
                self.pos = 0;
                self.iterations += 1;
            }
        }
    }
}

/// A single core with the CRE attached at the memory side.
pub struct CreSim {
    sim: SingleCoreSim,
    program: Rc<Program>,
    dataflow: Dataflow,
    tracker: Rc<RefCell<MissTracker>>,
    engine: Engine,
    arch_mem: Rc<RefCell<VecMem>>,
    redispatch_interval: u64,
    last_dispatch: u64,
    prefetch_buf: Vec<u64>,
    fast_forward: bool,
    /// Prefetches the engine has issued.
    pub prefetches: u64,
}

impl std::fmt::Debug for CreSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CreSim")
            .field("prefetches", &self.prefetches)
            .finish_non_exhaustive()
    }
}

impl CreSim {
    /// Builds the system for a workload.
    pub fn build(built: &BuiltWorkload) -> Self {
        let program = Rc::new(built.program.clone());
        let dataflow = Dataflow::analyze(&program);
        let mut sim = SingleCoreSim::build(
            built,
            CoreConfig::paper(),
            MemConfig::paper(),
            None,
            Some("bop"),
        );
        let tracker = Rc::new(RefCell::new(MissTracker::default()));
        sim.core_mut().set_commit_sink(
            0,
            Rc::new(RefCell::new(TrackerSink {
                tracker: tracker.clone(),
            })),
        );
        // The engine reads committed memory: mirror the image.
        let arch_mem = Rc::new(RefCell::new(VecMem::new()));
        arch_mem.borrow_mut().load_image(program.image());
        let engine = Engine {
            chain: None,
            regs: [0; Reg::COUNT],
            pos: 0,
            iterations: 0,
            mem: Rc::clone(&arch_mem),
        };
        Self {
            sim,
            program,
            dataflow,
            tracker,
            engine,
            arch_mem,
            redispatch_interval: 512,
            last_dispatch: 0,
            prefetch_buf: Vec::new(),
            fast_forward: true,
            prefetches: 0,
        }
    }

    /// Enables or disables the event-driven fast path in
    /// [`run_until`](Self::run_until) (on by default; behavior-preserving
    /// either way — the off position exists for equivalence tests).
    pub fn set_fast_forward(&mut self, on: bool) {
        self.fast_forward = on;
    }

    fn redispatch(&mut self) {
        // Pick the hottest delinquent load and extract its chain.
        let tracker = self.tracker.borrow();
        let Some((&pc, _)) = tracker.misses.iter().max_by_key(|(_, &c)| c) else {
            return;
        };
        drop(tracker);
        let Some(idx) = self.program.pc_to_index(pc) else {
            return;
        };
        if let Some(chain) = extract_chain(&self.program, &self.dataflow, idx) {
            let regs = self.sim.core().arch_regs(0);
            self.engine.dispatch(chain, regs);
        }
    }

    /// Steps core + engine one cycle.
    pub fn step(&mut self) {
        let cycle = self.sim.core().cycle();
        if cycle - self.last_dispatch >= self.redispatch_interval {
            self.redispatch();
            self.last_dispatch = cycle;
            // Keep the engine's memory view loosely synchronized: committed
            // stores are not mirrored (the engine tolerates stale data,
            // like real CRE running from stale physical registers).
        }
        self.prefetch_buf.clear();
        self.engine.run(ENGINE_RATE, &mut self.prefetch_buf);
        for i in 0..self.prefetch_buf.len() {
            let addr = self.prefetch_buf[i];
            self.sim.core_mut().mem_mut().prefetch_into_l1(addr, cycle);
            self.prefetches += 1;
        }
        self.sim.core_mut().step();
    }

    /// Event-source surface for the run loop: `None` when the next cycle
    /// may act (a redispatch is due, the engine still runs its chain, or
    /// the core itself), else the earliest cycle anything can happen.
    /// The redispatch boundary is a known future event even while the
    /// core sleeps, so the bound includes it — the same lower-bound
    /// contract as `Core::next_event_at`.
    pub fn next_event_at(&self) -> Option<u64> {
        let cycle = self.sim.core().cycle();
        // A redispatch fires on the very next step (it mutates
        // `last_dispatch` even when no chain qualifies).
        if cycle - self.last_dispatch >= self.redispatch_interval {
            return None;
        }
        // The engine executes chain instructions every cycle until it
        // exhausts its iteration budget.
        let exhausted = match &self.engine.chain {
            None => true,
            Some(_) => self.engine.iterations >= MAX_ITERATIONS,
        };
        if !exhausted {
            return None;
        }
        let wake = self.sim.core().next_event_at()?;
        Some(wake.min(self.last_dispatch + self.redispatch_interval))
    }

    /// Runs until `target` instructions commit (bounded by `max_cycles`)
    /// through the shared [`r3dla_core::run_until`] driver. Stretches
    /// where the core is provably stalled and the engine is exhausted
    /// are skipped to the next wakeup (or the next redispatch boundary,
    /// whichever is earlier), byte-identically.
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

    /// The underlying single-core simulation.
    pub fn sim(&self) -> &SingleCoreSim {
        &self.sim
    }

    /// Mirrors the architectural memory (tests).
    pub fn arch_mem(&self) -> Rc<RefCell<VecMem>> {
        Rc::clone(&self.arch_mem)
    }
}

side_engine_actor!(CreSim);

#[cfg(test)]
mod tests {
    use super::*;
    use r3dla_workloads::{by_name, Scale};

    #[test]
    fn chains_extracted_for_pointer_chase() {
        let wl = by_name("mcf_like").unwrap().build(Scale::Tiny);
        let mut cre = CreSim::build(&wl);
        cre.run_until(30_000, 3_000_000);
        assert!(
            cre.engine.chain.is_some(),
            "a delinquent chain should have been dispatched"
        );
        assert!(cre.prefetches > 0, "the engine should issue prefetches");
    }

    #[test]
    fn fast_forward_is_equivalent() {
        // Skipping must be invisible: same workload, fast path on and
        // off, every observable statistic identical.
        let wl = by_name("mcf_like").unwrap().build(Scale::Tiny);
        let mut fast = CreSim::build(&wl);
        let mut slow = CreSim::build(&wl);
        slow.set_fast_forward(false);
        assert_eq!(fast.measure(2_000, 8_000), slow.measure(2_000, 8_000));
        let fp = |cre: &CreSim| {
            let core = cre.sim().core();
            format!(
                "{} {} {} {} {} {}",
                core.cycle(),
                core.committed(0),
                cre.prefetches,
                core.mem().l1d_stats().accesses.get(),
                core.mem().l1d_stats().misses.get(),
                core.mem().shared().borrow().dram_stats().traffic_lines(),
            )
        };
        assert_eq!(fp(&fast), fp(&slow), "skipping changed simulated state");
    }

    #[test]
    fn chain_limit_respected() {
        let wl = by_name("mcf_like").unwrap().build(Scale::Tiny);
        let cre = CreSim::build(&wl);
        for idx in 0..cre.program.len() {
            if let Some(c) = extract_chain(&cre.program, &cre.dataflow, idx) {
                assert!(c.insts.len() <= CHAIN_LIMIT);
            }
        }
    }
}
