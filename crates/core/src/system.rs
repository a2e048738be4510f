//! The complete two-core decoupled look-ahead system (paper Fig 2 / Fig 8):
//! a look-ahead core running the skeleton, a main core fed from the BOQ,
//! the footnote queue, and the R3 optimizations wired in.

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

use r3dla_bpred::Tage;
use r3dla_cpu::{
    ActivityCounters, BaseMem, CommitRecord, CommitSink, Core, CoreConfig, PredictorDirection,
};
use r3dla_isa::{ArchCheckpoint, ArchState, FxHashMap, Program, VecMem};
use r3dla_mem::{CacheStats, CoreMem, DramStats, MemConfig, SharedLlc};
use r3dla_workloads::BuiltWorkload;

use crate::dataflow::Dataflow;
use crate::kernel::{run_until, KernelActor};
use crate::overlay::OverlayMem;
use crate::profile::{profile, ProfileData};
use crate::queues::{Boq, BoqDirection, Footnote, FootnoteQueue};
use crate::recycle::{ActiveSkeleton, RecycleController, RecycleMode};
use crate::skeleton::{generate_skeletons, SkeletonOptions, SkeletonSet};
use crate::t1::T1;
use crate::value_reuse::{Sif, VrSource};

/// Configuration of a DLA/R3-DLA system.
#[derive(Debug, Clone)]
pub struct DlaConfig {
    /// Main-thread core.
    pub mt_core: CoreConfig,
    /// Look-ahead core.
    pub lt_core: CoreConfig,
    /// Memory configuration (the LT variant derives discard-dirty
    /// private caches from it automatically).
    pub mem: MemConfig,
    /// BOQ capacity (paper: 512) — bounds look-ahead depth.
    pub boq_capacity: usize,
    /// FQ capacity (paper: 128).
    pub fq_capacity: usize,
    /// Reboot register-copy cost in cycles (paper: 64).
    pub reboot_cost: u64,
    /// Enable the T1 strided-prefetch offload FSM (*reduce*).
    pub t1: bool,
    /// T1 table entries (paper: 16).
    pub t1_entries: usize,
    /// Enable value reuse (*reuse*, §III-D1).
    pub value_reuse: bool,
    /// Pending value-reuse entries retained on the MT side (paper VPT: 32).
    pub vr_capacity: usize,
    /// Recycle mode (*recycle*, §III-E).
    pub recycle: RecycleMode,
    /// L2 prefetcher attached to the MT core (`None` disables).
    pub mt_l2_prefetcher: Option<&'static str>,
    /// L2 prefetcher attached to the LT core.
    pub lt_l2_prefetcher: Option<&'static str>,
    /// L1 prefetcher attached to the MT core (used for the Table III
    /// "BL + stride" comparison).
    pub mt_l1_prefetcher: Option<&'static str>,
    /// Instructions of the training run used for profiling.
    pub profile_insts: u64,
    /// Whether LT sends footnote-queue hints (L1 prefetch, TLB, indirect
    /// targets). SlipStream-style systems pass only branch outcomes and
    /// warm the shared cache, so they disable this.
    pub fq_hints: bool,
}

impl DlaConfig {
    /// The baseline DLA configuration (paper §III-A): no T1, no value
    /// reuse, no recycling, 8-entry fetch buffer.
    pub fn dla() -> Self {
        Self {
            mt_core: CoreConfig::paper(),
            lt_core: {
                let mut c = CoreConfig::paper();
                c.fetch_masks = true;
                c
            },
            mem: MemConfig::paper(),
            boq_capacity: 512,
            fq_capacity: 128,
            reboot_cost: 64,
            t1: false,
            t1_entries: 16,
            value_reuse: false,
            vr_capacity: 32,
            recycle: RecycleMode::Off,
            mt_l2_prefetcher: Some("bop"),
            lt_l2_prefetcher: Some("bop"),
            mt_l1_prefetcher: None,
            profile_insts: 2_000_000,
            fq_hints: true,
        }
    }

    /// The full R3-DLA configuration: T1 + value reuse + 32-entry fetch
    /// buffer + dynamic recycling (paper §III-F).
    pub fn r3() -> Self {
        let mut cfg = Self::dla();
        cfg.t1 = true;
        cfg.value_reuse = true;
        cfg.recycle = RecycleMode::Dynamic;
        cfg.mt_core.fetch_buffer = 32;
        cfg
    }

    /// Removes the standalone hardware prefetchers (the paper's "noPF"
    /// variants).
    pub fn without_prefetcher(mut self) -> Self {
        self.mt_l2_prefetcher = None;
        self.lt_l2_prefetcher = None;
        self.mt_l1_prefetcher = None;
        self
    }
}

/// Errors from system construction.
#[derive(Debug)]
pub enum BuildError {
    /// The program was empty.
    EmptyProgram,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::EmptyProgram => write!(f, "program has no instructions"),
        }
    }
}

impl std::error::Error for BuildError {}

struct LtSink {
    boq: Rc<RefCell<Boq>>,
    fq: Rc<RefCell<FootnoteQueue>>,
    sif: Rc<RefCell<Sif>>,
    value_reuse: bool,
    fq_hints: bool,
    /// Tag of the last BOQ entry pushed, or `None` before the first
    /// conditional branch commits (and again right after a reboot).
    last_tag: Option<u64>,
    /// Hints committed before the first branch: held here and re-tagged
    /// with that branch's tag so `release_up_to` delivers them
    /// just-in-time instead of immediately.
    pending: Vec<Footnote>,
    pending_cap: usize,
}

impl LtSink {
    fn push_note(&mut self, note: Footnote) {
        match self.last_tag {
            Some(tag) => self.fq.borrow_mut().push(tag, note),
            None => {
                if self.pending.len() < self.pending_cap {
                    self.pending.push(note);
                }
            }
        }
    }

    /// Forgets the aligning-branch state after a reboot: the next hints
    /// must wait for the first post-reboot branch again.
    fn reset(&mut self) {
        self.last_tag = None;
        self.pending.clear();
    }
}

impl CommitSink for LtSink {
    fn on_commit(&mut self, rec: &CommitRecord) {
        if rec.inst.is_cond_branch() {
            let tag = self.boq.borrow_mut().push(rec.taken.unwrap_or(false));
            // Flush hints that preceded any branch: this branch is their
            // aligning BOQ entry.
            if !self.pending.is_empty() {
                let mut fq = self.fq.borrow_mut();
                for note in self.pending.drain(..) {
                    let note = match note {
                        Footnote::Value {
                            offset, pc, value, ..
                        } => Footnote::Value {
                            tag,
                            offset,
                            pc,
                            value,
                        },
                        other => other,
                    };
                    fq.push(tag, note);
                }
            }
            self.last_tag = Some(tag);
            return;
        }
        if !self.fq_hints {
            return;
        }
        if rec.inst.is_branch() && !rec.inst.has_static_target() {
            // Indirect branch: send the target hint.
            self.push_note(Footnote::BranchTarget {
                pc: rec.pc,
                target: rec.next_pc,
            });
        }
        if rec.inst.is_load() {
            if let Some(addr) = rec.mem_addr {
                if rec.l1_miss {
                    self.push_note(Footnote::L1Prefetch(addr));
                }
                if rec.tlb_miss {
                    self.push_note(Footnote::TlbHint(addr));
                }
            }
        }
        if self.value_reuse && !rec.inst.is_branch() {
            if let Some(value) = rec.value {
                if self.sif.borrow().should_reuse(rec.pc) {
                    let tag = self.last_tag.unwrap_or(0);
                    self.push_note(Footnote::Value {
                        tag,
                        offset: 0,
                        pc: rec.pc,
                        value,
                    });
                }
            }
        }
    }
}

/// An optional, late-bound commit observer shared across sinks.
type SharedObserver = Rc<RefCell<Option<Rc<RefCell<dyn CommitSink>>>>>;

struct MtSink {
    boq: Rc<RefCell<Boq>>,
    sif: Rc<RefCell<Sif>>,
    t1: Option<Rc<RefCell<T1>>>,
    t1_out: Rc<RefCell<Vec<u64>>>,
    sbit_pcs: HashSet<u64>,
    recycle: Rc<RefCell<RecycleController>>,
    active: Rc<RefCell<ActiveSkeleton>>,
    value_reuse: bool,
    observer: SharedObserver,
}

impl CommitSink for MtSink {
    fn on_commit(&mut self, rec: &CommitRecord) {
        if let Some(obs) = self.observer.borrow().clone() {
            obs.borrow_mut().on_commit(rec);
        }
        self.recycle
            .borrow_mut()
            .on_commit(&mut self.active.borrow_mut());
        if rec.inst.is_cond_branch() {
            self.boq.borrow_mut().commit_front();
            if rec.taken == Some(true) && rec.next_pc < rec.pc {
                // A committed loop branch.
                if self.value_reuse {
                    self.sif.borrow_mut().on_loop_branch(rec.next_pc);
                }
                if let Some(t1) = &self.t1 {
                    t1.borrow_mut().on_loop_branch(rec.next_pc);
                }
                self.recycle.borrow_mut().on_loop_branch(
                    rec.next_pc,
                    rec.cycle,
                    &mut self.active.borrow_mut(),
                );
            }
        }
        if self.value_reuse {
            self.sif
                .borrow_mut()
                .observe_latency(rec.pc, rec.dispatch_to_exec);
        }
        if let Some(t1) = &self.t1 {
            if self.sbit_pcs.contains(&rec.pc) {
                if let Some(addr) = rec.mem_addr {
                    t1.borrow_mut()
                        .observe(rec.pc, addr, rec.cycle, &mut self.t1_out.borrow_mut());
                }
            }
        }
    }
}

/// A consistent snapshot of system-wide counters, for windowed
/// measurement (warm up, snapshot, measure, diff).
#[derive(Debug, Clone)]
pub struct SysSnapshot {
    /// Global cycle at the snapshot.
    pub cycles: u64,
    /// MT committed instructions.
    pub mt_committed: u64,
    /// LT committed instructions.
    pub lt_committed: u64,
    /// MT activity counters.
    pub mt_counters: ActivityCounters,
    /// LT activity counters.
    pub lt_counters: ActivityCounters,
    /// DRAM statistics.
    pub dram: DramStats,
    /// MT L1D statistics.
    pub mt_l1d: CacheStats,
    /// Reboot count.
    pub reboots: u64,
}

/// Windowed measurement derived from two snapshots.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowReport {
    /// Cycles elapsed.
    pub cycles: u64,
    /// MT instructions committed.
    pub mt_committed: u64,
    /// LT instructions committed.
    pub lt_committed: u64,
    /// Main-thread IPC — the system's performance metric.
    pub mt_ipc: f64,
    /// DRAM line transfers (the paper's memory-traffic metric).
    pub dram_traffic: u64,
    /// MT L1D demand misses.
    pub mt_l1d_misses: u64,
    /// MT L1D demand accesses.
    pub mt_l1d_accesses: u64,
    /// Reboots within the window.
    pub reboots: u64,
}

/// Cycles a reboot waits for MT's pipeline to drain before forcing the
/// restart anyway.
const REBOOT_DRAIN_TIMEOUT: u64 = 10_000;

/// The complete DLA / R3-DLA system: two cores plus queues.
pub struct DlaSystem {
    program: Rc<Program>,
    mt: Core,
    lt: Core,
    boq: Rc<RefCell<Boq>>,
    fq: Rc<RefCell<FootnoteQueue>>,
    ind_targets: Rc<RefCell<FxHashMap<u64, u64>>>,
    vr: Option<Rc<RefCell<VrSource>>>,
    sif: Rc<RefCell<Sif>>,
    t1_out: Rc<RefCell<Vec<u64>>>,
    overlay: Rc<RefCell<OverlayMem>>,
    active: Rc<RefCell<ActiveSkeleton>>,
    recycle: Rc<RefCell<RecycleController>>,
    mt_observer: SharedObserver,
    lt_sink: Rc<RefCell<LtSink>>,
    note_buf: Vec<Footnote>,
    cycle: u64,
    reboot_cost: u64,
    pending_reboot: bool,
    pending_since: u64,
    fast_forward: bool,
    /// Total reboots performed.
    pub reboots: u64,
    /// The profile used for skeleton generation.
    pub profile: ProfileData,
}

impl std::fmt::Debug for DlaSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DlaSystem")
            .field("cycle", &self.cycle)
            .field("reboots", &self.reboots)
            .finish_non_exhaustive()
    }
}

impl DlaSystem {
    /// Builds the system for a workload: profiles a training window,
    /// generates skeletons, and wires both cores.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::EmptyProgram`] for empty programs.
    pub fn build(
        built: &BuiltWorkload,
        cfg: DlaConfig,
        opt: SkeletonOptions,
    ) -> Result<Self, BuildError> {
        if built.program.is_empty() {
            return Err(BuildError::EmptyProgram);
        }
        let program = Rc::new(built.program.clone());
        let df = Dataflow::analyze(&program);
        let prof = profile(&program, cfg.profile_insts);
        let skeletons = generate_skeletons(&program, &df, &prof, &opt, cfg.t1);
        Ok(Self::assemble(program, cfg, skeletons, prof))
    }

    /// Like [`build`](Self::build), but assembling over an externally
    /// owned shared LLC/DRAM — the multi-tenant path: build several
    /// systems over the same handle and host them in one
    /// [`Cluster`](crate::Cluster).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::EmptyProgram`] for empty programs.
    pub fn build_shared(
        built: &BuiltWorkload,
        cfg: DlaConfig,
        opt: SkeletonOptions,
        shared: Rc<RefCell<SharedLlc>>,
    ) -> Result<Self, BuildError> {
        if built.program.is_empty() {
            return Err(BuildError::EmptyProgram);
        }
        let program = Rc::new(built.program.clone());
        let df = Dataflow::analyze(&program);
        let prof = profile(&program, cfg.profile_insts);
        let skeletons = generate_skeletons(&program, &df, &prof, &opt, cfg.t1);
        Ok(Self::assemble_shared(program, cfg, skeletons, prof, shared))
    }

    /// Like [`build`](Self::build), but resumes from an architectural
    /// checkpoint instead of the program entry.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::EmptyProgram`] for empty programs.
    pub fn build_from_checkpoint(
        built: &BuiltWorkload,
        cfg: DlaConfig,
        opt: SkeletonOptions,
        ckpt: &ArchCheckpoint,
    ) -> Result<Self, BuildError> {
        if built.program.is_empty() {
            return Err(BuildError::EmptyProgram);
        }
        let program = Rc::new(built.program.clone());
        let df = Dataflow::analyze(&program);
        let prof = profile(&program, cfg.profile_insts);
        let skeletons = generate_skeletons(&program, &df, &prof, &opt, cfg.t1);
        Ok(Self::restore_from_checkpoint(
            program, cfg, skeletons, prof, ckpt,
        ))
    }

    /// Builds the system with pre-generated skeletons (used by the static
    /// recycle tuner and ablation benches).
    pub fn assemble(
        program: Rc<Program>,
        cfg: DlaConfig,
        skeletons: SkeletonSet,
        prof: ProfileData,
    ) -> Self {
        Self::assemble_at(program, cfg, skeletons, prof, None, None)
    }

    /// Like [`assemble`](Self::assemble), but over an externally owned
    /// shared LLC/DRAM model instead of a private one — the multi-tenant
    /// constructor: every [`Cluster`](crate::Cluster) tenant built over
    /// the same handle contends for the same L3 capacity, MSHRs and DRAM
    /// channel. `cfg.mem`'s L3/DRAM parameters are ignored in favor of
    /// the handle's.
    pub fn assemble_shared(
        program: Rc<Program>,
        cfg: DlaConfig,
        skeletons: SkeletonSet,
        prof: ProfileData,
        shared: Rc<RefCell<SharedLlc>>,
    ) -> Self {
        Self::assemble_at(program, cfg, skeletons, prof, None, Some(shared))
    }

    /// Assembles the system resumed from an architectural checkpoint:
    /// memory is the pristine image plus the checkpoint's dirty-page
    /// delta, and both cores' threads start at the checkpoint PC with
    /// the checkpoint register file. Microarchitectural state (caches,
    /// predictors, queues) starts cold — sampled simulation warms it
    /// explicitly per interval.
    pub fn restore_from_checkpoint(
        program: Rc<Program>,
        cfg: DlaConfig,
        skeletons: SkeletonSet,
        prof: ProfileData,
        ckpt: &ArchCheckpoint,
    ) -> Self {
        Self::assemble_at(program, cfg, skeletons, prof, Some(ckpt), None)
    }

    fn assemble_at(
        program: Rc<Program>,
        cfg: DlaConfig,
        skeletons: SkeletonSet,
        prof: ProfileData,
        restore: Option<&ArchCheckpoint>,
        external_llc: Option<Rc<RefCell<SharedLlc>>>,
    ) -> Self {
        // Shared architectural memory.
        let arch_mem = Rc::new(RefCell::new(VecMem::new()));
        arch_mem.borrow_mut().load_image(program.image());
        if let Some(ckpt) = restore {
            ckpt.apply_to(&mut arch_mem.borrow_mut());
        }
        // Shared L3 + DRAM: private by default, or an external handle
        // when several tenant systems contend for one memory side.
        let shared =
            external_llc.unwrap_or_else(|| Rc::new(RefCell::new(SharedLlc::new(&cfg.mem))));
        // Queues and hint state.
        let boq = Rc::new(RefCell::new(Boq::new(cfg.boq_capacity)));
        let fq = Rc::new(RefCell::new(FootnoteQueue::new(cfg.fq_capacity)));
        let ind_targets = Rc::new(RefCell::new(FxHashMap::default()));
        let sif = Rc::new(RefCell::new(Sif::new()));
        let t1 = cfg
            .t1
            .then(|| Rc::new(RefCell::new(T1::new(cfg.t1_entries, 200))));
        let t1_out = Rc::new(RefCell::new(Vec::new()));
        let active = Rc::new(RefCell::new(ActiveSkeleton::new(skeletons, &program)));
        let recycle = Rc::new(RefCell::new(RecycleController::new(cfg.recycle.clone())));
        // S-bit PCs come from the default skeleton version.
        let sbit_pcs: HashSet<u64> = active.borrow().set().versions[0]
            .sbits
            .iter()
            .enumerate()
            .filter(|(_, &s)| s)
            .map(|(i, _)| program.index_to_pc(i))
            .collect();
        // ---- Main core ----------------------------------------------------
        let mut mt_mem = CoreMem::new(&cfg.mem, Rc::clone(&shared));
        if let Some(name) = cfg.mt_l2_prefetcher {
            if let Some(pf) = r3dla_prefetch::by_name(name) {
                mt_mem.set_l2_prefetcher(pf);
            }
        }
        if let Some(name) = cfg.mt_l1_prefetcher {
            if let Some(pf) = r3dla_prefetch::by_name(name) {
                mt_mem.set_l1_prefetcher(pf);
            }
        }
        let mut mt = Core::new(cfg.mt_core.clone(), Rc::clone(&program), mt_mem);
        let (start_pc, start_regs) = match restore {
            Some(ckpt) => (ckpt.pc(), ckpt.regs()),
            None => (program.entry(), ArchState::new(program.entry()).regs()),
        };
        let mt_dir = Box::new(BoqDirection::new(Rc::clone(&boq), Rc::clone(&ind_targets)));
        let mt_tid = mt.add_thread(
            start_pc,
            start_regs,
            mt_dir,
            Rc::new(RefCell::new(BaseMem(Rc::clone(&arch_mem)))),
        );
        debug_assert_eq!(mt_tid, 0);
        let vr = cfg.value_reuse.then(|| {
            let vr = Rc::new(RefCell::new(VrSource::new(cfg.vr_capacity)));
            mt.set_value_source(0, vr.clone());
            vr
        });
        let mt_observer: SharedObserver = Rc::new(RefCell::new(None));
        let mt_sink = Rc::new(RefCell::new(MtSink {
            boq: Rc::clone(&boq),
            sif: Rc::clone(&sif),
            t1: t1.clone(),
            t1_out: Rc::clone(&t1_out),
            sbit_pcs,
            recycle: Rc::clone(&recycle),
            active: Rc::clone(&active),
            value_reuse: cfg.value_reuse,
            observer: Rc::clone(&mt_observer),
        }));
        mt.set_commit_sink(0, mt_sink);
        // ---- Look-ahead core ----------------------------------------------
        let mut lt_mem_cfg = cfg.mem.clone();
        lt_mem_cfg.l1d.discard_dirty = true;
        lt_mem_cfg.l2.discard_dirty = true;
        let mut lt_mem = CoreMem::new(&lt_mem_cfg, Rc::clone(&shared));
        if let Some(name) = cfg.lt_l2_prefetcher {
            if let Some(pf) = r3dla_prefetch::by_name(name) {
                lt_mem.set_l2_prefetcher(pf);
            }
        }
        let mut lt = Core::new(cfg.lt_core.clone(), Rc::clone(&program), lt_mem);
        let overlay = Rc::new(RefCell::new(OverlayMem::new(Rc::clone(&arch_mem))));
        let lt_dir = Box::new(PredictorDirection::new(Box::new(Tage::paper())));
        let lt_tid = lt.add_thread(start_pc, start_regs, lt_dir, overlay.clone());
        debug_assert_eq!(lt_tid, 0);
        lt.set_fetch_filter(0, active.clone());
        lt.set_branch_override(0, active.clone());
        let lt_sink = Rc::new(RefCell::new(LtSink {
            boq: Rc::clone(&boq),
            fq: Rc::clone(&fq),
            sif: Rc::clone(&sif),
            value_reuse: cfg.value_reuse,
            fq_hints: cfg.fq_hints,
            last_tag: None,
            pending: Vec::new(),
            pending_cap: cfg.fq_capacity,
        }));
        lt.set_commit_sink(0, Rc::clone(&lt_sink) as _);
        Self {
            program,
            mt,
            lt,
            boq,
            fq,
            ind_targets,
            vr,
            sif,
            t1_out,
            overlay,
            active,
            recycle,
            mt_observer,
            lt_sink,
            note_buf: Vec::new(),
            cycle: 0,
            reboot_cost: cfg.reboot_cost,
            pending_reboot: false,
            pending_since: 0,
            fast_forward: true,
            reboots: 0,
            profile: prof,
        }
    }

    /// The program under simulation.
    pub fn program(&self) -> &Rc<Program> {
        &self.program
    }

    /// The main core (counters, stats).
    pub fn mt(&self) -> &Core {
        &self.mt
    }

    /// The look-ahead core (counters, stats).
    pub fn lt(&self) -> &Core {
        &self.lt
    }

    /// Current global cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The active-skeleton holder (recycle statistics, Fig 15 usage).
    pub fn active_skeleton(&self) -> Rc<RefCell<ActiveSkeleton>> {
        Rc::clone(&self.active)
    }

    /// The recycle controller statistics.
    pub fn recycle_controller(&self) -> Rc<RefCell<RecycleController>> {
        Rc::clone(&self.recycle)
    }

    /// Current look-ahead depth in BOQ entries.
    pub fn lookahead_depth(&self) -> usize {
        self.boq.borrow().depth()
    }

    /// Whether the main thread has halted.
    pub fn mt_halted(&self) -> bool {
        self.mt.thread_halted(0)
    }

    /// Attaches an extra observer to the main thread's commit stream
    /// (used by experiment harnesses for per-PC attribution).
    pub fn set_mt_observer(&mut self, sink: Rc<RefCell<dyn CommitSink>>) {
        *self.mt_observer.borrow_mut() = Some(sink);
    }

    /// Injects a BOQ misfeed, as if MT had just detected a wrong fed
    /// direction — a fault-injection hook for reboot-path tests and
    /// reboot-cost experiments.
    pub fn inject_misfeed(&mut self) {
        self.boq.borrow_mut().misfeed = true;
    }

    /// Functional warm touch of both cores' data paths: tag-array install
    /// plus TLB prefill, no timing or statistics effects. The sampled-
    /// simulation harness replays the emulator's load/store stream
    /// through this before a detailed window.
    pub fn warm_data(&mut self, addr: u64) {
        self.mt.mem_mut().warm_data(addr);
        self.lt.mem_mut().warm_data(addr);
    }

    /// Functional warm touch of both cores' instruction paths.
    pub fn warm_inst(&mut self, pc: u64) {
        self.mt.mem_mut().warm_inst(pc);
        self.lt.mem_mut().warm_inst(pc);
    }

    /// Functionally trains the look-ahead core's branch predictor with
    /// one architectural outcome (the main thread's BOQ-fed direction
    /// source ignores warmup by design).
    pub fn warm_branch(&mut self, pc: u64, taken: bool) {
        self.mt.warm_branch(0, pc, taken);
        self.lt.warm_branch(0, pc, taken);
    }

    /// Advances the whole system by one cycle.
    pub fn step(&mut self) {
        // Main core first: it consumes BOQ entries and may detect misfeed.
        self.mt.step();
        // Release footnotes up to the last served BOQ tag and apply them.
        let served = self.boq.borrow().last_served_tag();
        self.note_buf.clear();
        self.fq
            .borrow_mut()
            .release_up_to(served, &mut self.note_buf);
        for i in 0..self.note_buf.len() {
            match self.note_buf[i] {
                Footnote::L1Prefetch(addr) => {
                    self.mt.mem_mut().prefetch_into_l1(addr, self.cycle);
                }
                Footnote::TlbHint(addr) => self.mt.mem_mut().tlb_fill(addr),
                Footnote::BranchTarget { pc, target } => {
                    self.ind_targets.borrow_mut().insert(pc, target);
                }
                Footnote::Value { tag, pc, value, .. } => {
                    if let Some(vr) = &self.vr {
                        vr.borrow_mut().insert(tag, pc, value);
                    }
                }
            }
        }
        // T1 prefetches raised at MT commit.
        {
            let mut out = self.t1_out.borrow_mut();
            for i in 0..out.len() {
                let addr = out[i];
                self.mt.mem_mut().prefetch_into_l1(addr, self.cycle);
            }
            out.clear();
        }
        // Value-misprediction feedback into the SIF.
        if let Some(vr) = &self.vr {
            let mut vr = vr.borrow_mut();
            for pc in vr.mispredicted_pcs.drain(..) {
                self.sif.borrow_mut().on_mispredict(pc);
            }
        }
        // Misfeed → freeze LT, drain MT, then reboot.
        if self.boq.borrow().misfeed && !self.pending_reboot {
            self.pending_reboot = true;
            self.pending_since = self.cycle;
            self.boq.borrow_mut().clear();
            self.fq.borrow_mut().clear();
            if let Some(vr) = &self.vr {
                vr.borrow_mut().clear();
            }
            self.ind_targets.borrow_mut().clear();
        }
        if self.pending_reboot {
            let drained = self.mt.in_flight(0) == 0;
            let timeout = self.cycle - self.pending_since > REBOOT_DRAIN_TIMEOUT;
            if drained || timeout {
                self.do_reboot();
            }
        } else {
            // Look-ahead core advances unless the BOQ says it is far
            // enough ahead (paper §III-A ®: depth control) — the same
            // eligibility predicate the skip path uses.
            if self.lt_runnable() {
                self.lt.step();
            }
        }
        self.cycle += 1;
    }

    fn do_reboot(&mut self) {
        let pc = self.mt.arch_pc(0);
        let regs = self.mt.arch_regs(0);
        self.lt.reboot_thread(0, pc, regs, self.reboot_cost);
        self.overlay.borrow_mut().clear();
        self.boq.borrow_mut().clear();
        self.fq.borrow_mut().clear();
        if let Some(vr) = &self.vr {
            vr.borrow_mut().clear();
        }
        // Indirect-branch targets learned before the misfeed would steer
        // MT fetch down stale paths after the restart.
        self.ind_targets.borrow_mut().clear();
        self.lt_sink.borrow_mut().reset();
        self.pending_reboot = false;
        self.reboots += 1;
        // Storm guard: repeated reboots under a recycled skeleton demote
        // it back to the default version.
        self.recycle
            .borrow_mut()
            .on_reboot(&mut self.active.borrow_mut());
    }

    /// Enables or disables event-driven cycle skipping in
    /// [`run_until_mt`](Self::run_until_mt) (on by default).
    ///
    /// Skipping is behavior-preserving: committed-instruction counts, all
    /// activity counters and every report are byte-identical either way —
    /// only host wall-clock changes. The switch exists for equivalence
    /// tests and the runner's `--no-skip` flag.
    pub fn set_fast_forward(&mut self, on: bool) {
        self.fast_forward = on;
    }

    /// Does nothing: there is one run loop. Kept only because the frozen
    /// `perfbench` campaign still calls it; it goes with those call sites
    /// in the next benchmark change.
    #[doc(hidden)]
    pub fn set_event_kernel(&mut self, _on: bool) {}

    /// Whether LT participates in the current cycle: not frozen by a
    /// pending reboot drain or a full BOQ, and not halted. The single
    /// eligibility predicate shared by [`step`](Self::step),
    /// [`skip_window`](Self::skip_window) and [`do_skip`](Self::do_skip),
    /// so stepping and skipping can never disagree about LT.
    ///
    /// Eligibility is stable across a skip window by construction: it can
    /// only change through an MT action (consuming or committing a BOQ
    /// entry, detecting a misfeed, finishing a reboot drain) or an LT
    /// action (halting, filling the BOQ), and a window exists only while
    /// both cores are provably quiescent — so no mid-window thaw is
    /// reachable. [`do_skip`](Self::do_skip) asserts this invariant.
    fn lt_runnable(&self) -> bool {
        !self.pending_reboot && !self.boq.borrow().full() && !self.lt.halted()
    }

    /// Number of quiescent cycles (≤ `limit`) the whole system can
    /// fast-forward from the current cycle — 0 when any component may act
    /// now — paired with the LT-eligibility flag the window was computed
    /// under (to be handed to [`do_skip`](Self::do_skip) unchanged).
    ///
    /// The system is skippable only when MT is quiescent, no footnote is
    /// pending release, no un-serviced misfeed is latched, and — unless
    /// LT is ineligible ([`lt_runnable`](Self::lt_runnable)) — LT is
    /// quiescent too. The window is the minimum of both cores' wake
    /// bounds (translated into the global clock: LT's own clock lags
    /// whenever the BOQ freezes it) and, during a reboot drain, the
    /// drain-timeout cycle; bounding by every wake-eligibility event this
    /// way means a window can never straddle a cycle on which LT's
    /// eligibility flips.
    fn skip_window(&self, limit: u64) -> (u64, bool) {
        let lt_active = self.lt_runnable();
        if self.boq.borrow().misfeed && !self.pending_reboot {
            return (0, lt_active); // the next step latches the reboot
        }
        // Footnotes released by LT commits are applied at the top of the
        // *next* step; a pending release means the next cycle acts.
        if self
            .fq
            .borrow()
            .has_releasable(self.boq.borrow().last_served_tag())
        {
            return (0, lt_active);
        }
        let Some(mt_wake) = self.mt.next_event_at() else {
            return (0, lt_active);
        };
        let mut wake = mt_wake;
        if self.pending_reboot {
            if self.mt.in_flight(0) == 0 {
                return (0, lt_active); // drained: the next step reboots
            }
            wake = wake.min(self.pending_since + REBOOT_DRAIN_TIMEOUT + 1);
        } else if lt_active {
            let Some(lt_wake) = self.lt.next_event_at() else {
                return (0, lt_active);
            };
            // LT's clock only advances on cycles it actually steps, so
            // translate its wake into the global clock (saturating: a
            // forever-quiescent LT reports `u64::MAX`).
            wake = wake.min(self.cycle.saturating_add(lt_wake - self.lt.cycle()));
        }
        (wake.saturating_sub(self.cycle).min(limit), lt_active)
    }

    /// Fast-forwards `n` quiescent cycles. Both `n` and `lt_active` must
    /// come from one [`skip_window`](Self::skip_window) evaluation: the
    /// skip replays exactly the cycles the window proved quiescent, under
    /// exactly the LT participation the proof assumed.
    fn do_skip(&mut self, n: u64, lt_active: bool) {
        debug_assert_eq!(
            lt_active,
            self.lt_runnable(),
            "LT eligibility changed between skip_window and do_skip"
        );
        self.mt.skip_to(self.mt.cycle() + n);
        if lt_active {
            self.lt.skip_to(self.lt.cycle() + n);
        }
        self.cycle += n;
    }

    /// Runs until MT commits `target` more instructions, halts, or
    /// `max_cycles` pass. Returns the cycles elapsed.
    ///
    /// With fast-forwarding enabled (the default), stretches where both
    /// cores are provably stalled — e.g. LT blocked on DRAM while MT
    /// waits on an empty BOQ — are skipped to the next wakeup instead of
    /// being stepped cycle by cycle, with byte-identical results. The
    /// loop is the shared [`run_until`] driver over this system's
    /// [`KernelActor`] quantum.
    pub fn run_until_mt(&mut self, target: u64, max_cycles: u64) -> u64 {
        run_until(self, target, max_cycles)
    }

    /// Takes a counter snapshot for windowed measurement.
    pub fn snapshot(&self) -> SysSnapshot {
        let shared = self.mt.mem().shared();
        let shared = shared.borrow();
        SysSnapshot {
            cycles: self.cycle,
            mt_committed: self.mt.committed(0),
            lt_committed: self.lt.committed(0),
            mt_counters: self.mt.counters.clone(),
            lt_counters: self.lt.counters.clone(),
            dram: shared.dram_stats().clone(),
            mt_l1d: self.mt.mem().l1d_stats().clone(),
            reboots: self.reboots,
        }
    }

    /// Derives a window report from a snapshot taken earlier.
    pub fn window_since(&self, snap: &SysSnapshot) -> WindowReport {
        let now = self.snapshot();
        let cycles = now.cycles - snap.cycles;
        let mt_committed = now.mt_committed - snap.mt_committed;
        WindowReport {
            cycles,
            mt_committed,
            lt_committed: now.lt_committed - snap.lt_committed,
            mt_ipc: if cycles == 0 {
                0.0
            } else {
                mt_committed as f64 / cycles as f64
            },
            dram_traffic: now.dram.traffic_lines() - snap.dram.traffic_lines(),
            mt_l1d_misses: now.mt_l1d.misses.get() - snap.mt_l1d.misses.get(),
            mt_l1d_accesses: now.mt_l1d.accesses.get() - snap.mt_l1d.accesses.get(),
            reboots: now.reboots - snap.reboots,
        }
    }

    /// Convenience: warm up, then measure a window. Returns the report
    /// over the measured window.
    pub fn measure(&mut self, warmup_insts: u64, window_insts: u64) -> WindowReport {
        measure_window(self, warmup_insts, window_insts)
    }
}

/// The windowed-measurement surface shared by [`DlaSystem`] and
/// [`SingleCoreSim`], so the grid runner, figure binaries and the
/// sampled-simulation harness measure through one entry point
/// ([`measure_window`]) instead of two hand-rolled copies.
pub trait MeasureTarget: KernelActor {
    /// Runs until `target` more instructions commit on the measured
    /// (main) thread, the program halts, or `max_cycles` pass; returns
    /// elapsed cycles. Provided: the shared [`run_until`] driver.
    fn run_insts(&mut self, target: u64, max_cycles: u64) -> u64 {
        run_until(self, target, max_cycles)
    }
    /// Takes a consistent counter snapshot.
    fn counters_snapshot(&self) -> SysSnapshot;
    /// Derives the window report for everything since `snap`.
    fn window_report(&self, snap: &SysSnapshot) -> WindowReport;
}

impl MeasureTarget for DlaSystem {
    fn counters_snapshot(&self) -> SysSnapshot {
        self.snapshot()
    }

    fn window_report(&self, snap: &SysSnapshot) -> WindowReport {
        self.window_since(snap)
    }
}

impl MeasureTarget for SingleCoreSim {
    fn counters_snapshot(&self) -> SysSnapshot {
        self.snapshot()
    }

    fn window_report(&self, snap: &SysSnapshot) -> WindowReport {
        self.window_since(snap)
    }
}

impl KernelActor for DlaSystem {
    fn local_cycle(&self) -> u64 {
        self.cycle
    }

    fn halted(&self) -> bool {
        self.mt_halted()
    }

    fn committed(&self) -> u64 {
        self.mt.committed(0)
    }

    /// One scheduler quantum: a single [`step`](DlaSystem::step), or
    /// (with fast-forwarding on, when the activity probe shows the
    /// previous quantum already idle on both cores) a proven-quiescent
    /// skip bounded by `cap`. The one advance path under both the
    /// single-system driver and a [`Cluster`](crate::Cluster), so the
    /// skip bookkeeping (occupancy histograms, fetch-bubble accounting
    /// inside `Core::skip_to`) cannot diverge between them.
    fn advance_quantum(&mut self, cap: u64, last_probe: &mut u64) -> u64 {
        if self.fast_forward {
            // Only pay for the quiescence proof when the previous
            // cycle already looked idle on both cores.
            let probe = self.mt.activity_probe() + self.lt.activity_probe();
            if probe == *last_probe {
                let limit = cap.saturating_sub(self.cycle);
                let (n, lt_active) = self.skip_window(limit);
                if n > 0 {
                    self.do_skip(n, lt_active);
                    return self.cycle;
                }
            }
            *last_probe = probe;
        }
        self.step();
        self.cycle
    }
}

impl KernelActor for SingleCoreSim {
    fn local_cycle(&self) -> u64 {
        self.core.cycle()
    }

    fn halted(&self) -> bool {
        self.core.halted()
    }

    fn committed(&self) -> u64 {
        self.core.committed(0)
    }

    /// Defers to [`Core::advance_quantum`] (step or proven-quiescent
    /// skip), or steps one cycle with fast-forwarding off.
    fn advance_quantum(&mut self, cap: u64, last_probe: &mut u64) -> u64 {
        if self.fast_forward {
            self.core.advance_quantum(cap, last_probe)
        } else {
            self.core.step();
            self.core.cycle()
        }
    }
}

/// Warms up over `warm` committed instructions, then measures a window
/// of `win` — the single measurement helper behind every `measure`
/// method. Cycle budgets match the historical implementations: 60 cycles
/// per targeted instruction plus 500k slack.
pub fn measure_window<S: MeasureTarget + ?Sized>(sys: &mut S, warm: u64, win: u64) -> WindowReport {
    sys.run_insts(warm, warm * 60 + 500_000);
    let snap = sys.counters_snapshot();
    sys.run_insts(win, win * 60 + 500_000);
    sys.window_report(&snap)
}

/// A single-core (non-DLA) simulation wrapper with the same windowed
/// measurement interface — the paper's BL / BL(noPF) / FC configurations.
pub struct SingleCoreSim {
    core: Core,
    fast_forward: bool,
}

impl std::fmt::Debug for SingleCoreSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SingleCoreSim")
            .field("cycle", &self.core.cycle())
            .finish()
    }
}

impl SingleCoreSim {
    /// Builds a conventional core running `built` with the given
    /// prefetchers (names per `r3dla_prefetch::by_name`).
    pub fn build(
        built: &BuiltWorkload,
        core_cfg: CoreConfig,
        mem_cfg: MemConfig,
        l1_prefetcher: Option<&str>,
        l2_prefetcher: Option<&str>,
    ) -> Self {
        Self::build_at(built, core_cfg, mem_cfg, l1_prefetcher, l2_prefetcher, None)
    }

    /// Like [`build`](Self::build), but resumes from an architectural
    /// checkpoint: memory is the image plus the checkpoint delta and the
    /// thread starts at the checkpoint PC/registers. Caches and the
    /// predictor start cold — sampled simulation warms them explicitly.
    pub fn restore_from_checkpoint(
        built: &BuiltWorkload,
        core_cfg: CoreConfig,
        mem_cfg: MemConfig,
        l1_prefetcher: Option<&str>,
        l2_prefetcher: Option<&str>,
        ckpt: &ArchCheckpoint,
    ) -> Self {
        Self::build_at(
            built,
            core_cfg,
            mem_cfg,
            l1_prefetcher,
            l2_prefetcher,
            Some(ckpt),
        )
    }

    fn build_at(
        built: &BuiltWorkload,
        core_cfg: CoreConfig,
        mem_cfg: MemConfig,
        l1_prefetcher: Option<&str>,
        l2_prefetcher: Option<&str>,
        restore: Option<&ArchCheckpoint>,
    ) -> Self {
        let program = Rc::new(built.program.clone());
        let shared = Rc::new(RefCell::new(SharedLlc::new(&mem_cfg)));
        let mut mem = CoreMem::new(&mem_cfg, shared);
        if let Some(name) = l2_prefetcher {
            if let Some(pf) = r3dla_prefetch::by_name(name) {
                mem.set_l2_prefetcher(pf);
            }
        }
        if let Some(name) = l1_prefetcher {
            if let Some(pf) = r3dla_prefetch::by_name(name) {
                mem.set_l1_prefetcher(pf);
            }
        }
        let mut core = Core::new(core_cfg, Rc::clone(&program), mem);
        let arch_mem = Rc::new(RefCell::new(VecMem::new()));
        arch_mem.borrow_mut().load_image(program.image());
        let (start_pc, start_regs) = match restore {
            Some(ckpt) => {
                ckpt.apply_to(&mut arch_mem.borrow_mut());
                (ckpt.pc(), ckpt.regs())
            }
            None => (program.entry(), ArchState::new(program.entry()).regs()),
        };
        let dir = Box::new(PredictorDirection::new(Box::new(Tage::paper())));
        core.add_thread(
            start_pc,
            start_regs,
            dir,
            Rc::new(RefCell::new(BaseMem(arch_mem))),
        );
        Self {
            core,
            fast_forward: true,
        }
    }

    /// Enables or disables event-driven cycle skipping in
    /// [`run_until`](Self::run_until) (on by default; behavior-preserving
    /// either way).
    pub fn set_fast_forward(&mut self, on: bool) {
        self.fast_forward = on;
    }

    /// Does nothing; kept for the same reason as
    /// `DlaSystem::set_event_kernel`.
    #[doc(hidden)]
    pub fn set_event_kernel(&mut self, _on: bool) {}

    /// The core (counters, stats).
    pub fn core(&self) -> &Core {
        &self.core
    }

    /// Mutable core access (attaching sinks for profiling).
    pub fn core_mut(&mut self) -> &mut Core {
        &mut self.core
    }

    /// Runs until `target` more instructions commit, the program halts,
    /// or `max_cycles` pass; returns elapsed cycles. The loop is the
    /// shared [`run_until`] driver over this simulator's [`KernelActor`]
    /// quantum.
    pub fn run_until(&mut self, target: u64, max_cycles: u64) -> u64 {
        run_until(self, target, max_cycles)
    }

    /// Takes a counter snapshot for windowed measurement (LT fields are
    /// zero — there is no look-ahead core here).
    pub fn snapshot(&self) -> SysSnapshot {
        SysSnapshot {
            cycles: self.core.cycle(),
            mt_committed: self.core.committed(0),
            lt_committed: 0,
            mt_counters: self.core.counters.clone(),
            lt_counters: ActivityCounters::default(),
            dram: self.core.mem().shared().borrow().dram_stats().clone(),
            mt_l1d: self.core.mem().l1d_stats().clone(),
            reboots: 0,
        }
    }

    /// Derives a window report from a snapshot taken earlier.
    pub fn window_since(&self, snap: &SysSnapshot) -> WindowReport {
        let now = self.snapshot();
        let cycles = now.cycles - snap.cycles;
        let mt_committed = now.mt_committed - snap.mt_committed;
        WindowReport {
            cycles,
            mt_committed,
            lt_committed: 0,
            mt_ipc: if cycles == 0 {
                0.0
            } else {
                mt_committed as f64 / cycles as f64
            },
            dram_traffic: now.dram.traffic_lines() - snap.dram.traffic_lines(),
            mt_l1d_misses: now.mt_l1d.misses.get() - snap.mt_l1d.misses.get(),
            mt_l1d_accesses: now.mt_l1d.accesses.get() - snap.mt_l1d.accesses.get(),
            reboots: 0,
        }
    }

    /// Warm up, then measure a window; returns the window report (the
    /// same shape [`DlaSystem::measure`] produces, LT fields zero).
    pub fn measure(&mut self, warmup_insts: u64, window_insts: u64) -> WindowReport {
        measure_window(self, warmup_insts, window_insts)
    }

    /// Functional warm touch of the data path (sampled-simulation
    /// warmup; no timing or statistics effects).
    pub fn warm_data(&mut self, addr: u64) {
        self.core.mem_mut().warm_data(addr);
    }

    /// Functional warm touch of the instruction path.
    pub fn warm_inst(&mut self, pc: u64) {
        self.core.mem_mut().warm_inst(pc);
    }

    /// Functionally trains the branch predictor with one architectural
    /// outcome.
    pub fn warm_branch(&mut self, pc: u64, taken: bool) {
        self.core.warm_branch(0, pc, taken);
    }

    /// DRAM traffic lines so far.
    pub fn dram_traffic(&self) -> u64 {
        self.core
            .mem()
            .shared()
            .borrow()
            .dram_stats()
            .traffic_lines()
    }
}

// The experiment-descriptor surface must be shareable across the parallel
// runner's worker threads: specs go in, reports come out, while every
// `DlaSystem` (with its `Rc`/`RefCell` internals) stays thread-confined.
#[allow(dead_code)]
fn spec_surface_is_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DlaConfig>();
    assert_send_sync::<SkeletonOptions>();
    assert_send_sync::<crate::skeleton::SkeletonSet>();
    assert_send_sync::<ProfileData>();
    assert_send_sync::<SysSnapshot>();
    assert_send_sync::<WindowReport>();
    assert_send_sync::<BuildError>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use r3dla_isa::{Inst, Op, Reg};
    use r3dla_workloads::{by_name, Scale};

    fn record(inst: Inst, pc: u64) -> CommitRecord {
        CommitRecord {
            thread: 0,
            seq: 0,
            inst,
            pc,
            cycle: 0,
            next_pc: pc + 4,
            taken: None,
            value: None,
            mem_addr: None,
            l1_miss: false,
            l2_miss: false,
            tlb_miss: false,
            dispatch_to_exec: 0,
        }
    }

    fn load_record(pc: u64, addr: u64) -> CommitRecord {
        let inst = Inst {
            op: Op::Ld,
            rd: Reg::int(3),
            rs1: Reg::int(4),
            rs2: Reg::ZERO,
            imm: 0,
        };
        let mut r = record(inst, pc);
        r.mem_addr = Some(addr);
        r.l1_miss = true;
        r
    }

    fn branch_record(pc: u64, taken: bool) -> CommitRecord {
        let inst = Inst {
            op: Op::Bne,
            rd: Reg::ZERO,
            rs1: Reg::int(3),
            rs2: Reg::int(4),
            imm: 0x100,
        };
        let mut r = record(inst, pc);
        r.taken = Some(taken);
        r
    }

    fn test_sink() -> (Rc<RefCell<Boq>>, Rc<RefCell<FootnoteQueue>>, LtSink) {
        let boq = Rc::new(RefCell::new(Boq::new(16)));
        let fq = Rc::new(RefCell::new(FootnoteQueue::new(16)));
        let sink = LtSink {
            boq: Rc::clone(&boq),
            fq: Rc::clone(&fq),
            sif: Rc::new(RefCell::new(Sif::new())),
            value_reuse: false,
            fq_hints: true,
            last_tag: None,
            pending: Vec::new(),
            pending_cap: 16,
        };
        (boq, fq, sink)
    }

    #[test]
    fn pre_branch_hints_wait_for_their_aligning_branch() {
        let (_boq, fq, mut sink) = test_sink();
        // Two hints commit before any conditional branch.
        sink.on_commit(&load_record(0x40, 0x1000));
        sink.on_commit(&load_record(0x44, 0x2000));
        // They must NOT be releasable yet — tag 0 would release them
        // immediately (served tag starts at 0).
        let mut out = Vec::new();
        fq.borrow_mut().release_up_to(0, &mut out);
        assert!(out.is_empty(), "pre-branch hints must be held, got {out:?}");
        assert!(fq.borrow().is_empty(), "hints stay buffered in the sink");
        // The first branch commits: the hints are re-tagged with its tag.
        sink.on_commit(&branch_record(0x48, true));
        fq.borrow_mut().release_up_to(0, &mut out);
        assert!(out.is_empty(), "still held until MT consumes the branch");
        fq.borrow_mut().release_up_to(1, &mut out);
        assert_eq!(
            out,
            vec![Footnote::L1Prefetch(0x1000), Footnote::L1Prefetch(0x2000)],
            "hints release just-in-time with their aligning branch"
        );
    }

    #[test]
    fn post_branch_hints_keep_streaming() {
        let (_boq, fq, mut sink) = test_sink();
        sink.on_commit(&branch_record(0x40, false));
        sink.on_commit(&load_record(0x44, 0x3000));
        let mut out = Vec::new();
        fq.borrow_mut().release_up_to(1, &mut out);
        assert_eq!(out, vec![Footnote::L1Prefetch(0x3000)]);
    }

    #[test]
    fn sink_reset_reenters_pre_branch_holding() {
        let (_boq, fq, mut sink) = test_sink();
        sink.on_commit(&branch_record(0x40, true));
        sink.reset();
        // After a reboot, hints must wait for the first post-reboot
        // branch again instead of reusing the stale tag.
        sink.on_commit(&load_record(0x44, 0x4000));
        let mut out = Vec::new();
        fq.borrow_mut().release_up_to(u64::MAX, &mut out);
        assert!(out.is_empty());
        sink.on_commit(&branch_record(0x48, true));
        fq.borrow_mut().release_up_to(2, &mut out);
        assert_eq!(out, vec![Footnote::L1Prefetch(0x4000)]);
    }

    /// A branchy workload used by the reboot tests (kept in one place so
    /// they stay in sync).
    const MISFEED_WORKLOAD: &str = "xalan_like";

    /// Runs a fixed committed-instruction window over `MISFEED_WORKLOAD`
    /// with a misfeed injected every 5k instructions — a deterministic
    /// misfeed-heavy scenario. `fast_forward` selects the cycle-skipping
    /// path; the report must not depend on it.
    fn misfeed_heavy_window_ff(reboot_cost: u64, fast_forward: bool) -> WindowReport {
        let wl = by_name(MISFEED_WORKLOAD).unwrap().build(Scale::Tiny);
        let mut cfg = DlaConfig::dla();
        cfg.reboot_cost = reboot_cost;
        cfg.profile_insts = 200_000;
        let mut sys = DlaSystem::build(&wl, cfg, SkeletonOptions::default()).unwrap();
        sys.set_fast_forward(fast_forward);
        sys.run_until_mt(2_000, 500_000);
        let snap = sys.snapshot();
        for _ in 0..6 {
            sys.run_until_mt(5_000, 2_000_000);
            sys.inject_misfeed();
        }
        sys.run_until_mt(5_000, 2_000_000);
        sys.window_since(&snap)
    }

    fn misfeed_heavy_window(reboot_cost: u64) -> WindowReport {
        misfeed_heavy_window_ff(reboot_cost, true)
    }

    #[test]
    fn reboot_cost_is_honored() {
        let cheap = misfeed_heavy_window(64);
        assert!(
            cheap.reboots > 0,
            "workload must reboot for this test to be meaningful; got 0"
        );
        let dear = misfeed_heavy_window(200);
        assert_eq!(dear.reboots, cheap.reboots);
        // A costlier register copy stalls the LT restart longer, so the
        // same committed window must take at least as many cycles.
        assert!(
            dear.cycles >= cheap.cycles,
            "reboot_cost=200 finished faster than 64: {} < {}",
            dear.cycles,
            cheap.cycles
        );
        assert!(
            dear != cheap,
            "reboot_cost sweep produced identical WindowReports — the \
             config value is not reaching reboot_thread"
        );
    }

    #[test]
    fn reboot_clears_indirect_target_hints() {
        let wl = by_name(MISFEED_WORKLOAD).unwrap().build(Scale::Tiny);
        let mut sys = DlaSystem::build(&wl, DlaConfig::dla(), SkeletonOptions::default()).unwrap();
        sys.run_until_mt(2_000, 1_000_000);
        // Plant a stale indirect target, then force a misfeed.
        sys.ind_targets.borrow_mut().insert(0xDEAD, 0xBEEF);
        sys.inject_misfeed();
        let before = sys.reboots;
        let limit = sys.cycle() + 200_000;
        while sys.reboots == before && sys.cycle() < limit && !sys.mt_halted() {
            sys.step();
        }
        assert!(sys.reboots > before, "forced misfeed must reboot");
        assert!(
            !sys.ind_targets.borrow().contains_key(&0xDEAD),
            "stale indirect-branch targets must not survive a reboot"
        );
    }

    #[test]
    fn window_report_is_impl_eq() {
        // `reboot_cost_is_honored` compares whole reports; keep the
        // comparison meaningful if fields are added.
        let r = WindowReport {
            cycles: 1,
            mt_committed: 2,
            lt_committed: 3,
            mt_ipc: 2.0,
            dram_traffic: 4,
            mt_l1d_misses: 5,
            mt_l1d_accesses: 6,
            reboots: 7,
        };
        assert_eq!(r, r.clone());
    }

    #[test]
    fn snapshot_window_counter_diffs() {
        let wl = by_name("libq_like").unwrap().build(Scale::Tiny);
        let mut sys = DlaSystem::build(&wl, DlaConfig::dla(), SkeletonOptions::default()).unwrap();
        sys.run_until_mt(1_000, 500_000);
        let snap = sys.snapshot();
        sys.run_until_mt(5_000, 1_000_000);
        let rep = sys.window_since(&snap);
        assert_eq!(rep.cycles, sys.cycle() - snap.cycles);
        assert_eq!(rep.mt_committed, sys.mt().committed(0) - snap.mt_committed);
        assert!(rep.mt_committed >= 5_000);
        let ipc = rep.mt_committed as f64 / rep.cycles as f64;
        assert!((rep.mt_ipc - ipc).abs() < 1e-12);
        assert!(rep.mt_l1d_accesses >= rep.mt_l1d_misses);
    }

    #[test]
    fn zero_cycle_window_reports_zero() {
        let wl = by_name("libq_like").unwrap().build(Scale::Tiny);
        let sys = DlaSystem::build(&wl, DlaConfig::dla(), SkeletonOptions::default()).unwrap();
        let rep = sys.window_since(&sys.snapshot());
        assert_eq!(rep.cycles, 0);
        assert_eq!(rep.mt_committed, 0);
        assert_eq!(rep.mt_ipc, 0.0);
        assert_eq!(rep.dram_traffic, 0);
        assert_eq!(rep.reboots, 0);
    }

    /// Deep fingerprint of a system's observable state for the
    /// skip-equivalence tests: window report plus both cores' activity
    /// counters, per-thread statistics and the MT L1D prefetch counters
    /// (which the footnote-queue hints feed).
    fn system_fingerprint(sys: &DlaSystem, rep: &WindowReport) -> String {
        format!(
            "{rep:?} cycle={} reboots={} mt_counters={:?} lt_counters={:?} \
             mt_stats={:?} lt_stats={:?} l1d={:?}",
            sys.cycle(),
            sys.reboots,
            sys.mt().counters,
            sys.lt().counters,
            sys.mt().thread_stats(0),
            sys.lt().thread_stats(0),
            sys.mt().mem().l1d_stats(),
        )
    }

    /// Runs one DLA config over a workload with skipping on and off and
    /// asserts every observable statistic matches.
    fn assert_skip_equivalent(workload: &str, cfg: DlaConfig, warm: u64, win: u64) {
        let wl = by_name(workload).unwrap().build(Scale::Tiny);
        let run = |fast_forward: bool| {
            let mut sys = DlaSystem::build(&wl, cfg.clone(), SkeletonOptions::default()).unwrap();
            sys.set_fast_forward(fast_forward);
            sys.run_until_mt(warm, warm * 60 + 500_000);
            let snap = sys.snapshot();
            sys.run_until_mt(win, win * 60 + 500_000);
            let rep = sys.window_since(&snap);
            system_fingerprint(&sys, &rep)
        };
        assert_eq!(run(true), run(false), "{workload}: skip on/off diverged");
    }

    #[test]
    fn skip_equivalence_under_hint_queue_wakeups() {
        // libq_like is memory-bound: the FQ carries a steady stream of
        // L1-prefetch/TLB hints whose releases must not be jumped over,
        // and both cores spend long stretches stalled — the prime
        // fast-forward scenario. dla() keeps every hint kind enabled.
        let mut cfg = DlaConfig::dla();
        cfg.profile_insts = 200_000;
        assert_skip_equivalent("libq_like", cfg, 2_000, 10_000);
    }

    #[test]
    fn skip_equivalence_under_tiny_boq_freeze_thaw() {
        // A 4-entry BOQ makes the LT freeze (queue full) and thaw (MT
        // consumes an outcome) every few cycles, so LT wake-eligibility
        // flips constantly. Regression test for the asymmetric skip
        // accounting this exercised: `skip_window` evaluates eligibility
        // once, bounds the window by the events that could change it,
        // and `do_skip` replays exactly that evaluation.
        let mut cfg = DlaConfig::dla();
        cfg.profile_insts = 200_000;
        cfg.boq_capacity = 4;
        assert_skip_equivalent("libq_like", cfg, 2_000, 10_000);
    }

    #[test]
    fn skip_equivalence_with_value_reuse_and_t1() {
        // The full R3 feature set: value-reuse footnotes, T1 prefetch
        // drains and dynamic recycling all ride the per-cycle paths the
        // skipper must respect.
        let mut cfg = DlaConfig::r3();
        cfg.profile_insts = 200_000;
        assert_skip_equivalent("rgbyuv_like", cfg, 2_000, 10_000);
    }

    #[test]
    fn skip_equivalence_across_reboots() {
        // Misfeed-driven reboots interleave drain windows, LT freezes and
        // queue flushes with the skipping machinery (reboot mid-skip).
        let fast = misfeed_heavy_window_ff(64, true);
        let slow = misfeed_heavy_window_ff(64, false);
        assert!(fast.reboots > 0, "scenario must actually reboot");
        assert_eq!(fast, slow, "reboot path diverged between skip on/off");
    }

    #[test]
    fn window_counts_reboots() {
        let wl = by_name(MISFEED_WORKLOAD).unwrap().build(Scale::Tiny);
        let mut sys = DlaSystem::build(&wl, DlaConfig::dla(), SkeletonOptions::default()).unwrap();
        sys.run_until_mt(1_000, 500_000);
        let snap = sys.snapshot();
        sys.inject_misfeed();
        let limit = sys.cycle() + 200_000;
        while sys.reboots == snap.reboots && sys.cycle() < limit && !sys.mt_halted() {
            sys.step();
        }
        let rep = sys.window_since(&snap);
        assert_eq!(rep.reboots, sys.reboots - snap.reboots);
        assert!(rep.reboots >= 1);
    }
}
