//! The cycle-stepped out-of-order core.
//!
//! One [`Core`] owns a private memory hierarchy ([`CoreMem`]) and one or
//! more hardware threads (SMT). Each cycle advances commit → writeback →
//! issue → rename → fetch, so results flow strictly forward in time.
//!
//! The model is *execute-in-execute*: functional results are computed when
//! an instruction issues, using real values held in the physical register
//! file. Wrong-path instructions therefore execute real (garbage-input)
//! work and pollute caches — exactly the effect decoupled look-ahead is
//! designed to absorb on behalf of the main thread.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use r3dla_bpred::{Btb, BtbConfig, Ras, RasCheckpoint};
use r3dla_isa::{
    eval_alu, eval_cond, mem_addr, BranchKind, FuClass, Inst, Op, Program, Reg, INST_BYTES,
};
use r3dla_mem::CoreMem;
use r3dla_stats::Histogram;

use crate::config::CoreConfig;
use crate::counters::ActivityCounters;
use crate::iface::{
    BranchOverride, CommitRecord, CommitSink, FetchDirection, FetchFilter, ThreadMem, ValueSource,
};
use crate::prf::Prf;

/// Base address where skeleton mask bits live in the binary image; the
/// look-ahead front end fetches mask lines from here (paper §III-A iii).
pub const MASK_BASE: u64 = 0x0800_0000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Dispatched,
    Issued,
    Done,
}

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    seq: u64,
    pc: u64,
    inst: Inst,
    stage: Stage,
    exec_done: u64,
    dest_new: Option<u16>,
    dest_old: Option<u16>,
    src: [Option<u16>; 2],
    // Branch bookkeeping.
    pred_next_pc: u64,
    actual_taken: Option<bool>,
    actual_next_pc: u64,
    dir_snapshot: u64,
    ras_ckpt: RasCheckpoint,
    // Value-reuse alignment context (tag of the governing conditional
    // branch and distance from it).
    branch_tag: u64,
    branch_offset: u32,
    // Memory bookkeeping.
    addr: Option<u64>,
    store_val: Option<u64>,
    l1_miss: bool,
    l2_miss: bool,
    tlb_miss: bool,
    // Value prediction.
    vpred: Option<u64>,
    // Results & stats.
    result: Option<u64>,
    dispatch_cycle: u64,
}

/// An issue-queue slot. It carries everything the wakeup/select scan
/// reads (source tags, dispatch cycle, FU class), so that scan touches
/// only the queue and the PRF ready array; the ROB is read only for
/// entries that actually issue.
#[derive(Debug, Clone, Copy)]
struct IqEntry {
    thread: usize,
    seq: u64,
    dispatch_cycle: u64,
    src: [Option<u16>; 2],
    class: FuClass,
    is_load: bool,
}

#[derive(Debug, Clone, Copy)]
struct FetchedInst {
    pc: u64,
    inst: Inst,
    pred_next_pc: u64,
    dir_snapshot: u64,
    ras_ckpt: RasCheckpoint,
    decode_ready: u64,
    branch_tag: u64,
    branch_offset: u32,
}

/// Per-thread results exposed after simulation.
#[derive(Debug, Default, Clone)]
pub struct ThreadStats {
    /// Committed instruction count.
    pub committed: u64,
    /// Conditional branches committed.
    pub cond_branches: u64,
    /// L1D load misses observed at execute (committed loads only).
    pub l1d_load_misses: u64,
    /// Loads committed.
    pub loads: u64,
    /// Occupancy histogram of the fetch buffer (sampled every cycle).
    pub fetch_occupancy: Histogram,
    /// Histogram of instructions renamed per cycle (decode supply).
    pub renamed_per_cycle: Histogram,
    /// Histogram of instructions fetched per cycle (I-side supply).
    pub fetched_per_cycle: Histogram,
}

struct Thread {
    // Front end.
    fetch_pc: u64,
    fetch_stall_until: u64,
    fetch_buffer: VecDeque<FetchedInst>,
    /// Decode/rename pipeline registers: instructions drained from the
    /// fetch buffer spend `frontend_depth` cycles here, modelling the
    /// 20-stage pipe without consuming fetch-buffer capacity.
    decode_pipe: VecDeque<FetchedInst>,
    dir: Box<dyn FetchDirection>,
    btb: Btb,
    ras: Ras,
    filter: Option<Rc<RefCell<dyn FetchFilter>>>,
    // Value-reuse alignment: tag of the last fetched conditional branch
    // and the distance of the fetch cursor from it.
    last_branch_tag: u64,
    cursor_offset: u32,
    next_local_tag: u64,
    halted_fetch: bool,
    // Rename state.
    rat: [u16; Reg::COUNT],
    validated: [bool; Reg::COUNT],
    // Backend.
    rob: VecDeque<RobEntry>,
    rob_head_seq: u64,
    /// `(seq, exec_done)` of the issued, unresolved ROB entries, oldest
    /// first: what writeback and `next_event_at` scan instead of the ROB.
    executing: Vec<(u64, u64)>,
    next_seq: u64,
    store_queue: VecDeque<u64>, // seqs of in-flight stores, oldest first

    // Architectural state.
    arch_regs: [u64; Reg::COUNT],
    arch_pc: u64,
    mem: Rc<RefCell<dyn ThreadMem>>,
    halted: bool,
    // Hooks.
    value_source: Option<Rc<RefCell<dyn ValueSource>>>,
    commit_sink: Option<Rc<RefCell<dyn CommitSink>>>,
    branch_override: Option<Rc<RefCell<dyn BranchOverride>>>,
    // Stats.
    stats: ThreadStats,
}

impl std::fmt::Debug for Thread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Thread")
            .field("fetch_pc", &self.fetch_pc)
            .field("committed", &self.stats.committed)
            .field("halted", &self.halted)
            .finish_non_exhaustive()
    }
}

/// A cycle-stepped out-of-order core.
pub struct Core {
    cfg: CoreConfig,
    program: Rc<Program>,
    mem: CoreMem,
    threads: Vec<Thread>,
    prf: Prf,
    iq: Vec<IqEntry>,
    cycle: u64,
    int_busy_until: Vec<u64>,
    fp_busy_until: Vec<u64>,
    mem_used_this_cycle: usize,
    int_used_this_cycle: usize,
    fp_used_this_cycle: usize,
    /// Activity counters (consumed by the energy model).
    pub counters: ActivityCounters,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("cycle", &self.cycle)
            .field("threads", &self.threads.len())
            .finish_non_exhaustive()
    }
}

impl Core {
    /// Creates a core running `program` against the given private
    /// hierarchy. Threads are added with [`Core::add_thread`].
    pub fn new(cfg: CoreConfig, program: Rc<Program>, mem: CoreMem) -> Self {
        let prf = Prf::new(cfg.prf_size, 0);
        Self {
            int_busy_until: vec![0; cfg.int_units],
            fp_busy_until: vec![0; cfg.fp_units],
            mem_used_this_cycle: 0,
            int_used_this_cycle: 0,
            fp_used_this_cycle: 0,
            cfg,
            program,
            mem,
            threads: Vec::new(),
            prf,
            iq: Vec::new(),
            cycle: 0,
            counters: ActivityCounters::default(),
        }
    }

    /// Adds a hardware thread starting at `entry` with architectural
    /// registers `regs`, fed by `dir` and viewing memory through `mem`.
    /// Returns the thread id.
    ///
    /// # Panics
    ///
    /// Panics if the PRF cannot seat another thread's architectural state.
    pub fn add_thread(
        &mut self,
        entry: u64,
        regs: [u64; Reg::COUNT],
        dir: Box<dyn FetchDirection>,
        mem: Rc<RefCell<dyn ThreadMem>>,
    ) -> usize {
        let mut rat = [0u16; Reg::COUNT];
        for (i, r) in rat.iter_mut().enumerate() {
            let p = self.prf.alloc().expect("PRF too small for thread state");
            self.prf.init(p, regs[i]);
            *r = p;
        }
        self.threads.push(Thread {
            fetch_pc: entry,
            fetch_stall_until: 0,
            fetch_buffer: VecDeque::with_capacity(self.cfg.fetch_buffer),
            decode_pipe: VecDeque::new(),
            dir,
            btb: Btb::new(BtbConfig::paper()),
            ras: Ras::new(),
            filter: None,
            last_branch_tag: 0,
            cursor_offset: 0,
            next_local_tag: 1,
            halted_fetch: false,
            rat,
            validated: [false; Reg::COUNT],
            rob: VecDeque::with_capacity(self.cfg.rob_size),
            rob_head_seq: 0,
            executing: Vec::new(),
            next_seq: 0,
            store_queue: VecDeque::new(),
            arch_regs: regs,
            arch_pc: entry,
            mem,
            halted: false,
            value_source: None,
            commit_sink: None,
            branch_override: None,
            stats: ThreadStats::default(),
        });
        self.threads.len() - 1
    }

    /// Functionally warms a thread's branch-direction source with one
    /// architectural outcome (no-op for queue-fed sources). Part of the
    /// sampled-simulation warmup surface; see
    /// [`FetchDirection::warm_outcome`].
    pub fn warm_branch(&mut self, thread: usize, pc: u64, taken: bool) {
        self.threads[thread].dir.warm_outcome(pc, taken);
    }

    /// Attaches a branch-direction override (bias-converted skeleton
    /// branches in a look-ahead thread).
    pub fn set_branch_override(&mut self, thread: usize, ov: Rc<RefCell<dyn BranchOverride>>) {
        self.threads[thread].branch_override = Some(ov);
    }

    /// Attaches a fetch filter (skeleton mask) to a thread.
    pub fn set_fetch_filter(&mut self, thread: usize, filter: Rc<RefCell<dyn FetchFilter>>) {
        self.threads[thread].filter = Some(filter);
    }

    /// Attaches a value-prediction source to a thread.
    pub fn set_value_source(&mut self, thread: usize, src: Rc<RefCell<dyn ValueSource>>) {
        self.threads[thread].value_source = Some(src);
    }

    /// Attaches a commit sink to a thread.
    pub fn set_commit_sink(&mut self, thread: usize, sink: Rc<RefCell<dyn CommitSink>>) {
        self.threads[thread].commit_sink = Some(sink);
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The core configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Whether every thread has committed a halt.
    pub fn halted(&self) -> bool {
        self.threads.iter().all(|t| t.halted)
    }

    /// Whether thread `t` has halted.
    pub fn thread_halted(&self, t: usize) -> bool {
        self.threads[t].halted
    }

    /// Per-thread statistics.
    pub fn thread_stats(&self, t: usize) -> &ThreadStats {
        &self.threads[t].stats
    }

    /// Architectural (committed) register state of a thread — the source
    /// for DLA reboot copies.
    pub fn arch_regs(&self, t: usize) -> [u64; Reg::COUNT] {
        self.threads[t].arch_regs
    }

    /// Architectural next PC of a thread.
    pub fn arch_pc(&self, t: usize) -> u64 {
        self.threads[t].arch_pc
    }

    /// Committed instruction count of a thread.
    pub fn committed(&self, t: usize) -> u64 {
        self.threads[t].stats.committed
    }

    /// Number of in-flight (renamed, uncommitted) instructions in a
    /// thread's ROB.
    pub fn in_flight(&self, t: usize) -> usize {
        self.threads[t].rob.len()
    }

    /// Access to the private memory hierarchy.
    pub fn mem(&self) -> &CoreMem {
        &self.mem
    }

    /// Mutable access to the private memory hierarchy (prefetch hints).
    pub fn mem_mut(&mut self) -> &mut CoreMem {
        &mut self.mem
    }

    /// Fully flushes a thread's pipeline and restarts it at `pc` with the
    /// supplied architectural registers — the DLA reboot operation. The
    /// register-copy delay is charged by stalling fetch for `stall`
    /// cycles (64 in the paper).
    pub fn reboot_thread(&mut self, thread: usize, pc: u64, regs: [u64; Reg::COUNT], stall: u64) {
        self.squash_all(thread);
        let t = &mut self.threads[thread];
        t.arch_regs = regs;
        t.arch_pc = pc;
        t.fetch_pc = pc;
        t.fetch_stall_until = self.cycle + stall;
        t.halted = false;
        t.halted_fetch = false;
        t.last_branch_tag = 0;
        t.cursor_offset = 0;
        t.validated = [false; Reg::COUNT];
        for (i, &p) in t.rat.iter().enumerate() {
            self.prf.init(p, regs[i]);
        }
    }

    /// Advances the whole core by one cycle.
    pub fn step(&mut self) {
        self.counters.cycles.inc();
        self.mem_used_this_cycle = 0;
        self.int_used_this_cycle = 0;
        self.fp_used_this_cycle = 0;
        self.stage_commit();
        self.stage_writeback();
        self.stage_issue();
        self.stage_rename();
        self.stage_fetch();
        for t in &mut self.threads {
            t.stats.fetch_occupancy.record(t.fetch_buffer.len() as u64);
        }
        self.cycle += 1;
    }

    /// Runs until all threads halt or `max_cycles` elapse; returns cycles
    /// executed. Quiescent stretches are fast-forwarded through
    /// [`Core::advance_quantum`]; the result is identical to stepping
    /// every cycle.
    pub fn run(&mut self, max_cycles: u64) -> u64 {
        let start = self.cycle;
        let mut last_probe = u64::MAX;
        while !self.halted() && self.cycle - start < max_cycles {
            self.advance_quantum(start.saturating_add(max_cycles), &mut last_probe);
        }
        self.cycle - start
    }

    /// One scheduler quantum of a single-core run loop: fast-forwards to
    /// the next event when the previous quantum already looked idle (and
    /// quiescence proves out), else steps one cycle. `cap` bounds the
    /// skip target; `last_probe` carries the idleness gate across calls
    /// (seed it with `u64::MAX`). Returns the cycle at which the core
    /// must next be dispatched: after a skip, exactly the wakeup
    /// [`next_event_at`](Core::next_event_at) reported; after a step, the
    /// very next cycle. Shared by [`Core::run`], the single-core
    /// simulators and the profiler, so the gate logic cannot drift
    /// between them.
    pub fn advance_quantum(&mut self, cap: u64, last_probe: &mut u64) -> u64 {
        // Only pay for the quiescence proof when the previous cycle
        // already looked idle.
        let probe = self.activity_probe();
        if probe == *last_probe {
            if let Some(wake) = self.next_event_at() {
                self.skip_to(wake.min(cap));
                return self.cycle;
            }
        }
        *last_probe = probe;
        self.step();
        self.cycle
    }

    // ------------------------------------------------------------------
    // Event-driven fast path
    // ------------------------------------------------------------------

    /// A cheap monotone activity signature: unchanged across a cycle
    /// means that cycle (very likely) did no observable work, so a run
    /// loop should bother asking [`Core::next_event_at`]. It may miss
    /// rare progress kinds (a writeback with nothing else, a
    /// drain-only cycle) — that only costs one wasted query, never
    /// correctness, because `next_event_at` re-proves quiescence itself.
    pub fn activity_probe(&self) -> u64 {
        let c = &self.counters;
        c.fetched.get()
            + c.mask_deleted.get()
            + c.icache_lines.get()
            + c.decoded.get()
            + c.executed.get()
            + c.committed.get()
            + c.squashed.get()
    }

    /// Earliest-activity query for the event-driven fast path.
    ///
    /// Returns `None` when the core may change state at the *current*
    /// cycle — the caller must [`step`](Core::step). Returns `Some(wake)`
    /// with `wake > cycle()` when the core is provably quiescent until
    /// `wake`: every cycle before it would only advance clocks and record
    /// per-cycle occupancy samples, which [`Core::skip_to`] replays in
    /// bulk. The bound aggregates, per thread, the fetch-stall expiry,
    /// the decode-pipe head's ready cycle, the commit head's completion,
    /// every in-flight instruction's `exec_done`, and each issue-queue
    /// entry's earliest source-ready cycle (for loads, also the earliest
    /// resolve of a blocking older store).
    ///
    /// `wake` is a lower bound, not a prediction: waking early merely
    /// re-asks the question next cycle; waking late can never happen. A
    /// direction-starved thread (BOQ-fed fetch at a conditional branch
    /// with an empty queue) is quiescent with no intrinsic wake — only a
    /// sibling core can refill its queue, so the system-level scheduler
    /// combines both cores' bounds.
    pub fn next_event_at(&self) -> Option<u64> {
        let now = self.cycle;
        let mut wake = u64::MAX;
        let pipe_cap = self.cfg.decode_width * self.cfg.frontend_depth as usize + 1;
        for t in &self.threads {
            // Fetch buffer → decode pipe drain possible this cycle?
            if !t.fetch_buffer.is_empty() && t.decode_pipe.len() < pipe_cap {
                return None;
            }
            // Rename.
            if let Some(f) = t.decode_pipe.front() {
                if f.decode_ready > now {
                    wake = wake.min(f.decode_ready);
                } else if self.iq.len() < self.cfg.iq_size
                    && self.prf.available() > 0
                    && t.rob.len() < self.cfg.rob_size
                    && !(f.inst.is_store() && t.store_queue.len() >= self.cfg.lsq_size)
                {
                    return None; // rename absorbs it this cycle
                }
                // Otherwise blocked on backend capacity, which frees only
                // at an issue or commit event — both accounted for below.
            }
            // Fetch.
            if !t.halted && !t.halted_fetch {
                if t.fetch_stall_until > now {
                    wake = wake.min(t.fetch_stall_until);
                } else if t.fetch_buffer.len() < self.cfg.fetch_buffer {
                    match self.program.fetch(t.fetch_pc) {
                        // Direction-starved: quiescent with no intrinsic
                        // wake (see above).
                        Some(inst) if inst.is_cond_branch() && !t.dir.available() => {}
                        // Anything else fetches — or mutates cache and
                        // front-end state trying to.
                        _ => return None,
                    }
                }
                // A full fetch buffer only records the per-cycle
                // zero-fetch sample, replayed by `skip_to`.
            }
            // Commit: a completed head retires at its exec_done.
            if let Some(head) = t.rob.front() {
                if head.stage == Stage::Done {
                    if head.exec_done <= now {
                        return None;
                    }
                    wake = wake.min(head.exec_done);
                }
            }
            // Writeback: issued, unresolved entries complete at exec_done.
            for &(_, done) in &t.executing {
                if done <= now {
                    return None;
                }
                wake = wake.min(done);
            }
        }
        // Issue: earliest cycle any queued entry could become ready.
        for q in &self.iq {
            let t = &self.threads[q.thread];
            let mut ready = Self::ready_bound(&self.prf, q.dispatch_cycle, &q.src);
            // A load also waits for older stores with unresolved
            // addresses. Skeleton-filtered threads may issue some loads
            // as prefetch payloads that bypass that check, so the
            // refinement applies only to unfiltered threads (for the
            // others the plain source bound is already a valid floor).
            if q.is_load && t.filter.is_none() {
                ready = ready.max(Self::load_block_bound(&self.prf, t, q.seq));
            }
            if ready <= now {
                return None;
            }
            wake = wake.min(ready);
        }
        Some(wake)
    }

    /// Lower bound on the cycle at which an entry dispatched at
    /// `dispatch_cycle` with sources `src` could issue: past its dispatch
    /// cycle with every present source readable.
    fn ready_bound(prf: &Prf, dispatch_cycle: u64, src: &[Option<u16>; 2]) -> u64 {
        let mut ready = dispatch_cycle + 1;
        for p in src.iter().flatten() {
            ready = ready.max(prf.ready_at(*p));
        }
        ready
    }

    /// Lower bound on the cycle at which the oldest address-unresolved
    /// store blocking loads at `seq` could resolve (0 when none blocks).
    fn load_block_bound(prf: &Prf, t: &Thread, seq: u64) -> u64 {
        for &sseq in &t.store_queue {
            if sseq >= seq {
                break;
            }
            let idx = (sseq - t.rob_head_seq) as usize;
            let se = &t.rob[idx];
            if se.addr.is_none() {
                // The store resolves its address no earlier than it can
                // issue.
                return Self::ready_bound(prf, se.dispatch_cycle, &se.src);
            }
        }
        0
    }

    /// Bulk-advances a quiescent core to `target`, replaying exactly the
    /// per-cycle effects that idle stepping would have produced: the
    /// cycle counter, the fetch-bubble accounting, and the per-thread
    /// occupancy/zero-throughput samples.
    ///
    /// The caller must have proven quiescence with
    /// [`Core::next_event_at`] and must not pass a `target` beyond the
    /// returned wake cycle; the two together keep counters and state
    /// byte-identical to the cycle-by-cycle path.
    pub fn skip_to(&mut self, target: u64) {
        let n = target.saturating_sub(self.cycle);
        if n == 0 {
            return;
        }
        self.counters.cycles.add(n);
        if self.cfg.decode_width > 0
            && self.backend_has_room()
            && self.threads.iter().any(|t| !t.halted)
        {
            self.counters
                .fetch_bubble_insts
                .add(n * self.cfg.decode_width as u64);
        }
        let now = self.cycle;
        let fetch_cap = self.cfg.fetch_buffer;
        for t in &mut self.threads {
            t.stats
                .fetch_occupancy
                .record_n(t.fetch_buffer.len() as u64, n);
            t.stats.renamed_per_cycle.record_n(0, n);
            // Only a buffer-full thread reaches its per-cycle zero-fetch
            // sample; stalled, starved or halted threads return before
            // recording.
            if !t.halted
                && !t.halted_fetch
                && t.fetch_stall_until <= now
                && t.fetch_buffer.len() >= fetch_cap
            {
                t.stats.fetched_per_cycle.record_n(0, n);
            }
        }
        self.mem_used_this_cycle = 0;
        self.int_used_this_cycle = 0;
        self.fp_used_this_cycle = 0;
        self.cycle = target;
    }

    // ------------------------------------------------------------------
    // Commit
    // ------------------------------------------------------------------

    fn stage_commit(&mut self) {
        let nthreads = self.threads.len();
        if nthreads == 0 {
            return;
        }
        let mut budget = self.cfg.commit_width;
        for k in 0..nthreads {
            let tid = (self.cycle as usize + k) % nthreads;
            while budget > 0 {
                if !self.commit_one(tid) {
                    break;
                }
                budget -= 1;
            }
        }
    }

    fn commit_one(&mut self, tid: usize) -> bool {
        let cycle = self.cycle;
        let t = &mut self.threads[tid];
        let Some(head) = t.rob.front() else {
            return false;
        };
        if head.stage != Stage::Done || head.exec_done > cycle {
            return false;
        }
        let e = t.rob.pop_front().expect("head exists");
        t.rob_head_seq = e.seq + 1;
        t.ras.retire(e.ras_ckpt);
        if let Some(rd) = e.inst.def() {
            if let Some(old) = e.dest_old {
                self.prf.free(old);
            }
            if let Some(v) = e.result {
                t.arch_regs[rd.index()] = v;
            }
        }
        t.arch_pc = e.actual_next_pc;
        if e.inst.is_store() {
            if let (Some(addr), Some(val)) = (e.addr, e.store_val) {
                t.mem.borrow_mut().store(addr, val);
                self.mem.store(addr, e.pc, cycle);
            }
            if t.store_queue.front() == Some(&e.seq) {
                t.store_queue.pop_front();
            }
        }
        if e.inst.op == Op::Halt {
            t.halted = true;
        }
        t.stats.committed += 1;
        if e.inst.is_cond_branch() {
            t.stats.cond_branches += 1;
        }
        if e.inst.is_load() {
            t.stats.loads += 1;
            if e.l1_miss {
                t.stats.l1d_load_misses += 1;
            }
        }
        self.counters.committed.inc();
        // Borrow the sink in place — no per-commit `Rc` refcount churn.
        // The record is built entirely from the popped entry, so no core
        // borrow is live while the sink runs.
        if let Some(sink) = &self.threads[tid].commit_sink {
            let rec = CommitRecord {
                thread: tid,
                seq: e.seq,
                inst: e.inst,
                pc: e.pc,
                cycle,
                next_pc: e.actual_next_pc,
                taken: e.actual_taken,
                value: e.result,
                mem_addr: e.addr,
                l1_miss: e.l1_miss,
                l2_miss: e.l2_miss,
                tlb_miss: e.tlb_miss,
                dispatch_to_exec: e.exec_done.saturating_sub(e.dispatch_cycle),
            };
            sink.borrow_mut().on_commit(&rec);
        }
        true
    }

    // ------------------------------------------------------------------
    // Writeback / branch resolution / value validation
    // ------------------------------------------------------------------

    fn stage_writeback(&mut self) {
        let cycle = self.cycle;
        for tid in 0..self.threads.len() {
            // Completed entries resolve in program order.
            let mut i = 0;
            while i < self.threads[tid].executing.len() {
                let (seq, done) = self.threads[tid].executing[i];
                if done > cycle {
                    i += 1;
                    continue;
                }
                self.threads[tid].executing.remove(i);
                if self.resolve_entry(tid, seq) {
                    break; // squashed everything younger
                }
            }
        }
    }

    /// Completes one instruction; returns true if it squashed younger ones.
    fn resolve_entry(&mut self, tid: usize, seq: u64) -> bool {
        let e = {
            let t = &mut self.threads[tid];
            let idx = (seq - t.rob_head_seq) as usize;
            let en = &mut t.rob[idx];
            en.stage = Stage::Done;
            *en
        };
        // Value-prediction validation.
        if let Some(pred) = e.vpred {
            self.counters.value_validations.inc();
            let actual = e.result.unwrap_or(0);
            let correct = actual == pred;
            if let Some(src) = &self.threads[tid].value_source {
                src.borrow_mut().on_outcome(e.pc, correct);
            }
            if !correct {
                self.counters.value_mispredicts.inc();
                // Replay: squash younger instructions (which consumed the
                // bad value) and refetch after this instruction. The
                // instruction itself keeps its correct result.
                self.squash_younger(tid, seq, &e);
                return true;
            }
        }
        // Branch resolution.
        if e.inst.is_branch() {
            let mispredicted = e.actual_next_pc != e.pred_next_pc;
            if e.inst.is_cond_branch() {
                let taken = e.actual_taken.unwrap_or(false);
                self.threads[tid].dir.resolve(e.pc, taken, mispredicted);
            }
            if e.actual_taken.unwrap_or(true) {
                self.threads[tid].btb.update(e.pc, e.actual_next_pc);
            }
            if mispredicted {
                self.counters.branch_mispredicts.inc();
                self.squash_younger(tid, seq, &e);
                return true;
            }
        }
        false
    }

    /// Squashes all entries younger than `seq` and redirects fetch after
    /// the squashing entry `e`.
    fn squash_younger(&mut self, tid: usize, seq: u64, e: &RobEntry) {
        let cycle = self.cycle;
        {
            let t = &mut self.threads[tid];
            while let Some(back) = t.rob.back() {
                if back.seq <= seq {
                    break;
                }
                let victim = t.rob.pop_back().expect("back exists");
                if let Some(rd) = victim.inst.def() {
                    if let (Some(new), Some(old)) = (victim.dest_new, victim.dest_old) {
                        t.rat[rd.index()] = old;
                        self.prf.free(new);
                    }
                }
                if victim.inst.is_store() && t.store_queue.back() == Some(&victim.seq) {
                    t.store_queue.pop_back();
                }
                self.counters.squashed.inc();
            }
            let live = t.executing.partition_point(|&(s, _)| s <= seq);
            t.executing.truncate(live);
            t.next_seq = seq + 1;
            t.fetch_buffer.clear();
            t.decode_pipe.clear();
            t.validated = [false; Reg::COUNT];
            // Redirect fetch down the architecturally correct path.
            t.fetch_pc = e.actual_next_pc;
            t.fetch_stall_until = cycle + 1;
            t.halted_fetch = false;
            // Repair speculative front-end state to just-after `e`: the
            // RAS rewinds to its state before `e` was fetched, then a
            // call re-pushes. A return is not popped again, so after a
            // mispredicted return its stale address stays on top (a
            // known model quirk, kept for report compatibility).
            t.dir.restore(e.dir_snapshot, e.actual_taken);
            t.ras.restore(e.ras_ckpt);
            if matches!(
                e.inst.branch_kind(),
                Some(BranchKind::Call | BranchKind::IndCall)
            ) {
                t.ras.push(e.pc + INST_BYTES);
            }
            // Restore the value-reuse alignment cursor.
            if e.inst.is_cond_branch() {
                t.last_branch_tag = e.branch_tag;
                t.cursor_offset = 0;
                t.next_local_tag = e.branch_tag + 1;
            } else {
                t.last_branch_tag = e.branch_tag;
                t.cursor_offset = e.branch_offset;
                t.next_local_tag = e.branch_tag + 1;
            }
        }
        self.iq.retain(|q| q.thread != tid || q.seq <= seq);
    }

    /// Squashes the entire pipeline state of a thread (reboot).
    fn squash_all(&mut self, tid: usize) {
        let t = &mut self.threads[tid];
        while let Some(e) = t.rob.pop_back() {
            if let Some(rd) = e.inst.def() {
                if let (Some(new), Some(old)) = (e.dest_new, e.dest_old) {
                    t.rat[rd.index()] = old;
                    self.prf.free(new);
                }
            }
            self.counters.squashed.inc();
        }
        t.rob_head_seq = t.next_seq;
        t.executing.clear();
        t.store_queue.clear();
        t.fetch_buffer.clear();
        t.decode_pipe.clear();
        t.ras.reset();
        t.validated = [false; Reg::COUNT];
        t.next_local_tag = 1;
        self.iq.retain(|q| q.thread != tid);
    }

    // ------------------------------------------------------------------
    // Issue / execute
    // ------------------------------------------------------------------

    fn fu_available(&self, class: FuClass) -> bool {
        match class {
            FuClass::IntAlu | FuClass::Branch | FuClass::IntMul => {
                self.int_used_this_cycle < self.cfg.int_units
            }
            FuClass::IntDiv => {
                self.int_used_this_cycle < self.cfg.int_units
                    && self.int_busy_until.iter().any(|&b| b <= self.cycle)
            }
            FuClass::Mem => self.mem_used_this_cycle < self.cfg.mem_units,
            FuClass::Fp => self.fp_used_this_cycle < self.cfg.fp_units,
            FuClass::FpDiv => {
                self.fp_used_this_cycle < self.cfg.fp_units
                    && self.fp_busy_until.iter().any(|&b| b <= self.cycle)
            }
        }
    }

    fn fu_consume(&mut self, class: FuClass, done: u64) {
        let cycle = self.cycle;
        match class {
            FuClass::IntAlu | FuClass::Branch | FuClass::IntMul => {
                self.int_used_this_cycle += 1;
            }
            FuClass::IntDiv => {
                self.int_used_this_cycle += 1;
                if let Some(b) = self.int_busy_until.iter_mut().find(|b| **b <= cycle) {
                    *b = done;
                }
            }
            FuClass::Mem => self.mem_used_this_cycle += 1,
            FuClass::Fp => self.fp_used_this_cycle += 1,
            FuClass::FpDiv => {
                self.fp_used_this_cycle += 1;
                if let Some(b) = self.fp_busy_until.iter_mut().find(|b| **b <= cycle) {
                    *b = done;
                }
            }
        }
    }

    fn stage_issue(&mut self) {
        // Single age-ordered pass with in-place compaction: issued
        // entries are dropped by not copying them forward, so one cycle
        // costs O(iq) instead of O(iq²) `Vec::remove` shifts. Entries
        // past the issue-width cutoff are copied through untouched.
        //
        // Every queued entry is a live, dispatched ROB entry (squashes
        // purge the queue with the ROB, and issue removes the entry), so
        // wakeup reads only the queue and the PRF.
        let mut issued = 0usize;
        let mut kept = 0usize;
        for i in 0..self.iq.len() {
            let q = self.iq[i];
            if issued < self.cfg.issue_width && self.wakes(&q) && self.try_issue(&q) {
                issued += 1;
                continue;
            }
            self.iq[kept] = q;
            kept += 1;
        }
        self.iq.truncate(kept);
    }

    /// Wakeup and select for one queued entry: dispatched before this
    /// cycle, every source ready, a functional unit free.
    fn wakes(&self, q: &IqEntry) -> bool {
        let cycle = self.cycle;
        q.dispatch_cycle < cycle
            && q.src.iter().flatten().all(|&p| self.prf.is_ready(p, cycle))
            && self.fu_available(q.class)
    }

    /// Issues a woken entry unless it is a load held back by an older
    /// store with an unresolved address; returns whether it issued.
    fn try_issue(&mut self, q: &IqEntry) -> bool {
        let cycle = self.cycle;
        let (tid, seq) = (q.thread, q.seq);
        let idx = (seq - self.threads[tid].rob_head_seq) as usize;
        let (pc, inst, dest_new, vpred) = {
            let e = &self.threads[tid].rob[idx];
            debug_assert!(e.seq == seq && e.stage == Stage::Dispatched);
            (e.pc, e.inst, e.dest_new, e.vpred)
        };
        let prefetch_only = q.is_load
            && self.threads[tid]
                .filter
                .as_ref()
                .map(|f| f.borrow_mut().prefetch_only(pc))
                .unwrap_or(false);
        if q.is_load && !prefetch_only && !self.load_may_issue(tid, seq) {
            return false;
        }
        let a = q.src[0].map(|p| self.prf.read(p)).unwrap_or(0);
        let b = q.src[1].map(|p| self.prf.read(p)).unwrap_or(0);
        self.counters
            .rf_reads
            .add(q.src.iter().flatten().count() as u64);
        self.counters.executed.inc();
        let seq_pc = pc + INST_BYTES;
        let mut result: Option<u64> = None;
        let mut actual_taken: Option<bool> = None;
        let mut actual_next = seq_pc;
        let mut exec_done = cycle + inst.latency();
        let mut addr = None;
        let mut store_val = None;
        let mut flags = (false, false, false);
        match inst.op {
            Op::Ld => {
                let a_addr = mem_addr(&inst, a);
                addr = Some(a_addr);
                let (ready, value, fl) = self.execute_load(tid, seq, a_addr, pc);
                // Prefetch payloads (skeleton loads with dead results)
                // touch the memory system but never stall the pipeline.
                exec_done = if prefetch_only { cycle + 3 } else { ready };
                result = Some(value);
                flags = fl;
            }
            Op::St => {
                let a_addr = mem_addr(&inst, a);
                addr = Some(a_addr);
                store_val = Some(b);
                exec_done = cycle + 1;
            }
            Op::Beq | Op::Bne | Op::Blt | Op::Bge | Op::Bltu | Op::Bgeu => {
                let mut taken = eval_cond(inst.op, a, b);
                if let Some(ov) = &self.threads[tid].branch_override {
                    if let Some(forced) = ov.borrow().force(pc) {
                        taken = forced;
                    }
                }
                actual_taken = Some(taken);
                actual_next = if taken { inst.imm as u64 } else { seq_pc };
            }
            Op::Jal => {
                actual_next = inst.imm as u64;
                if inst.def().is_some() {
                    result = Some(seq_pc);
                }
            }
            Op::Jalr => {
                actual_next = a.wrapping_add(inst.imm as u64) & !3;
                if inst.def().is_some() {
                    result = Some(seq_pc);
                }
            }
            Op::Nop | Op::Halt => {}
            _ => {
                result = Some(eval_alu(inst.op, a, b, inst.imm));
            }
        }
        if q.is_load {
            self.counters.loads.inc();
        } else if inst.is_store() {
            self.counters.stores.inc();
        }
        self.fu_consume(q.class, exec_done);
        // Write the PRF early; readiness gates visibility. For correctly
        // value-predicted instructions, keep the early availability the
        // prediction established (same value, earlier ready).
        if let (Some(p), Some(v)) = (dest_new, result) {
            match vpred {
                Some(pv) if pv == v => {} // prediction already in place
                _ => {
                    self.prf.write(p, v, exec_done);
                    self.counters.rf_writes.inc();
                }
            }
        }
        let t = &mut self.threads[tid];
        let at = t.executing.partition_point(|&(s, _)| s < seq);
        t.executing.insert(at, (seq, exec_done));
        let en = &mut t.rob[idx];
        en.stage = Stage::Issued;
        en.exec_done = exec_done;
        en.result = result;
        en.actual_taken = actual_taken;
        en.actual_next_pc = actual_next;
        en.addr = addr;
        en.store_val = store_val;
        en.l1_miss = flags.0;
        en.l2_miss = flags.1;
        en.tlb_miss = flags.2;
        true
    }

    fn load_may_issue(&self, tid: usize, seq: u64) -> bool {
        let t = &self.threads[tid];
        for &sseq in &t.store_queue {
            if sseq >= seq {
                break;
            }
            let idx = (sseq - t.rob_head_seq) as usize;
            if t.rob[idx].addr.is_none() {
                return false; // unresolved older store address
            }
        }
        true
    }

    /// Executes a load: forwards from the store queue when possible,
    /// otherwise accesses the data cache. Returns `(ready, value,
    /// (l1_miss, l2_miss, tlb_miss))`.
    fn execute_load(
        &mut self,
        tid: usize,
        seq: u64,
        addr: u64,
        pc: u64,
    ) -> (u64, u64, (bool, bool, bool)) {
        let cycle = self.cycle;
        let mut forwarded: Option<u64> = None;
        {
            let t = &self.threads[tid];
            for &sseq in t.store_queue.iter().rev() {
                if sseq >= seq {
                    continue;
                }
                let idx = (sseq - t.rob_head_seq) as usize;
                let se = &t.rob[idx];
                if se.addr == Some(addr) {
                    forwarded = se.store_val;
                    break;
                }
            }
        }
        if let Some(v) = forwarded {
            return (cycle + 2, v, (false, false, false));
        }
        let value = self.threads[tid].mem.borrow_mut().load(addr);
        let out = self.mem.load(addr, pc, cycle);
        (
            out.ready.max(cycle + 1),
            value,
            (!out.l1_hit, !out.l2_hit, out.tlb_penalty > 0),
        )
    }

    // ------------------------------------------------------------------
    // Rename / dispatch
    // ------------------------------------------------------------------

    fn stage_rename(&mut self) {
        let nthreads = self.threads.len();
        if nthreads == 0 {
            return;
        }
        // Drain the fetch buffer into the decode pipe (the decode stage
        // proper), which imposes the front-end depth without consuming
        // fetch-buffer capacity.
        let cycle = self.cycle;
        let pipe_cap = self.cfg.decode_width * self.cfg.frontend_depth as usize + 1;
        let mut drain_budget = self.cfg.decode_width;
        for k in 0..nthreads {
            let tid = (cycle as usize + k) % nthreads;
            let depth = self.cfg.frontend_depth;
            let t = &mut self.threads[tid];
            while drain_budget > 0 && t.decode_pipe.len() < pipe_cap && !t.fetch_buffer.is_empty() {
                let mut f = t.fetch_buffer.pop_front().expect("nonempty");
                f.decode_ready = cycle + depth;
                t.decode_pipe.push_back(f);
                drain_budget -= 1;
            }
        }
        // Shared backend capacity is computed once per cycle and tracked
        // as the loop consumes it, instead of re-derived per renamed
        // instruction.
        let mut budget = self.cfg.decode_width;
        let mut iq_free = self.cfg.iq_size.saturating_sub(self.iq.len());
        let mut prf_free = self.prf.available();
        let mut absorbed = 0u64;
        for k in 0..nthreads {
            let tid = (self.cycle as usize + k) % nthreads;
            let mut renamed = 0u64;
            while budget > 0 && self.rename_one(tid, &mut iq_free, &mut prf_free) {
                budget -= 1;
                renamed += 1;
            }
            self.threads[tid].stats.renamed_per_cycle.record(renamed);
            absorbed += renamed;
        }
        if budget > 0 && self.backend_has_room() && self.threads.iter().any(|t| !t.halted) {
            self.counters.fetch_bubble_insts.add(budget as u64);
        }
        self.counters.decoded.add(absorbed);
    }

    fn backend_has_room(&self) -> bool {
        self.threads.iter().any(|t| t.rob.len() < self.cfg.rob_size)
            && self.iq.len() < self.cfg.iq_size
    }

    fn rename_one(&mut self, tid: usize, iq_free: &mut usize, prf_free: &mut usize) -> bool {
        let cycle = self.cycle;
        if *iq_free == 0 || *prf_free == 0 {
            return false;
        }
        {
            let t = &self.threads[tid];
            if t.rob.len() >= self.cfg.rob_size {
                return false;
            }
            let Some(f) = t.decode_pipe.front() else {
                return false;
            };
            if f.decode_ready > cycle {
                return false;
            }
            if f.inst.is_store() && t.store_queue.len() >= self.cfg.lsq_size {
                return false;
            }
        }
        let f = self.threads[tid]
            .decode_pipe
            .pop_front()
            .expect("presence checked");
        // Value-prediction lookup (main-thread value reuse).
        let mut vpred = None;
        if let Some(src) = &self.threads[tid].value_source {
            vpred = src
                .borrow_mut()
                .predict(f.pc, f.branch_tag, f.branch_offset);
        }
        let t = &mut self.threads[tid];
        let seq = t.next_seq;
        t.next_seq += 1;
        let src = [
            f.inst.uses()[0].map(|r| t.rat[r.index()]),
            f.inst.uses()[1].map(|r| t.rat[r.index()]),
        ];
        let (dest_new, dest_old) = match f.inst.def() {
            Some(rd) => {
                let p = self.prf.alloc().expect("availability checked");
                *prf_free -= 1;
                let old = t.rat[rd.index()];
                t.rat[rd.index()] = p;
                (Some(p), Some(old))
            }
            None => (None, None),
        };
        // Validation-skip scoreboard (paper Fig 4): an ALU instruction
        // whose sources are all validated-predicted values and which
        // itself has a value prediction need not execute for validation.
        let mut skip_validation = false;
        if let Some(v) = vpred {
            self.counters.value_predictions.inc();
            let alu_like = !f.inst.is_mem() && !f.inst.is_branch();
            let n_sources = f.inst.uses().iter().flatten().count();
            let all_sources_validated = f
                .inst
                .uses()
                .iter()
                .flatten()
                .all(|r| t.validated[r.index()]);
            if alu_like && n_sources > 0 && all_sources_validated {
                skip_validation = true;
                self.counters.value_validation_skips.inc();
            }
            if let Some(p) = dest_new {
                self.prf.write(p, v, cycle + 1);
                self.counters.rf_writes.inc();
            }
        }
        if let Some(rd) = f.inst.def() {
            t.validated[rd.index()] = vpred.is_some();
        }
        let is_store = f.inst.is_store();
        let entry = RobEntry {
            seq,
            pc: f.pc,
            inst: f.inst,
            stage: if skip_validation {
                Stage::Done
            } else {
                Stage::Dispatched
            },
            exec_done: if skip_validation { cycle + 1 } else { u64::MAX },
            dest_new,
            dest_old,
            src,
            pred_next_pc: f.pred_next_pc,
            actual_taken: None,
            actual_next_pc: f.pc + INST_BYTES,
            dir_snapshot: f.dir_snapshot,
            ras_ckpt: f.ras_ckpt,
            branch_tag: f.branch_tag,
            branch_offset: f.branch_offset,
            addr: None,
            store_val: None,
            l1_miss: false,
            l2_miss: false,
            tlb_miss: false,
            vpred: if skip_validation { None } else { vpred },
            result: vpred,
            dispatch_cycle: cycle,
        };
        t.rob.push_back(entry);
        if is_store {
            t.store_queue.push_back(seq);
        }
        self.counters.rob_writes.inc();
        if !skip_validation {
            self.iq.push(IqEntry {
                thread: tid,
                seq,
                dispatch_cycle: cycle,
                src,
                class: f.inst.fu_class(),
                is_load: f.inst.is_load(),
            });
            *iq_free -= 1;
            self.counters.iq_writes.inc();
        }
        true
    }

    // ------------------------------------------------------------------
    // Fetch
    // ------------------------------------------------------------------

    fn stage_fetch(&mut self) {
        for tid in 0..self.threads.len() {
            self.fetch_thread(tid);
        }
    }

    fn fetch_thread(&mut self, tid: usize) {
        let cycle = self.cycle;
        if self.threads[tid].halted
            || self.threads[tid].halted_fetch
            || self.threads[tid].fetch_stall_until > cycle
        {
            return;
        }
        let mut pushed = 0usize;
        let mut slots = 0usize;
        let max_slots = self.cfg.fetch_width * 2;
        let mut current_line = u64::MAX;
        while pushed < self.cfg.fetch_width && slots < max_slots {
            if self.threads[tid].fetch_buffer.len() >= self.cfg.fetch_buffer {
                break;
            }
            let pc = self.threads[tid].fetch_pc;
            // Decoded once here; consumed after the icache probe below.
            let fetched = self.program.fetch(pc);
            // Direction starvation (a BOQ-fed thread with an empty BOQ at
            // a conditional branch) stalls fetch before any cache or
            // predictor state is touched: the stalled cycles are then
            // perfectly quiescent, which is what lets `next_event_at`
            // prove the thread skippable while it waits for the queue.
            if let Some(inst) = &fetched {
                if inst.is_cond_branch() && !self.threads[tid].dir.available() {
                    return;
                }
            }
            let line = pc & !63;
            if line != current_line {
                let (ready, hit) = self.mem.inst_fetch(pc, cycle);
                self.counters.icache_lines.inc();
                if self.cfg.fetch_masks && !hit {
                    // Skeleton masks (2 bits/inst) live elsewhere in the
                    // binary: one mask line covers 16 instruction lines.
                    // Fetch it alongside the instruction line on a miss.
                    let mask_addr = MASK_BASE + (line >> 4);
                    let (mready, _mhit) = self.mem.inst_fetch(mask_addr & !63, cycle);
                    let t = &mut self.threads[tid];
                    t.fetch_stall_until = t.fetch_stall_until.max(mready);
                }
                if !hit {
                    let t = &mut self.threads[tid];
                    t.fetch_stall_until = t.fetch_stall_until.max(ready);
                    break;
                }
                current_line = line;
            }
            let Some(inst) = fetched else {
                // Ran off the binary (deep wrong path): wait for a squash.
                self.threads[tid].halted_fetch = true;
                return;
            };
            slots += 1;
            // Skeleton masking: deleted instructions consume a fetch slot
            // but never enter the fetch buffer (paper §III-A iii).
            let mask_deleted = match &self.threads[tid].filter {
                Some(filter) => !filter.borrow_mut().keep(pc),
                None => false,
            };
            if mask_deleted {
                self.counters.mask_deleted.inc();
                self.threads[tid].fetch_pc = pc + INST_BYTES;
                continue;
            }
            let mut next_pc = pc + INST_BYTES;
            let mut is_taken_branch = false;
            let kind = inst.branch_kind();
            if matches!(kind, Some(BranchKind::Cond)) {
                self.counters.bpred_lookups.inc();
            }
            let t = &mut self.threads[tid];
            let dir_snapshot = t.dir.snapshot();
            let ras_ckpt = t.ras.checkpoint();
            match kind {
                Some(BranchKind::Cond) => match t.dir.predict(pc) {
                    Some(taken) => {
                        if taken {
                            next_pc = inst.imm as u64;
                            is_taken_branch = true;
                        }
                    }
                    None => {
                        // BOQ empty: stall fetch this cycle.
                        return;
                    }
                },
                Some(BranchKind::Jump) => {
                    next_pc = inst.imm as u64;
                    is_taken_branch = true;
                }
                Some(BranchKind::Call) => {
                    next_pc = inst.imm as u64;
                    t.ras.push(pc + INST_BYTES);
                    is_taken_branch = true;
                }
                Some(BranchKind::Ret) => {
                    next_pc = t
                        .ras
                        .pop()
                        .or_else(|| t.btb.predict(pc))
                        .unwrap_or(pc + INST_BYTES);
                    is_taken_branch = true;
                }
                Some(BranchKind::IndCall) | Some(BranchKind::IndJump) => {
                    next_pc = t
                        .dir
                        .indirect_target(pc)
                        .or_else(|| t.btb.predict(pc))
                        .unwrap_or(pc + INST_BYTES);
                    if matches!(kind, Some(BranchKind::IndCall)) {
                        t.ras.push(pc + INST_BYTES);
                    }
                    is_taken_branch = true;
                }
                None => {}
            }
            let (branch_tag, branch_offset);
            if inst.is_cond_branch() {
                let tag = t.dir.last_tag().unwrap_or_else(|| {
                    let g = t.next_local_tag;
                    t.next_local_tag += 1;
                    g
                });
                branch_tag = tag;
                branch_offset = 0;
                t.last_branch_tag = tag;
                t.cursor_offset = 0;
            } else {
                t.cursor_offset = t.cursor_offset.saturating_add(1);
                branch_tag = t.last_branch_tag;
                branch_offset = t.cursor_offset;
            }
            t.fetch_buffer.push_back(FetchedInst {
                pc,
                inst,
                pred_next_pc: next_pc,
                dir_snapshot,
                ras_ckpt,
                decode_ready: 0, // assigned when drained into the decode pipe
                branch_tag,
                branch_offset,
            });
            t.fetch_pc = next_pc;
            pushed += 1;
            self.counters.fetched.inc();
            if inst.op == Op::Halt {
                t.halted_fetch = true;
                break;
            }
            if is_taken_branch {
                break; // one taken branch per cycle
            }
        }
        self.threads[tid]
            .stats
            .fetched_per_cycle
            .record(pushed as u64);
    }
}
