//! In-memory span recorder for the traced run.
//!
//! Every span lands in an in-memory list that [`write_jsonl`] drains at
//! the end of the campaign. Spans nest per thread: a span's parent is
//! the innermost open span on its own thread or, for the first span a
//! pool worker opens, the pool phase the main thread has open
//! ([`phase`]).

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
/// Id of the pool phase the main thread has open (0 = none).
static OPEN_PHASE: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// One finished span.
struct Span {
    id: u64,
    parent: u64,
    name: String,
    key: String,
    start_ns: u64,
    end_ns: u64,
    /// Worker threads of a pool phase (1 for every other span).
    threads: usize,
    /// Simulated cycles covered (detailed-simulation spans only).
    cycles: u64,
    /// Committed instructions covered, MT + LT.
    insts: u64,
}

/// An open span; it records itself when dropped.
pub struct Guard {
    id: u64,
    parent: u64,
    name: String,
    key: String,
    start: Instant,
    threads: usize,
    cycles: u64,
    insts: u64,
    phase: bool,
}

/// Opens a span named `name` (`layer.what`) carrying the cell key `key`.
pub fn span(name: &str, key: &str) -> Guard {
    open(name, key, 1, false)
}

/// Opens a pool phase on the main thread: the spans its `threads`
/// workers open at top level become its children.
pub fn phase(name: &str, threads: usize) -> Guard {
    open(name, "", threads.max(1), true)
}

fn open(name: &str, key: &str, threads: usize, phase: bool) -> Guard {
    EPOCH.get_or_init(Instant::now);
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s
            .last()
            .copied()
            .unwrap_or_else(|| OPEN_PHASE.load(Ordering::SeqCst));
        s.push(id);
        parent
    });
    if phase {
        OPEN_PHASE.store(id, Ordering::SeqCst);
    }
    Guard {
        id,
        parent,
        name: name.to_string(),
        key: key.to_string(),
        start: Instant::now(),
        threads,
        cycles: 0,
        insts: 0,
        phase,
    }
}

impl Guard {
    /// Attaches the simulated work this span covered.
    pub fn work(&mut self, cycles: u64, insts: u64) {
        self.cycles = cycles;
        self.insts = insts;
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end = Instant::now();
        STACK.with(|s| s.borrow_mut().pop());
        if self.phase {
            OPEN_PHASE.store(0, Ordering::SeqCst);
        }
        let epoch = *EPOCH.get().expect("the first span starts the epoch");
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            key: std::mem::take(&mut self.key),
            start_ns: self.start.duration_since(epoch).as_nanos() as u64,
            end_ns: end.duration_since(epoch).as_nanos() as u64,
            threads: self.threads,
            cycles: self.cycles,
            insts: self.insts,
        };
        SPANS
            .lock()
            .expect("span list poisoned by a panicking recorder")
            .push(span);
    }
}

/// Writes every recorded span as one JSON object per line.
pub fn write_jsonl(path: &Path) -> std::io::Result<()> {
    let spans = SPANS
        .lock()
        .expect("span list poisoned by a panicking recorder");
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans.iter() {
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"key\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}, \"threads\": {}, \"cycles\": {}, \"insts\": {}}}",
            s.id,
            s.parent,
            s.name,
            r3dla_bench::json_escape(&s.key),
            s.start_ns,
            s.end_ns,
            s.threads,
            s.cycles,
            s.insts
        )?;
    }
    out.flush()
}
