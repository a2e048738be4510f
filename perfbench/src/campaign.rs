//! The four benchmark campaigns for the traced run, composed from the
//! same public pieces the `runner`, `r3dla-dse` and `mix` entry points
//! call, with a span around each call into a layer.
//!
//! Each campaign writes the report its entry point writes, byte for
//! byte: `run.py` fails the benchmark when the traced report differs
//! from the entry point's, and the tests below hold the composition to
//! the library's own campaign functions. What the per-layer metrics
//! need is tallied into a [`Record`].

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use r3dla_bench::runner::{parallel_map, scale_name, CellKind, ConfigSpec, GridPlan, GridSpec};
use r3dla_bench::supervise::CellStatus;
use r3dla_bench::{Prepared, SampledPlan, Supervisor, WARMUP, WINDOW};
use r3dla_core::{
    event_kernel_default, generate_skeletons, profile_functional, profile_timing, Cluster,
    Dataflow, DlaConfig, MeasureTarget, SingleCoreSim, SkeletonOptions, SysSnapshot, WindowReport,
};
use r3dla_dse::{DsePlan, DseSpec, ResultCache, SearchSpace, Strategy};
use r3dla_mem::{MemConfig, SharedLlc};
use r3dla_sample::{apply_warmup, plan_intervals, IntervalCheckpoint, SampleSpec, WarmTarget};
use r3dla_workloads::{by_name, suite, Scale, Workload};

use crate::trace;

/// `runner --sample` spec of the sampled campaign.
pub const SAMPLED_SPEC: &str = "8:10000:functional";
/// `mix`'s default pairs (its `DEFAULT_PAIRS`).
pub const MIX_PAIRS: [(&str, &str); 2] = [("libq_like", "mcf_like"), ("xalan_like", "cg_like")];
/// `r3dla-dse` defaults: sample spec, space, strategy and budget.
pub const DSE_SAMPLE: &str = "3:3000:functional";
const DSE_BUDGET: usize = 12;

/// Simulated counters summed over the windows of one configuration.
#[derive(Default)]
pub struct ModelSums {
    mt: u64,
    lt: u64,
    l1d_misses: u64,
    l1d_accesses: u64,
    dram: u64,
    reboots: u64,
}

impl ModelSums {
    fn add(&mut self, r: &WindowReport) {
        self.mt += r.mt_committed;
        self.lt += r.lt_committed;
        self.l1d_misses += r.mt_l1d_misses;
        self.l1d_accesses += r.mt_l1d_accesses;
        self.dram += r.dram_traffic;
        self.reboots += r.reboots;
    }
}

/// What one campaign run measured, printed as one JSON line.
#[derive(Default)]
pub struct Record {
    /// Cells attempted.
    pub cells: u64,
    /// Cells that failed or committed nothing.
    pub failed: u64,
    /// Cells whose window a program halt cut short.
    pub truncated: u64,
    /// Supervisor retries.
    pub retries: u64,
    /// Per-kernel `dla` / `r3` speedups over `bl` and their CI95
    /// half-widths (sampled campaigns only).
    pub dla_speedups: Vec<f64>,
    /// See [`Record::dla_speedups`].
    pub r3_speedups: Vec<f64>,
    /// See [`Record::dla_speedups`].
    pub speedup_ci95: Vec<f64>,
    /// Window counters per configuration label.
    pub model: BTreeMap<String, ModelSums>,
    /// Interval checkpoints planned.
    pub checkpoints: u64,
    /// Result-cache hits and misses.
    pub cache_hits: u64,
    /// See [`Record::cache_hits`].
    pub cache_misses: u64,
    /// Cluster kernel events dispatched and stale events dropped.
    pub kernel_dispatched: u64,
    /// See [`Record::kernel_dispatched`].
    pub kernel_stale_dropped: u64,
}

impl Record {
    fn tally(&mut self, ok: bool, report: &WindowReport, window: u64, label: &str) {
        self.cells += 1;
        if !ok || report.mt_committed == 0 {
            self.failed += 1;
            return;
        }
        if report.mt_committed < window {
            self.truncated += 1;
        }
        if matches!(label, "bl" | "dla" | "r3") {
            self.model.entry(label.to_string()).or_default().add(report);
        }
    }

    /// The record as one JSON object (no trailing newline).
    pub fn to_json(&self, campaign: &str) -> String {
        let list = |v: &[f64]| {
            let items: Vec<String> = v.iter().map(|x| format!("{x:.9}")).collect();
            format!("[{}]", items.join(", "))
        };
        let model: Vec<String> = self
            .model
            .iter()
            .map(|(label, m)| {
                format!(
                    "\"{label}\": {{\"mt\": {}, \"lt\": {}, \"l1d_misses\": {}, \
                     \"l1d_accesses\": {}, \"dram\": {}, \"reboots\": {}}}",
                    m.mt, m.lt, m.l1d_misses, m.l1d_accesses, m.dram, m.reboots
                )
            })
            .collect();
        format!(
            "{{\"campaign\": \"{campaign}\", \"cells\": {}, \"failed\": {}, \"truncated\": {}, \
             \"retries\": {}, \"dla_speedups\": {}, \"r3_speedups\": {}, \"speedup_ci95\": {}, \
             \"model\": {{{}}}, \"checkpoints\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \
             \"kernel_dispatched\": {}, \"kernel_stale_dropped\": {}}}",
            self.cells,
            self.failed,
            self.truncated,
            self.retries,
            list(&self.dla_speedups),
            list(&self.r3_speedups),
            list(&self.speedup_ci95),
            model.join(", "),
            self.checkpoints,
            self.cache_hits,
            self.cache_misses,
            self.kernel_dispatched,
            self.kernel_stale_dropped
        )
    }
}

fn insts(s: &SysSnapshot) -> u64 {
    s.mt_committed + s.lt_committed
}

/// `measure_window` with a span around each `run_insts` call: warm up
/// over `warm` instructions, then measure a window of `win`.
fn detail_measure<S: MeasureTarget + ?Sized>(
    sys: &mut S,
    label: &str,
    key: &str,
    warm: u64,
    win: u64,
) -> WindowReport {
    let s0 = sys.counters_snapshot();
    let mut g = trace::span(&format!("detail.{label}.warm"), key);
    sys.run_insts(warm, warm * 60 + 500_000);
    let s1 = sys.counters_snapshot();
    g.work(s1.cycles - s0.cycles, insts(&s1) - insts(&s0));
    drop(g);
    let mut g = trace::span(&format!("detail.{label}.window"), key);
    sys.run_insts(win, win * 60 + 500_000);
    let s2 = sys.counters_snapshot();
    g.work(s2.cycles - s1.cycles, insts(&s2) - insts(&s1));
    drop(g);
    sys.window_report(&s1)
}

/// Prepares every workload on the pool.
fn prepare(workloads: &[Workload], scale: Scale, threads: usize) -> Vec<Arc<Prepared>> {
    let _g = trace::phase("bench.prepare", threads.min(workloads.len()));
    parallel_map(workloads, threads, |w| {
        let _s = trace::span("core.prepare", w.name);
        Arc::new(Prepared::new(w, scale))
    })
}

/// Plans every workload's sampling intervals on the pool.
fn plan(
    prepared: &[Arc<Prepared>],
    sample: &SampleSpec,
    threads: usize,
) -> Vec<Arc<Vec<IntervalCheckpoint>>> {
    let _g = trace::phase("bench.plan", threads.min(prepared.len()));
    parallel_map(prepared, threads, |p| {
        let _s = trace::span("sample.plan", &p.name);
        Arc::new(plan_intervals(&p.program, sample))
    })
}

fn write_report(out: &Path, json: &str) {
    std::fs::write(out, json)
        .unwrap_or_else(|e| panic!("cannot write report {}: {e}", out.display()));
}

fn ipc_of<'a>(rows: impl Iterator<Item = (&'a str, f64)>, label: &str) -> Option<f64> {
    rows.into_iter().find(|(l, _)| *l == label).map(|(_, v)| v)
}

/// The `runner` grid: `spec.workloads` × `spec.configs`, full windows.
pub fn grid(spec: &GridSpec, threads: usize, out: &Path, rec: &mut Record) -> Vec<Arc<Prepared>> {
    let sup = Supervisor::from_env();
    let prepared = prepare(&spec.workloads, spec.scale, threads);
    let plan = GridPlan::from_prepared(spec, prepared.clone());
    let cells = plan.cells();
    let phase = trace::phase("bench.measure", threads.min(cells.len()));
    let outcomes = sup.map(
        &cells,
        threads,
        |&c| plan.cell_key(c),
        |&c| {
            let key = plan.cell_key(c);
            let _cell = trace::span("bench.cell", &key);
            let t0 = Instant::now();
            let p = &prepared[c.workload];
            let cfg = &spec.configs[c.config];
            let report = match &cfg.kind {
                CellKind::Dla(dla) => {
                    let mut sys = {
                        let _a = trace::span("core.assemble", &key);
                        let mut sys = p.dla_system(dla.clone());
                        sys.set_fast_forward(spec.fast_forward);
                        sys.set_event_kernel(event_kernel_default());
                        sys
                    };
                    detail_measure(&mut sys, &cfg.label, &key, spec.warm, spec.win)
                }
                CellKind::Single { core, l1pf, l2pf } => {
                    let mut sim_core = {
                        let _a = trace::span("core.assemble", &key);
                        let mut s = SingleCoreSim::build(
                            p.built(),
                            core.clone(),
                            MemConfig::paper(),
                            *l1pf,
                            *l2pf,
                        );
                        s.set_fast_forward(spec.fast_forward);
                        s.set_event_kernel(event_kernel_default());
                        s
                    };
                    detail_measure(&mut sim_core, &cfg.label, &key, spec.warm, spec.win)
                }
            };
            Ok((report, t0.elapsed().as_millis() as u64))
        },
    );
    drop(phase);
    let result = {
        let _g = trace::span("bench.report", "");
        let result = plan.assemble(&outcomes);
        write_report(out, &result.to_json(false));
        result
    };
    rec.retries = outcomes
        .iter()
        .map(|o| u64::from(o.attempts.saturating_sub(1)))
        .sum();
    for c in &result.cells {
        rec.tally(c.status == CellStatus::Ok, &c.report, spec.win, &c.config);
    }
    for row in result.cells.chunks(spec.configs.len()) {
        let ipcs = || row.iter().map(|c| (c.config.as_str(), c.report.mt_ipc));
        let Some(bl) = ipc_of(ipcs(), "bl") else {
            continue;
        };
        if let Some(dla) = ipc_of(ipcs(), "dla") {
            rec.dla_speedups.push(dla / bl);
        }
        if let Some(r3) = ipc_of(ipcs(), "r3") {
            rec.r3_speedups.push(r3 / bl);
        }
    }
    prepared
}

/// Restore, warm and measure one sampled interval cell.
fn sampled_measure<S: MeasureTarget + WarmTarget>(
    sys: &mut S,
    label: &str,
    key: &str,
    sample: &SampleSpec,
    iv: &IntervalCheckpoint,
) -> WindowReport {
    let settle = {
        let _g = trace::span("sample.warm", key);
        apply_warmup(sys, sample, iv)
    };
    let _g = trace::span("sample.window", key);
    detail_measure(sys, label, key, settle, sample.detailed)
}

/// The `runner --sample` grid: every (workload, config, interval) cell
/// restored from its checkpoint.
pub fn sampled(
    spec: &GridSpec,
    sample: &SampleSpec,
    threads: usize,
    out: &Path,
    rec: &mut Record,
) -> Vec<Arc<Prepared>> {
    let sup = Supervisor::from_env();
    let prepared = prepare(&spec.workloads, spec.scale, threads);
    let plans = plan(&prepared, sample, threads);
    rec.checkpoints = plans.iter().map(|p| p.len() as u64).sum();
    let plan = SampledPlan::from_parts(spec, sample, prepared.clone(), plans.clone());
    let cells = plan.cells();
    let phase = trace::phase("bench.measure", threads.min(cells.len()));
    let outcomes = sup.map(
        &cells,
        threads,
        |&c| plan.cell_key(c),
        |&c| {
            let key = plan.cell_key(c);
            let _cell = trace::span("bench.cell", &key);
            let t0 = Instant::now();
            let p = &prepared[c.workload];
            let cfg = &spec.configs[c.config];
            let iv = &plans[c.workload][c.interval];
            let report = match &cfg.kind {
                CellKind::Dla(dla) => {
                    let mut sys = {
                        let _r = trace::span("sample.restore", &key);
                        let mut sys = p.dla_system_from_checkpoint(dla.clone(), &iv.ckpt);
                        sys.set_fast_forward(spec.fast_forward);
                        sys
                    };
                    sampled_measure(&mut sys, &cfg.label, &key, sample, iv)
                }
                CellKind::Single { core, l1pf, l2pf } => {
                    let mut sim_core = {
                        let _r = trace::span("sample.restore", &key);
                        let mut s = SingleCoreSim::restore_from_checkpoint(
                            p.built(),
                            core.clone(),
                            MemConfig::paper(),
                            *l1pf,
                            *l2pf,
                            &iv.ckpt,
                        );
                        s.set_fast_forward(spec.fast_forward);
                        s
                    };
                    sampled_measure(&mut sim_core, &cfg.label, &key, sample, iv)
                }
            };
            Ok((report, t0.elapsed().as_millis() as u64))
        },
    );
    drop(phase);
    let result = {
        let _g = trace::span("bench.report", "");
        let result = plan.assemble(&outcomes);
        write_report(out, &result.to_json(false));
        result
    };
    rec.retries = outcomes
        .iter()
        .map(|o| u64::from(o.attempts.saturating_sub(1)))
        .sum();
    for c in &result.cells {
        for (r, &ok) in c.reports.iter().zip(&c.interval_ok) {
            rec.tally(ok, r, sample.detailed, &c.config);
        }
        match (c.config.as_str(), &c.speedup) {
            ("dla", Some(s)) => {
                rec.dla_speedups.push(s.mean);
                rec.speedup_ci95.push(s.half);
            }
            ("r3", Some(s)) => {
                rec.r3_speedups.push(s.mean);
                rec.speedup_ci95.push(s.half);
            }
            _ => {}
        }
    }
    prepared
}

/// The `r3dla-dse` search spec at its defaults, seeded with `seed`.
pub fn dse_spec(scale: Scale, seed: u64) -> DseSpec {
    DseSpec {
        scale,
        workloads: suite(),
        space: SearchSpace::full(),
        strategy: Strategy::parse("random", seed, DSE_BUDGET).expect("random is a strategy"),
        sample: SampleSpec::parse(DSE_SAMPLE).expect("valid sample spec"),
        fast_forward: true,
    }
}

/// The canonical trial key of a space point, as the search derives it.
fn trial_key(space: &SearchSpace, point: &r3dla_dse::TrialPoint) -> String {
    let (cfg, opt) = space.materialize(point);
    format!("{};skeleton={}", cfg.canonical_key(), opt.canonical_key())
}

/// A `r3dla-dse` search through the result cache in `cache_dir`.
pub fn dse(
    spec: &DseSpec,
    threads: usize,
    cache_dir: &Path,
    out: &Path,
    rec: &mut Record,
) -> Vec<Arc<Prepared>> {
    let sup = Supervisor::from_env();
    let cache = ResultCache::at(cache_dir)
        .unwrap_or_else(|e| panic!("cannot open cache {}: {e}", cache_dir.display()));
    let prepared = prepare(&spec.workloads, spec.scale, threads);
    let plans = plan(&prepared, &spec.sample, threads);
    rec.checkpoints = plans.iter().map(|p| p.len() as u64).sum();
    let plan = {
        let _g = trace::span("dse.plan", "");
        let parts = prepared.iter().cloned().zip(plans).collect();
        DsePlan::from_parts(spec, parts, threads)
    };
    let cells = plan.cells();
    let no_cache = ResultCache::disabled();
    let phase = trace::phase("bench.measure", threads.min(cells.len()));
    let outcomes = sup.map(
        &cells,
        threads,
        |&c| plan.cell_key(c).descr,
        |&c| {
            let key = plan.cell_key(c);
            let id = format!("{:016x}", key.hash);
            let _cell = trace::span("bench.cell", &id);
            let hit = {
                let _g = trace::span("dse.cache_load", &id);
                cache.load(&key)
            };
            if let Some(hit) = hit {
                return Ok(hit);
            }
            let mut g = trace::span("dse.evaluate", &id);
            let (result, _) = plan.evaluate(c, &no_cache);
            let r = &result.report;
            g.work(r.cycles, r.mt_committed + r.lt_committed);
            drop(g);
            let _g = trace::span("dse.cache_store", &id);
            let _ = cache.store(&key, &result);
            Ok(result)
        },
    );
    drop(phase);
    let result = {
        let _g = trace::span("bench.report", "");
        let result = plan.assemble(&outcomes);
        write_report(out, &r3dla_dse::to_json(&result));
        result
    };
    let stats = cache.stats();
    rec.cache_hits = stats.hits as u64;
    rec.cache_misses = stats.misses as u64;
    rec.retries = outcomes
        .iter()
        .map(|o| u64::from(o.attempts.saturating_sub(1)))
        .sum();
    let space = &spec.space;
    let dla_key = space.dla_point().map(|p| trial_key(space, &p));
    let r3_key = space.r3_point().map(|p| trial_key(space, &p));
    for (c, o) in cells.iter().zip(&outcomes) {
        let key = plan.cell_key(*c);
        let label = if c.trial == 0 {
            "bl"
        } else if r3_key.as_deref().is_some_and(|k| key.descr.ends_with(k)) {
            "r3"
        } else if dla_key.as_deref().is_some_and(|k| key.descr.ends_with(k)) {
            "dla"
        } else {
            "point"
        };
        let report = o
            .value
            .as_ref()
            .map(|r| r.report.clone())
            .unwrap_or_default();
        rec.tally(
            o.status == CellStatus::Ok,
            &report,
            spec.sample.detailed,
            label,
        );
    }
    for w in &result.workloads {
        let incumbent = |name: &str| w.trials.iter().find(|t| t.incumbent == Some(name));
        if let Some(s) = incumbent("dla").and_then(|t| t.speedup) {
            rec.dla_speedups.push(s.mean);
            rec.speedup_ci95.push(s.half);
        }
        if let Some(s) = incumbent("r3").and_then(|t| t.speedup) {
            rec.r3_speedups.push(s.mean);
            rec.speedup_ci95.push(s.half);
        }
    }
    prepared
}

/// The `mix` campaign: pairs co-scheduled over one shared LLC/DRAM
/// under `cfg`, one report row per tenant.
#[allow(clippy::too_many_arguments)]
pub fn mix(
    pairs: &[(Workload, Workload)],
    scale: Scale,
    config_name: &str,
    cfg: &DlaConfig,
    warm: u64,
    win: u64,
    threads: usize,
    out: &Path,
    rec: &mut Record,
) -> Vec<Arc<Prepared>> {
    let mut names: Vec<&str> = pairs.iter().flat_map(|(a, b)| [a.name, b.name]).collect();
    names.sort();
    names.dedup();
    let workloads: Vec<Workload> = names
        .iter()
        .map(|n| by_name(n).expect("mix pair names a suite kernel"))
        .collect();
    let prepared = prepare(&workloads, scale, threads);
    let find = |name: &str| &prepared[names.iter().position(|n| *n == name).expect("prepared")];
    let sup = Supervisor::from_env();
    let scale_label = scale_name(scale);
    let stats = (AtomicU64::new(0), AtomicU64::new(0));
    let key_of = |(a, b): &(Workload, Workload)| {
        format!(
            "mix|{scale_label}|{warm}|{win}|{config_name}|{}+{}",
            a.name, b.name
        )
    };
    let phase = trace::phase("bench.measure", threads.min(pairs.len()));
    let outcomes = sup.map(pairs, threads, key_of, |pair| {
        let key = key_of(pair);
        let _cell = trace::span("bench.cell", &key);
        let mut cluster = {
            let _a = trace::span("core.assemble", &key);
            let shared = Rc::new(RefCell::new(SharedLlc::new(&cfg.mem)));
            let mut cluster = Cluster::with_shared(shared.clone());
            for p in [find(pair.0.name), find(pair.1.name)] {
                cluster.push(p.dla_system_shared(cfg.clone(), shared.clone()));
            }
            cluster
        };
        let before: u64 = cluster.tenants().iter().map(|t| insts(&t.snapshot())).sum();
        let t0 = Instant::now();
        let mut g = trace::span("mix.run", &key);
        let reports = cluster.measure_each(warm, win);
        let after: u64 = cluster.tenants().iter().map(|t| insts(&t.snapshot())).sum();
        let cycles = reports.iter().map(|r| r.cycles).sum();
        g.work(cycles, after - before);
        drop(g);
        let ks = cluster.kernel_stats();
        stats.0.fetch_add(ks.dispatched, Ordering::Relaxed);
        stats.1.fetch_add(ks.stale_dropped, Ordering::Relaxed);
        Ok((reports, t0.elapsed().as_millis() as u64))
    });
    drop(phase);
    let report_span = trace::span("bench.report", "");
    let mut rows = Vec::new();
    for ((a, b), o) in pairs.iter().zip(&outcomes) {
        let reports = o
            .value
            .as_ref()
            .map(|(r, _)| r.clone())
            .unwrap_or_else(|| vec![WindowReport::default(), WindowReport::default()]);
        for (ti, (w, report)) in [a, b].into_iter().zip(reports).enumerate() {
            let row = r3dla_bench::CellResult {
                workload: w.name.to_string(),
                suite: w.suite,
                config: config_name.to_string(),
                report,
                wall_ms: o.value.as_ref().map_or(0, |(_, ms)| *ms),
                status: o.status,
                attempts: o.attempts,
                error: o.error.clone(),
            };
            rows.push((format!("{}+{}", a.name, b.name), ti, row));
        }
    }
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"r3dla-bench-mix-v1\",\n");
    json.push_str(&format!("  \"scale\": \"{scale_label}\",\n"));
    json.push_str(&format!("  \"warm\": {warm},\n"));
    json.push_str(&format!("  \"window\": {win},\n"));
    json.push_str("  \"rows\": [\n");
    for (i, (pair, ti, cell)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"pair\": \"{pair}\", \"tenant\": {ti}, {}}}{}\n",
            cell.stat_fields(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    write_report(out, &json);
    drop(report_span);
    rec.kernel_dispatched = stats.0.into_inner();
    rec.kernel_stale_dropped = stats.1.into_inner();
    rec.retries = outcomes
        .iter()
        .map(|o| u64::from(o.attempts.saturating_sub(1)))
        .sum();
    for (_, _, cell) in &rows {
        rec.tally(
            cell.status == CellStatus::Ok,
            &cell.report,
            win,
            &cell.config,
        );
    }
    prepared
}

/// Re-runs `Prepared::new`'s steps one call at a time on the pool, with
/// a span around each, and checks each kernel's profile against the
/// campaign's. Runs after the campaign, outside its clock.
pub fn prepare_breakdown(prepared: &[Arc<Prepared>], scale: Scale, threads: usize) -> bool {
    let _root = trace::phase("breakdown", threads.min(prepared.len()));
    let same = parallel_map(prepared, threads, |p| {
        let w = by_name(&p.name).expect("prepared kernels come from the suite");
        let built = {
            let _g = trace::span("workloads.build", &p.name);
            w.build(scale)
        };
        let program = Arc::new(built.program.clone());
        let df = {
            let _g = trace::span("core.dataflow", &p.name);
            Dataflow::analyze(&program)
        };
        let rc = Rc::new(built.program.clone());
        let max = DlaConfig::dla().profile_insts;
        let mut prof = {
            let _g = trace::span("core.profile_functional", &p.name);
            profile_functional(&rc, max)
        };
        {
            let _g = trace::span("core.profile_timing", &p.name);
            profile_timing(&rc, &mut prof, (max / 4).max(20_000));
        }
        {
            let _g = trace::span("core.skeletons", &p.name);
            let opt = SkeletonOptions::default();
            generate_skeletons(&program, &df, &prof, &opt, true);
            generate_skeletons(&program, &df, &prof, &opt, false);
        }
        prof.exec_count == p.profile.exec_count
            && prof.l1_miss == p.profile.l1_miss
            && prof.avg_d2e == p.profile.avg_d2e
    });
    same.into_iter().all(|s| s)
}

/// The scale a campaign runs at: its default, or `train` for held-out
/// inputs.
pub fn scale_for(campaign: &str, held_out: bool) -> Scale {
    match (campaign, held_out) {
        (_, true) => Scale::Train,
        ("dse_resume", false) => Scale::Tiny,
        _ => Scale::Ref,
    }
}

/// Runs one named campaign, writing its report to `out`. `cache_dir`
/// is the search's result cache (`dse_resume` only).
pub fn run(
    campaign: &str,
    scale: Scale,
    seed: u64,
    threads: usize,
    out: &Path,
    cache_dir: &Path,
    rec: &mut Record,
) -> Result<Vec<Arc<Prepared>>, String> {
    let configs = |names: &[&str]| -> Vec<ConfigSpec> {
        names
            .iter()
            .map(|n| ConfigSpec::by_name(n).expect("known config"))
            .collect()
    };
    let grid_spec = GridSpec {
        scale,
        workloads: suite(),
        configs: configs(&["bl", "dla", "r3"]),
        warm: WARMUP,
        win: WINDOW,
        fast_forward: true,
    };
    Ok(match campaign {
        "grid_ref" => grid(&grid_spec, threads, out, rec),
        "sampled_ref" => {
            let sample = SampleSpec::parse(SAMPLED_SPEC).expect("valid sample spec");
            sampled(&grid_spec, &sample, threads, out, rec)
        }
        "dse_resume" => dse(&dse_spec(scale, seed), threads, cache_dir, out, rec),
        "mix_ref" => {
            let pairs: Vec<(Workload, Workload)> = MIX_PAIRS
                .iter()
                .map(|(a, b)| (by_name(a).expect("kernel"), by_name(b).expect("kernel")))
                .collect();
            mix(
                &pairs,
                scale,
                "r3",
                &DlaConfig::r3(),
                WARMUP,
                WINDOW,
                threads,
                out,
                rec,
            )
        }
        other => return Err(format!("unknown campaign '{other}'")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use r3dla_bench::run_grid;
    use r3dla_bench::sampled::run_grid_sampled;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("r3dla-perfbench-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_grid() -> GridSpec {
        GridSpec {
            scale: Scale::Tiny,
            workloads: ["libq_like", "gobmk_like"]
                .iter()
                .map(|n| by_name(n).unwrap())
                .collect(),
            configs: ["bl", "dla", "r3"]
                .iter()
                .map(|n| ConfigSpec::by_name(n).unwrap())
                .collect(),
            warm: 2_000,
            win: 8_000,
            fast_forward: true,
        }
    }

    #[test]
    fn grid_report_matches_run_grid() {
        let dir = tmp("grid");
        let spec = small_grid();
        let mut rec = Record::default();
        grid(&spec, 2, &dir.join("r.json"), &mut rec);
        let ours = std::fs::read_to_string(dir.join("r.json")).unwrap();
        assert_eq!(ours, run_grid(&spec, 2).to_json(false));
        assert_eq!(rec.cells, 6);
        assert_eq!(rec.dla_speedups.len(), 2);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn sampled_report_matches_run_grid_sampled() {
        let dir = tmp("sampled");
        let spec = small_grid();
        let sample = SampleSpec::parse("3:2000:functional").unwrap();
        let mut rec = Record::default();
        sampled(&spec, &sample, 2, &dir.join("r.json"), &mut rec);
        let ours = std::fs::read_to_string(dir.join("r.json")).unwrap();
        assert_eq!(ours, run_grid_sampled(&spec, &sample, 2).to_json(false));
        assert_eq!(rec.speedup_ci95.len(), 4);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn dse_report_matches_run_dse_and_resumes() {
        let dir = tmp("dse");
        let mut spec = dse_spec(Scale::Tiny, 1);
        spec.workloads.truncate(2);
        spec.strategy = Strategy::parse("random", 1, 2).unwrap();
        let mut fresh = Record::default();
        dse(
            &spec,
            2,
            &dir.join("cache"),
            &dir.join("a.json"),
            &mut fresh,
        );
        let ours = std::fs::read_to_string(dir.join("a.json")).unwrap();
        let expect = r3dla_dse::to_json(&r3dla_dse::run_dse(&spec, &ResultCache::disabled(), 2));
        assert_eq!(ours, expect);
        assert_eq!(fresh.cache_hits, 0);
        assert_eq!(fresh.cache_misses, fresh.cells);
        let mut again = Record::default();
        dse(
            &spec,
            2,
            &dir.join("cache"),
            &dir.join("b.json"),
            &mut again,
        );
        assert_eq!(std::fs::read_to_string(dir.join("b.json")).unwrap(), expect);
        assert_eq!(again.cache_hits, fresh.cells);
        assert_eq!(again.cache_misses, 0);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn breakdown_reproduces_the_prepared_profile() {
        let p = Arc::new(Prepared::new(&by_name("md5_like").unwrap(), Scale::Tiny));
        assert!(prepare_breakdown(&[p], Scale::Tiny, 1));
    }
}
