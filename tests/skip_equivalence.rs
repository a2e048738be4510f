//! Cycle-skipping equivalence suite: the event-driven fast path must be
//! invisible in every reported statistic.
//!
//! For every workload in the suite at `Scale::Tiny`, the runner's cell
//! measurement is executed twice — cycle-by-cycle and with event-driven
//! fast-forwarding — and the resulting reports must be identical. The
//! deterministic `BENCH_*.json` cell row is compared verbatim, so any
//! divergence in cycles, commits, DRAM traffic, cache statistics or
//! reboot counts fails the suite.
//!
//! A second group checks the multi-tenant [`Cluster`]: two systems over
//! one shared LLC/DRAM, run twice from scratch, must produce identical
//! per-tenant reports with both tenants committing work.

use std::cell::RefCell;
use std::rc::Rc;

use r3dla_bench::runner::{run_cell, CellResult, ConfigSpec};
use r3dla_bench::{parallel_map, Prepared};
use r3dla_core::{Cluster, DlaConfig, WindowReport};
use r3dla_mem::SharedLlc;
use r3dla_workloads::{suite, Scale};

/// The runner's deterministic per-cell JSON row — the very formatter
/// `GridResult::to_json` uses, so this comparison is verbatim against
/// the real `BENCH_*.json` schema by construction.
fn cell_row(p: &Prepared, config: &str, report: WindowReport) -> String {
    CellResult {
        workload: p.name.clone(),
        suite: p.suite,
        config: config.to_string(),
        report,
        wall_ms: 0,
        status: r3dla_bench::CellStatus::Ok,
        attempts: 1,
        error: None,
    }
    .stat_fields()
}

fn assert_cell_equivalent(p: &Prepared, spec: &ConfigSpec, warm: u64, win: u64) {
    let fast = run_cell(p, spec, warm, win, true);
    let slow = run_cell(p, spec, warm, win, false);
    assert!(
        fast.mt_committed > 0,
        "({}, {}): cell committed nothing",
        p.name,
        spec.label,
    );
    assert_eq!(
        cell_row(p, &spec.label, fast),
        cell_row(p, &spec.label, slow),
        "({}, {}): cycle skipping changed the report",
        p.name,
        spec.label,
    );
}

/// Every workload in the suite, under the two-core DLA system.
#[test]
fn every_workload_is_skip_equivalent_under_dla() {
    let workloads = suite();
    let prepared = parallel_map(&workloads, 1, |w| Prepared::new(w, Scale::Tiny));
    let dla = ConfigSpec::by_name("dla").unwrap();
    for p in &prepared {
        assert_cell_equivalent(p, &dla, 1_000, 4_000);
    }
}

/// A representative subset (memory-bound, branchy, FP, graph) under the
/// single-core baseline and the full R3 system, so the `SingleCoreSim`
/// fast path and the complete reuse/recycle feature set are covered too.
#[test]
fn representative_workloads_are_skip_equivalent_under_bl_and_r3() {
    let names = ["libq_like", "mcf_like", "xalan_like", "cg_like", "bfs"];
    let workloads: Vec<_> = suite()
        .into_iter()
        .filter(|w| names.contains(&w.name))
        .collect();
    assert_eq!(workloads.len(), names.len(), "subset names must all exist");
    let prepared = parallel_map(&workloads, 1, |w| Prepared::new(w, Scale::Tiny));
    for config in ["bl", "r3"] {
        let spec = ConfigSpec::by_name(config).unwrap();
        for p in &prepared {
            assert_cell_equivalent(p, &spec, 1_000, 4_000);
        }
    }
}

/// Two tenants over one shared LLC/DRAM: the cluster must be
/// deterministic (two runs from scratch agree verbatim) and both tenants
/// must make progress while contending.
#[test]
fn shared_llc_cluster_is_deterministic_and_both_tenants_commit() {
    let names = ["libq_like", "mcf_like"];
    let workloads: Vec<_> = suite()
        .into_iter()
        .filter(|w| names.contains(&w.name))
        .collect();
    assert_eq!(workloads.len(), names.len(), "subset names must all exist");
    let prepared = parallel_map(&workloads, 1, |w| Prepared::new(w, Scale::Tiny));

    let run = || {
        let cfg = DlaConfig::r3();
        let shared = Rc::new(RefCell::new(SharedLlc::new(&cfg.mem)));
        let mut cluster = Cluster::with_shared(shared.clone());
        for p in &prepared {
            cluster.push(p.dla_system_shared(cfg.clone(), shared.clone()));
        }
        let rows: Vec<String> = cluster
            .measure_each(1_000, 4_000)
            .into_iter()
            .zip(&prepared)
            .map(|(report, p)| {
                assert!(
                    report.mt_committed > 0,
                    "tenant {} committed nothing while co-running",
                    p.name
                );
                cell_row(p, "r3+shared", report)
            })
            .collect();
        rows
    };
    assert_eq!(run(), run(), "cluster run is not deterministic");
}
