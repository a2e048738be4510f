//! Golden-model test: a fingerprint of simulated results recorded from a
//! known-good build.
//!
//! The equivalence suites (skip, checkpoints) compare two
//! paths of the *same* build, so an edit to the cycle-stepped core that
//! changes the model in both paths still passes them. This test pins the
//! model itself: for a few kernels at `Scale::Tiny` it checks the training
//! profile's per-PC dispatch-to-execute latencies (`avg_d2e`, produced by
//! a detailed single-core run) and the runner's deterministic `bl`, `dla`
//! and `r3` cell rows. A second fingerprint pins the B-Fetch and CRE
//! comparison baselines, which drive their own side engines.
//!
//! A host-performance change must leave every line below untouched. A
//! deliberate model change updates the expected lines in the same commit
//! and says why; the failure message prints the new fingerprint.

use r3dla_baselines::{BFetchSim, CreSim};
use r3dla_bench::runner::{run_cell, CellResult, ConfigSpec};
use r3dla_bench::{parallel_map, CellStatus, Prepared};
use r3dla_workloads::{by_name, suite, Scale};

const KERNELS: [&str; 5] = [
    "mcf_like",
    "libq_like",
    "gobmk_like",
    "astar_like",
    "rgbyuv_like",
];
const CONFIGS: [&str; 3] = ["bl", "dla", "r3"];
const WARM: u64 = 5_000;
const WINDOW: u64 = 20_000;

/// One block per kernel: the `avg_d2e` fingerprint, then the `bl`, `dla`
/// and `r3` rows.
const EXPECTED: &str = r#"mcf_like avg_d2e: 18 pcs, 18 measured, fnv 95ff0ace32a1704b
"workload": "mcf_like", "suite": "spec", "config": "bl", "mt_ipc": 0.109551, "cycles": 182573, "mt_committed": 20001, "lt_committed": 0, "dram_traffic": 2824, "mt_l1d_misses": 2454, "mt_l1d_accesses": 10393, "reboots": 0
"workload": "mcf_like", "suite": "spec", "config": "dla", "mt_ipc": 0.109447, "cycles": 182746, "mt_committed": 20001, "lt_committed": 17717, "dram_traffic": 2896, "mt_l1d_misses": 2117, "mt_l1d_accesses": 6400, "reboots": 0
"workload": "mcf_like", "suite": "spec", "config": "r3", "mt_ipc": 0.109457, "cycles": 182729, "mt_committed": 20001, "lt_committed": 18541, "dram_traffic": 2896, "mt_l1d_misses": 2138, "mt_l1d_accesses": 6400, "reboots": 0
libq_like avg_d2e: 16 pcs, 15 measured, fnv b90d121416d58878
"workload": "libq_like", "suite": "spec", "config": "bl", "mt_ipc": 1.060277, "cycles": 18863, "mt_committed": 20000, "lt_committed": 0, "dram_traffic": 357, "mt_l1d_misses": 357, "mt_l1d_accesses": 5714, "reboots": 0
"workload": "libq_like", "suite": "spec", "config": "dla", "mt_ipc": 1.060277, "cycles": 18863, "mt_committed": 20000, "lt_committed": 20003, "dram_traffic": 358, "mt_l1d_misses": 289, "mt_l1d_accesses": 5714, "reboots": 0
"workload": "libq_like", "suite": "spec", "config": "r3", "mt_ipc": 1.117368, "cycles": 17901, "mt_committed": 20002, "lt_committed": 20004, "dram_traffic": 357, "mt_l1d_misses": 0, "mt_l1d_accesses": 5715, "reboots": 0
gobmk_like avg_d2e: 58 pcs, 58 measured, fnv 87980cd44a0fe539
"workload": "gobmk_like", "suite": "spec", "config": "bl", "mt_ipc": 0.698788, "cycles": 28621, "mt_committed": 20000, "lt_committed": 0, "dram_traffic": 223, "mt_l1d_misses": 256, "mt_l1d_accesses": 6519, "reboots": 0
"workload": "gobmk_like", "suite": "spec", "config": "dla", "mt_ipc": 0.650491, "cycles": 30746, "mt_committed": 20000, "lt_committed": 19997, "dram_traffic": 231, "mt_l1d_misses": 160, "mt_l1d_accesses": 5700, "reboots": 0
"workload": "gobmk_like", "suite": "spec", "config": "r3", "mt_ipc": 0.650364, "cycles": 30752, "mt_committed": 20000, "lt_committed": 19997, "dram_traffic": 231, "mt_l1d_misses": 218, "mt_l1d_accesses": 5703, "reboots": 0
astar_like avg_d2e: 41 pcs, 41 measured, fnv 7010720ff6ff084c
"workload": "astar_like", "suite": "spec", "config": "bl", "mt_ipc": 0.507730, "cycles": 39393, "mt_committed": 20001, "lt_committed": 0, "dram_traffic": 649, "mt_l1d_misses": 382, "mt_l1d_accesses": 3530, "reboots": 0
"workload": "astar_like", "suite": "spec", "config": "dla", "mt_ipc": 0.485461, "cycles": 41200, "mt_committed": 20001, "lt_committed": 19336, "dram_traffic": 689, "mt_l1d_misses": 312, "mt_l1d_accesses": 2711, "reboots": 0
"workload": "astar_like", "suite": "spec", "config": "r3", "mt_ipc": 0.485461, "cycles": 41200, "mt_committed": 20001, "lt_committed": 19336, "dram_traffic": 689, "mt_l1d_misses": 312, "mt_l1d_accesses": 2711, "reboots": 0
rgbyuv_like avg_d2e: 24 pcs, 24 measured, fnv 7848f9417338c4e8
"workload": "rgbyuv_like", "suite": "star", "config": "bl", "mt_ipc": 0.885426, "cycles": 22588, "mt_committed": 20000, "lt_committed": 0, "dram_traffic": 476, "mt_l1d_misses": 476, "mt_l1d_accesses": 3808, "reboots": 0
"workload": "rgbyuv_like", "suite": "star", "config": "dla", "mt_ipc": 1.180359, "cycles": 16944, "mt_committed": 20000, "lt_committed": 12376, "dram_traffic": 556, "mt_l1d_misses": 393, "mt_l1d_accesses": 3808, "reboots": 0
"workload": "rgbyuv_like", "suite": "star", "config": "r3", "mt_ipc": 0.891822, "cycles": 22426, "mt_committed": 20000, "lt_committed": 7045, "dram_traffic": 510, "mt_l1d_misses": 119, "mt_l1d_accesses": 3808, "reboots": 0
"#;

/// FNV-1a over the bit patterns of `xs`: any change to any latency, down
/// to the last mantissa bit, changes the hash.
fn fnv1a_bits(xs: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn fingerprint(p: &Prepared) -> String {
    let d2e = &p.profile.avg_d2e;
    let measured = d2e.iter().filter(|&&x| x != 0.0).count();
    let mut out = format!(
        "{} avg_d2e: {} pcs, {} measured, fnv {:016x}\n",
        p.name,
        d2e.len(),
        measured,
        fnv1a_bits(d2e)
    );
    for config in CONFIGS {
        let spec = ConfigSpec::by_name(config).expect("known config");
        let report = run_cell(p, &spec, WARM, WINDOW, true);
        let row = CellResult {
            workload: p.name.clone(),
            suite: p.suite,
            config: config.to_string(),
            report,
            wall_ms: 0,
            status: CellStatus::Ok,
            attempts: 1,
            error: None,
        }
        .stat_fields();
        out.push_str(&row);
        out.push('\n');
    }
    out
}

#[test]
fn simulated_results_match_the_recorded_fingerprint() {
    let workloads: Vec<_> = suite()
        .into_iter()
        .filter(|w| KERNELS.contains(&w.name))
        .collect();
    assert_eq!(
        workloads.len(),
        KERNELS.len(),
        "kernel names must all exist"
    );
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let actual: String = parallel_map(&workloads, threads, |w| {
        fingerprint(&Prepared::new(w, Scale::Tiny))
    })
    .concat();
    assert!(
        actual == EXPECTED,
        "simulated results changed; new fingerprint:\n{actual}"
    );
}

/// `measure(2_000, 8_000)` of each comparison baseline at `Scale::Tiny`:
/// `(IPC, committed instructions, cycles)`.
const EXPECTED_BASELINES: &str = "\
libq_like bfetch (1.0761366693570082, 8000, 7434)
libq_like cre (1.0491803278688525, 8000, 7625)
mcf_like bfetch (0.08985041775222352, 8001, 89048)
mcf_like cre (0.08958883862587898, 8001, 89308)
";

#[test]
fn baseline_results_match_the_recorded_fingerprint() {
    let mut actual = String::new();
    for name in ["libq_like", "mcf_like"] {
        let wl = by_name(name).expect("known kernel").build(Scale::Tiny);
        let bfetch = BFetchSim::build(&wl).measure(2_000, 8_000);
        let cre = CreSim::build(&wl).measure(2_000, 8_000);
        actual.push_str(&format!("{name} bfetch {bfetch:?}\n{name} cre {cre:?}\n"));
    }
    assert!(
        actual == EXPECTED_BASELINES,
        "baseline results changed; new fingerprint:\n{actual}"
    );
}
