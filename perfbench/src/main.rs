//! Traced campaign worker: runs one campaign with a span around each
//! call into a layer and prints what it tallied as one JSON line.
//! `run.py` drives it for `--trace 1`; the untraced runs time the
//! `runner`, `r3dla-dse` and `mix` entry points themselves.
//!
//! ```text
//! r3dla-perfbench --campaign NAME --dir DIR [--seed N] [--threads N]
//!                 [--held-out] [--cache-from DIR]
//! ```
//!
//! Runs `grid_ref`, `sampled_ref`, `dse_resume` or `mix_ref`, writes its
//! report to `DIR/report.json` and its spans to `DIR/spans.jsonl`, and
//! then re-runs prepare one step at a time, outside the campaign's
//! clock. `--cache-from` first copies a result cache into `DIR/cache`
//! (off the clock).

mod campaign;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use campaign::Record;

struct Args {
    campaign: String,
    dir: PathBuf,
    seed: u64,
    threads: usize,
    held_out: bool,
    cache_from: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut args = Args {
        campaign: String::new(),
        dir: PathBuf::new(),
        seed: 1,
        threads: 2,
        held_out: false,
        cache_from: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--campaign" => args.campaign = value()?,
            "--dir" => args.dir = PathBuf::from(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--threads" => {
                args.threads = value()?.parse().map_err(|e| format!("--threads: {e}"))?
            }
            "--cache-from" => args.cache_from = Some(PathBuf::from(value()?)),
            "--held-out" => args.held_out = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.dir.as_os_str().is_empty() {
        return Err("--dir is required".into());
    }
    if args.threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    Ok(args)
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    let cache = args.dir.join("cache");
    if let Some(from) = &args.cache_from {
        copy_dir(from, &cache).map_err(|e| format!("cannot copy cache: {e}"))?;
    }
    let scale = campaign::scale_for(&args.campaign, args.held_out);
    let mut rec = Record::default();
    let root = trace::span("campaign", &args.campaign);
    let prepared = campaign::run(
        &args.campaign,
        scale,
        args.seed,
        args.threads,
        &args.dir.join("report.json"),
        &cache,
        &mut rec,
    )?;
    drop(root);
    let same = campaign::prepare_breakdown(&prepared, scale, args.threads);
    trace::write_jsonl(&args.dir.join("spans.jsonl"))
        .map_err(|e| format!("cannot write spans: {e}"))?;
    let mut line = rec.to_json(&args.campaign);
    line.pop();
    line.push_str(&format!(", \"breakdown_matches\": {same}}}"));
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("r3dla-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
