//! The benchmark's command line.
//!
//! ```text
//! cargo bench --manifest-path perfbench/Cargo.toml --bench e2e -- \
//!     --workload <name> --seed <u64> [--seconds <n>] [--trace 0|1] \
//!     [--smoke] [--out <record.json>] [--trace-out <spans.json>]
//! cargo bench --manifest-path perfbench/Cargo.toml --bench e2e -- \
//!     compare <base-dir> <change-dir>
//! ```
//!
//! A run prints one line per metric, then the result object as the last
//! line of standard output. It exits 0 when every output was correct, 1
//! when a check failed, and 2 (printing no result) when it could not
//! measure at all.

use perfbench::inputs::Sizes;
use perfbench::spec::spec;
use perfbench::workloads::{self, RunConfig};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    workload: String,
    cfg: RunConfig,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds) = (None, None, None);
    let (mut traced, mut smoke, mut out, mut trace_out) = (false, false, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => smoke = true,
            "--out" => out = Some(PathBuf::from(value()?)),
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !spec().workloads.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?}; BENCHMARK.json lists {:?}",
            spec().workloads
        ));
    }
    let seed = seed.ok_or("--seed is required")?;
    let cfg = RunConfig {
        seed,
        seconds: seconds.unwrap_or(if smoke { 0.2 } else { spec().run_seconds as f64 }),
        traced,
        sizes: if smoke { Sizes::SMOKE } else { Sizes::FULL },
        work_dir: work_dir()?,
    };
    Ok(Args { workload, cfg, out, trace_out })
}

/// `<target>/perfbench`: the bench executable lives in
/// `<target>/<profile>/deps/`, so work files stay in the build tree.
fn work_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let target = exe.ancestors().nth(3).ok_or("cannot locate the target directory")?;
    let dir = target.join("perfbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: &[String]) -> Result<bool, String> {
    let Args { workload, cfg, out, trace_out } = parse_args(args)?;
    let output = workloads::run(&workload, &cfg)?;
    let mut report = output.report;
    report.conform(spec())?;
    if let Some(spans) = &output.spans {
        let path = trace_out
            .unwrap_or_else(|| cfg.work_dir.join(format!("spans-{workload}-s{}.json", cfg.seed)));
        write(&path, &(spans.to_json().render() + "\n"))?;
        println!("spans: {} written to {}", spans.spans().len(), path.display());
    }
    if let Some(path) = &out {
        write(path, &report.result_record())?;
    }
    print!("{}", report.human_lines());
    println!("{}", report.result_line());
    Ok(report.correct())
}

fn compare(args: &[String]) -> Result<bool, String> {
    let [base, change] = args else {
        return Err("usage: compare <base-dir> <change-dir>".into());
    };
    let rows = perfbench::compare::compare(
        spec(),
        &perfbench::compare::load_dir(Path::new(base))?,
        &perfbench::compare::load_dir(Path::new(change))?,
    );
    print!("{}", perfbench::compare::render(&rows));
    use perfbench::compare::Verdict::{Improved, NoWorse};
    Ok(!rows.is_empty() && rows.iter().all(|r| matches!(r.verdict, Improved | NoWorse)))
}

fn main() -> ExitCode {
    // `cargo bench` appends `--bench` to the binary's arguments.
    let args: Vec<String> = std::env::args().skip(1).filter(|a| a != "--bench").collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        _ => run(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::from(2)
        }
    }
}
