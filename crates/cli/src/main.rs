//! `dmlc` — command-line driver for the dml-rs pipeline.
//!
//! ```text
//! dmlc check <files...> [--jobs N|auto] [--trace-out FILE]
//!                              type-check; report checks (batches fan
//!                              across one warm session)
//! dmlc infer <file.dml> [--json]  synthesize + verify range refinements
//! dmlc strip <file.dml>        print the source with annotations removed
//! dmlc explain <file.dml> [--goal N]  render per-obligation proof traces
//! dmlc constraints <file.dml>  print every generated constraint
//! dmlc lint <file.dml> [--format human|json|sarif] [--deny CODE]
//! dmlc run <file.dml> <fun> [ints...]   run a function on integer args
//! dmlc eval <file.dml> <fun> [ints...]  alias for `run`
//! dmlc emit-rust <file.dml> [--out DIR] [--checked|--unchecked-proven]
//!                              compile to a standalone Rust crate
//! dmlc serve [--socket PATH]   persistent check service (JSON protocol)
//! dmlc stats --remote SOCKET   a running daemon's cache/request counters
//! dmlc shutdown --remote SOCKET  stop a running daemon
//! dmlc fuzz [--seed S] [--iters N] [--scale] [--json]  differential solver fuzzer
//! dmlc figure4                 print the paper's Figure 4 constraints
//! dmlc table <1|2> [factor] [--timings]  regenerate an evaluation table
//! dmlc table 1 --infer         Table 1 with annotations stripped + inferred
//! ```
//!
//! `dmlc infer` runs the interval abstract interpreter over every
//! unannotated function, turns the fixpoint into candidate `where`-clauses,
//! and keeps only those the solver verifies — reporting residual bound
//! checks before and after, plus the exact fix-it text for each accepted
//! annotation. `dmlc strip` is its test harness companion: it removes every
//! `where`-clause so a corpus can be round-tripped through inference.
//!
//! Observability (see `docs/ARCHITECTURE.md` for the trace schema):
//!
//! * `dmlc explain` compiles as `check` does, then decides each goal it
//!   prints again, without the verdict cache, to render its proof story —
//!   hypothesis set, elimination order, fuel, witness — in a deterministic
//!   format (byte-identical across workers/cache settings).
//! * `dmlc check --trace-out trace.json` writes a Chrome trace-event file
//!   (loadable in `chrome://tracing` / Perfetto) with the compile's phase
//!   spans, per-goal solver spans from the same explain pass, fuel, and
//!   verdict-cache shard occupancy. The check itself runs as without it.
//! * `dmlc table 1 --timings` appends per-phase solver time totals.
//!
//! Session flags (accepted by `check`, `constraints`, `lint`, `run`/`eval`):
//!
//! * `--fuel N` — per-goal Fourier–Motzkin budget; exhausted goals come
//!   back unknown and their checks stay at run time.
//! * `--deadline-ms N` — per-goal wall-clock budget.
//! * `--strict` — unproven obligations abort compilation (the permissive
//!   default lets them degrade to residual runtime checks).
//! * `--remote SOCKET` — run `check`/`infer`/`explain` against a
//!   `dmlc serve --socket SOCKET` daemon instead of in-process. Output is
//!   byte-identical (both paths render through the same report code);
//!   only the wall time changes.

use dml::experiments;
use dml::serve::protocol::Json;
use dml::{Compiler, Mode, Severity, Value};
use std::process::ExitCode;
use std::time::Duration;

#[cfg(unix)]
mod remote;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (session, args) = match parse_session_flags(&args) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let compiler = &session.compiler;
    match args.first().map(String::as_str) {
        Some("check") => check_cmd(&session, &args),
        Some("infer") => infer_cmd(&session, &args),
        Some("strip") => with_file(&args, strip),
        Some("explain") => explain_cmd(&session, &args),
        Some("constraints") => with_file(&args, |src| constraints(compiler, src)),
        Some("lint") => lint(compiler, &args),
        Some("run" | "eval") => run(compiler, &args),
        Some("emit-rust") => emit_rust(compiler, &args),
        Some("serve") => serve_cmd(&session, &args),
        Some("stats") => remote_only(&session, "stats"),
        Some("shutdown") => remote_only(&session, "shutdown"),
        Some("fuzz") => fuzz(&args),
        Some("figure4") => {
            for line in experiments::figure4() {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Some("table") => table(&args),
        _ => {
            eprintln!(
                "usage: dmlc <check|infer|strip|explain|constraints|lint|run|eval|emit-rust|serve|stats|shutdown|fuzz|figure4|table> ...\n\
                 \n\
                 dmlc check <files...> [--jobs N|auto] [--trace-out FILE] [--fuel N] [--deadline-ms N] [--strict]\n\
                 dmlc infer <file.dml> [--json] [--fuel N] [--deadline-ms N]\n\
                 dmlc strip <file.dml>\n\
                 dmlc explain <file.dml> [--goal N] [--fuel N] [--deadline-ms N]\n\
                 dmlc constraints <file.dml> [--fuel N] [--deadline-ms N] [--strict]\n\
                 dmlc lint <file.dml> [--format human|json|sarif] [--deny CODE] [--fuel N] [--strict]\n\
                 dmlc run <file.dml> <fun> [ints...] [--fuel N] [--deadline-ms N] [--strict]\n\
                 dmlc eval <file.dml> <fun> [ints...]   (alias for run)\n\
                 dmlc emit-rust <file.dml> [--out DIR] [--checked|--unchecked-proven] [--name NAME]\n\
                 dmlc serve [--socket PATH] [--fuel N] [--deadline-ms N] [--strict]\n\
                 dmlc stats --remote SOCKET\n\
                 dmlc shutdown --remote SOCKET\n\
                 dmlc fuzz [--seed S] [--iters N] [--bound B] [--json] [--infer] [--scale] [--repro-dir D] [--no-programs]\n\
                 dmlc figure4\n\
                 dmlc table <1|2> [factor] [--timings] [--infer]\n\
                 \n\
                 check/explain/infer also accept --remote SOCKET to run against a\n\
                 `dmlc serve --socket SOCKET` daemon (same output, warm caches)."
            );
            ExitCode::FAILURE
        }
    }
}

/// One configured invocation: the compiler session plus where to run it
/// (locally, or against a `dmlc serve` daemon).
struct SessionSetup {
    compiler: Compiler,
    /// Unix-socket path of a running daemon (`--remote`).
    remote: Option<String>,
}

/// Extracts the session flags (`--fuel`, `--deadline-ms`, `--strict`,
/// `--remote`) from anywhere on the command line,
/// returning the configured [`SessionSetup`] and the remaining arguments.
fn parse_session_flags(args: &[String]) -> Result<(SessionSetup, Vec<String>), String> {
    let mut compiler = Compiler::new();
    let mut remote = None;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fuel" => {
                let v = it.next().ok_or("--fuel expects a number")?;
                let n: u64 =
                    v.parse().map_err(|_| format!("--fuel expects a number, got `{v}`"))?;
                compiler = compiler.fuel(n);
            }
            "--deadline-ms" => {
                let v = it.next().ok_or("--deadline-ms expects a number")?;
                let n: u64 =
                    v.parse().map_err(|_| format!("--deadline-ms expects a number, got `{v}`"))?;
                compiler = compiler.deadline(Duration::from_millis(n));
            }
            "--strict" => compiler = compiler.strict(true),
            "--remote" => {
                let v = it.next().ok_or("--remote expects a socket path")?;
                remote = Some(v.clone());
            }
            _ => rest.push(a.clone()),
        }
    }
    Ok((SessionSetup { compiler, remote }, rest))
}

fn with_file(args: &[String], f: impl Fn(&str) -> ExitCode) -> ExitCode {
    let Some(path) = args.get(1) else {
        eprintln!("missing file argument");
        return ExitCode::FAILURE;
    };
    if let Some(extra) = args.get(2) {
        eprintln!("unexpected argument `{extra}`");
        return ExitCode::FAILURE;
    }
    match std::fs::read_to_string(path) {
        Ok(src) => f(&src),
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `dmlc check <files...> [--jobs N|auto] [--trace-out FILE]` — with
/// `--trace-out`, also writes a Chrome trace-event file of the compile
/// alongside the normal report, which stays as it is without the flag.
/// With `--remote SOCKET` the check runs on a `dmlc serve` daemon instead
/// and prints the same report.
///
/// With several files (a batch), every file compiles against the same
/// warm session — canonically-equal goals dedupe across files — and the
/// merged report prints one `== path ==` section per file in input
/// order, byte-identical to sequential per-file runs modulo the volatile
/// timing/cache lines. `--jobs N` fans the batch across N worker
/// threads (`auto` = one per core); output and exit code are identical
/// at any jobs count, only wall time changes.
fn check_cmd(session: &SessionSetup, args: &[String]) -> ExitCode {
    let mut trace_out: Option<String> = None;
    let mut jobs: usize = 1;
    let mut files: Vec<String> = Vec::new();
    let mut rest = args[1..].iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--trace-out" => match rest.next() {
                Some(f) => trace_out = Some(f.clone()),
                None => {
                    eprintln!("--trace-out expects a file path");
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" => match rest.next().map(String::as_str) {
                Some("auto") => {
                    jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
                }
                Some(v) => match v.parse::<usize>() {
                    Ok(n) if n >= 1 => jobs = n,
                    _ => {
                        eprintln!("--jobs expects a positive number or `auto`, got `{v}`");
                        return ExitCode::FAILURE;
                    }
                },
                None => {
                    eprintln!("--jobs expects a positive number or `auto`");
                    return ExitCode::FAILURE;
                }
            },
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag `{flag}`");
                return ExitCode::FAILURE;
            }
            path => files.push(path.to_string()),
        }
    }
    if files.is_empty() {
        eprintln!("missing file argument");
        return ExitCode::FAILURE;
    }

    // Single file, no fan-out: the original path, byte-for-byte.
    if files.len() == 1 && jobs == 1 {
        return check_one(session, &files[0], trace_out.as_deref());
    }
    // A trace covers one compile.
    if trace_out.is_some() {
        eprintln!("--trace-out expects a single file and no --jobs");
        return ExitCode::FAILURE;
    }

    // Batch mode. Read everything up front so a bad path fails before
    // any compile runs (deterministic regardless of jobs).
    let mut entries = Vec::with_capacity(files.len());
    for path in &files {
        match std::fs::read_to_string(path) {
            Ok(source) => entries.push(dml::BatchEntry { name: path.clone(), source }),
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(socket) = &session.remote {
        return remote_check_batch(socket, &entries);
    }
    let outcome = dml::check_batch(&session.compiler, &entries, jobs);
    if entries.len() == 1 {
        // A 1-file batch (`--jobs` on a single file) keeps the
        // single-file output shape: no section header.
        match (&outcome.results[0].report, &outcome.results[0].error) {
            (Some(r), _) => print!("{}", r.text),
            (None, Some(e)) => eprintln!("{e}"),
            (None, None) => {}
        }
    } else {
        print!("{}", outcome.merged_report());
        eprintln!("{}", outcome.summary.render());
    }
    if outcome.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The original single-file `dmlc check` path (local or `--remote`).
fn check_one(session: &SessionSetup, path: &str, trace_out: Option<&str>) -> ExitCode {
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(socket) = &session.remote {
        if trace_out.is_some() {
            eprintln!("--trace-out is not supported with --remote");
            return ExitCode::FAILURE;
        }
        return remote_check(socket, path, &src);
    }
    match session.compiler.compile(&src) {
        Ok(compiled) => {
            if let Some(out_path) = trace_out {
                let trace = dml::chrome_trace(&compiled, &src, path);
                if let Err(e) = std::fs::write(out_path, trace.render()) {
                    eprintln!("cannot write {out_path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("trace written to {out_path} ({} events)", trace.len());
            }
            let report = dml::check_report(&compiled, &src);
            print!("{}", report.text);
            if report.ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Fans a batch over a `dmlc serve` daemon: one `check` request per file
/// over the daemon's warm session (requests pipeline sequentially — the
/// daemon is the shared cache; `--jobs` only parallelizes local
/// checking). The merged output matches the local batch shape.
#[cfg(unix)]
fn remote_check_batch(socket: &str, entries: &[dml::BatchEntry]) -> ExitCode {
    let mut failed = 0usize;
    for e in entries {
        println!("== {} ==", e.name);
        let params =
            vec![("source", Json::Str(e.source.clone())), ("path", Json::Str(e.name.clone()))];
        match remote::call(socket, "check", params) {
            Ok(result) => {
                let report = result.get("report").and_then(Json::as_str).unwrap_or_default();
                print!("{report}");
                if !result.get("ok").and_then(Json::as_bool).unwrap_or(false) {
                    failed += 1;
                }
            }
            Err(err) => {
                println!("error: {err}");
                failed += 1;
            }
        }
    }
    eprintln!("batch: {} file(s), {failed} failed (remote)", entries.len());
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(not(unix))]
fn remote_check_batch(_socket: &str, _entries: &[dml::BatchEntry]) -> ExitCode {
    eprintln!("--remote requires a Unix platform");
    ExitCode::FAILURE
}

#[cfg(unix)]
fn remote_check(socket: &str, path: &str, src: &str) -> ExitCode {
    let params =
        vec![("source", Json::Str(src.to_string())), ("path", Json::Str(path.to_string()))];
    match remote::call(socket, "check", params) {
        Ok(result) => {
            let report = result.get("report").and_then(Json::as_str).unwrap_or_default();
            print!("{report}");
            let ok = result.get("ok").and_then(Json::as_bool).unwrap_or(false);
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(not(unix))]
fn remote_check(_socket: &str, _path: &str, _src: &str) -> ExitCode {
    eprintln!("--remote requires a Unix platform");
    ExitCode::FAILURE
}

/// `dmlc infer <file> [--json]` — compiles with inference enabled and
/// prints the before/after residual-check report: accepted annotations
/// (with fix-it text), rejected candidates (with the solver's reason), and
/// the honestly-residual sites.
fn infer_cmd(session: &SessionSetup, args: &[String]) -> ExitCode {
    let Some(path) = args.get(1) else {
        eprintln!("usage: dmlc infer <file.dml> [--json]");
        return ExitCode::FAILURE;
    };
    let mut json = false;
    for flag in &args[2..] {
        match flag.as_str() {
            "--json" => json = true,
            other => {
                eprintln!("unknown flag `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(socket) = &session.remote {
        return remote_text(socket, "infer", &src, vec![("json", Json::Bool(json))]);
    }
    let compiled = match session.compiler.clone().infer(true).compile(&src) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(report) = compiled.infer_report() else {
        eprintln!("inference produced no report (internal error)");
        return ExitCode::FAILURE;
    };
    if json {
        println!("{}", report.render_json(&src));
    } else {
        print!("{}", report.render_human(&src));
    }
    ExitCode::SUCCESS
}

/// `dmlc strip <file>` — prints the source with every `where`-annotation
/// removed (the inference test harness's corpus generator).
fn strip(src: &str) -> ExitCode {
    match dml::strip_annotations(src) {
        Ok(stripped) => {
            print!("{stripped}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// `dmlc explain <file> [--goal N]` — renders the deterministic per-goal
/// proof traces of a compile.
fn explain_cmd(session: &SessionSetup, args: &[String]) -> ExitCode {
    let Some(path) = args.get(1) else {
        eprintln!("usage: dmlc explain <file.dml> [--goal N]");
        return ExitCode::FAILURE;
    };
    let mut goal: Option<usize> = None;
    let mut rest = args[2..].iter();
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--goal" => match rest.next().and_then(|v| v.parse().ok()) {
                Some(n) => goal = Some(n),
                None => {
                    eprintln!("--goal expects a goal number");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown flag `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(socket) = &session.remote {
        let extra = match goal {
            Some(n) => vec![("goal", Json::Int(n as i64))],
            None => Vec::new(),
        };
        return remote_text(socket, "explain", &src, extra);
    }
    let rendered = session.compiler.compile(&src).map_err(|e| e.to_string());
    match rendered.and_then(|compiled| dml::render_explain(&compiled, &src, goal)) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// `dmlc fuzz [--seed S] [--iters N] [--bound B] [--json] [--infer]
/// [--scale] [--repro-dir D] [--no-programs]` — runs the differential
/// solver fuzzer
/// (`dml-oracle`): random goals are decided by the production solver under
/// a configuration matrix and cross-checked against two independent
/// reference deciders, with metamorphic and end-to-end program properties
/// alongside. `--infer` additionally strips each corpus program, re-infers
/// its annotations, and cross-checks every solver-proven obligation of the
/// refined program against the exact-rational oracle. `--scale` compiles a
/// seeded scale corpus under the workers × cache matrix, pinning the
/// generator's stamped verdict counts; diverging cases are shrunk and
/// written as `.dml` repros. Exits FAILURE if any divergence is found;
/// repro files land in `--repro-dir`.
fn fuzz(args: &[String]) -> ExitCode {
    let mut cfg = dml_oracle::FuzzConfig::default();
    let mut json = false;
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--seed" => match rest.next().and_then(|v| v.parse().ok()) {
                Some(s) => cfg.seed = s,
                None => {
                    eprintln!("--seed expects a number");
                    return ExitCode::FAILURE;
                }
            },
            "--iters" => match rest.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.iters = n,
                None => {
                    eprintln!("--iters expects a number");
                    return ExitCode::FAILURE;
                }
            },
            "--bound" => match rest.next().and_then(|v| v.parse().ok()) {
                Some(b) if b > 0 => cfg.bound = b,
                _ => {
                    eprintln!("--bound expects a positive number");
                    return ExitCode::FAILURE;
                }
            },
            "--repro-dir" => match rest.next() {
                Some(d) => cfg.repro_dir = Some(std::path::PathBuf::from(d)),
                None => {
                    eprintln!("--repro-dir expects a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--json" => json = true,
            "--infer" => cfg.infer = true,
            "--scale" => cfg.scale = true,
            "--no-programs" => cfg.programs = false,
            other => {
                eprintln!("unknown flag `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let report = dml_oracle::run_fuzz(&cfg);
    if json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_human());
    }
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `dmlc serve [--socket PATH]` — runs the persistent check service over
/// stdio (the default) or a Unix socket, holding one warm compiler session
/// — goal cache, worker pool, per-file state that replays
/// byte-identical re-checks — across every request.
/// Protocol: `docs/PROTOCOL.md`.
fn serve_cmd(session: &SessionSetup, args: &[String]) -> ExitCode {
    let mut socket: Option<String> = None;
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--socket" => match rest.next() {
                Some(p) => socket = Some(p.clone()),
                None => {
                    eprintln!("--socket expects a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown flag `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut service = dml::Session::new(session.compiler.clone());
    let result = match &socket {
        None => {
            eprintln!(
                "dmlc serve: reading requests from stdin (schemaVersion {})",
                dml::serve::SCHEMA_VERSION
            );
            dml::serve::serve_stdio(&mut service)
        }
        Some(path) => serve_socket(&mut service, path),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(unix)]
fn serve_socket(service: &mut dml::Session, path: &str) -> std::io::Result<()> {
    eprintln!("dmlc serve: listening on {path} (schemaVersion {})", dml::serve::SCHEMA_VERSION);
    dml::serve::serve_unix(service, std::path::Path::new(path))
}

#[cfg(not(unix))]
fn serve_socket(_service: &mut dml::Session, _path: &str) -> std::io::Result<()> {
    Err(std::io::Error::other("--socket requires a Unix platform"))
}

/// `dmlc stats --remote SOCKET` / `dmlc shutdown --remote SOCKET` —
/// methods that only make sense against a running daemon.
fn remote_only(session: &SessionSetup, method: &'static str) -> ExitCode {
    let Some(socket) = &session.remote else {
        eprintln!("usage: dmlc {method} --remote SOCKET");
        return ExitCode::FAILURE;
    };
    remote_simple(socket, method)
}

#[cfg(unix)]
fn remote_simple(socket: &str, method: &str) -> ExitCode {
    match remote::call(socket, method, Vec::new()) {
        Ok(result) => {
            println!("{}", remote::render(result));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(not(unix))]
fn remote_simple(_socket: &str, _method: &str) -> ExitCode {
    eprintln!("--remote requires a Unix platform");
    ExitCode::FAILURE
}

/// Sends a source-bearing request to the daemon and prints its `text`
/// result verbatim (the daemon renders through the same code paths the
/// local commands use).
#[cfg(unix)]
fn remote_text(socket: &str, method: &str, src: &str, extra: Vec<(&str, Json)>) -> ExitCode {
    let mut params = vec![("source", Json::Str(src.to_string()))];
    params.extend(extra);
    match remote::call(socket, method, params) {
        Ok(result) => {
            print!("{}", result.get("text").and_then(Json::as_str).unwrap_or_default());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(not(unix))]
fn remote_text(_socket: &str, _method: &str, _src: &str, _extra: Vec<(&str, Json)>) -> ExitCode {
    eprintln!("--remote requires a Unix platform");
    ExitCode::FAILURE
}

fn constraints(compiler: &Compiler, src: &str) -> ExitCode {
    match compiler.compile(src) {
        Ok(compiled) => {
            let mut unproven = 0usize;
            for (o, r) in compiled.obligations() {
                if !r.is_proven() {
                    unproven += 1;
                }
                println!("{o}  [{}]", if r.is_proven() { "valid" } else { "NOT PROVEN" });
            }
            // To stderr: cache counters vary with solver configuration,
            // while stdout stays byte-identical across workers/cache
            // settings (the determinism contract of the solve phase).
            let stats = compiled.stats();
            eprintln!(
                "solver cache: {} hits, {} misses",
                stats.solver.cache_hits, stats.solver.cache_misses
            );
            if unproven > 0 {
                eprintln!("{unproven} obligation(s) not proven");
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// `dmlc emit-rust <file> [--out DIR] [--checked|--unchecked-proven]
/// [--name NAME]` — compiles a checked program to a standalone Cargo crate
/// (see docs/EMIT.md for the emission contract).
///
/// The default variant is `--unchecked-proven`: array/list sites whose
/// guard obligations the solver proved become `get_unchecked`-style
/// accesses inside `// SAFETY: goal #N proven` unsafe blocks; everything
/// else (and the whole program under `--checked`) uses the hoisted checked
/// form. The default output directory is `emit/<name>_<variant>/`.
fn emit_rust(compiler: &Compiler, args: &[String]) -> ExitCode {
    let usage =
        "usage: dmlc emit-rust <file.dml> [--out DIR] [--checked|--unchecked-proven] [--name NAME]";
    let Some(path) = args.get(1) else {
        eprintln!("{usage}");
        return ExitCode::FAILURE;
    };
    let mut variant = dml_emit::Variant::UncheckedProven;
    let mut out_dir: Option<String> = None;
    let mut name: Option<String> = None;
    let mut rest = args[2..].iter();
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--checked" => variant = dml_emit::Variant::Checked,
            "--unchecked-proven" => variant = dml_emit::Variant::UncheckedProven,
            "--out" => match rest.next() {
                Some(d) => out_dir = Some(d.clone()),
                None => {
                    eprintln!("--out expects a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--name" => match rest.next() {
                Some(n) => name = Some(n.clone()),
                None => {
                    eprintln!("--name expects a crate name");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown flag `{other}`\n{usage}");
                return ExitCode::FAILURE;
            }
        }
    }
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let compiled = match compiler.compile(&src) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let schemes = match dml_types::infer::infer_program(compiled.program(), compiled.env()) {
        Ok(r) => r.schemes,
        Err(e) => {
            eprintln!("phase-1 re-inference failed: {e:?}");
            return ExitCode::FAILURE;
        }
    };
    let sites = compiled.site_verdicts();
    let stem = std::path::Path::new(path).file_stem().and_then(|s| s.to_str()).unwrap_or("program");
    let variant_tag = match variant {
        dml_emit::Variant::Checked => "checked",
        dml_emit::Variant::UncheckedProven => "unchecked",
    };
    let crate_name =
        name.unwrap_or_else(|| format!("{}_{variant_tag}", dml_emit::sanitize_crate_name(stem)));
    let opts = dml_emit::EmitOptions { variant, crate_name: crate_name.clone() };
    let emitted =
        match dml_emit::emit_program(compiled.program(), compiled.env(), &schemes, sites, &opts) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
    let dir = out_dir.unwrap_or_else(|| format!("emit/{crate_name}"));
    let dir = std::path::Path::new(&dir);
    if let Err(e) = dml_emit::write_crate(&emitted, dir) {
        eprintln!("cannot write {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let proven = sites.iter().filter(|s| s.proven).count();
    println!("emitted {} ({}) to {}", emitted.crate_name, variant, dir.display());
    println!(
        "sites: {} proven of {} total; lowered {} unchecked, {} checked",
        proven,
        sites.len(),
        emitted.stats.unchecked_sites,
        emitted.stats.checked_sites
    );
    if let Some(reason) = &emitted.driver_fallback {
        println!("driver: build-only fallback ({reason})");
    } else {
        println!("driver: benchmark main synthesised (argv: [size] [iters] [seed])");
    }
    println!("build: cargo build --release --manifest-path {}/Cargo.toml", dir.display());
    ExitCode::SUCCESS
}

/// `dmlc lint <file> [--format human|json|sarif] [--deny CODE]`
///
/// Exit code contract: FAILURE on compile errors, on unknown flags, and
/// whenever any finding has error severity (a `--deny`'d code promotes its
/// findings to errors); SUCCESS otherwise, warnings included.
fn lint(compiler: &Compiler, args: &[String]) -> ExitCode {
    let Some(path) = args.get(1) else {
        eprintln!("usage: dmlc lint <file.dml> [--format human|json|sarif] [--deny CODE]");
        return ExitCode::FAILURE;
    };
    let mut format = "human".to_string();
    let mut deny: Vec<&'static str> = Vec::new();
    let mut rest = args[2..].iter();
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--format" => match rest.next().map(String::as_str) {
                Some(f @ ("human" | "json" | "sarif")) => format = f.to_string(),
                other => {
                    eprintln!(
                        "--format expects human|json|sarif, got {}",
                        other.unwrap_or("nothing")
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--deny" => match rest.next().and_then(|c| dml::lint_by_code(c)) {
                Some(l) => deny.push(l.code),
                None => {
                    eprintln!("--deny expects a known lint code (DML001..DML007) or name");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown flag `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let compiled = match compiler.compile(&src) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut findings = compiled.lints();
    for f in &mut findings {
        if deny.contains(&f.code) {
            f.severity = Severity::Error;
        }
    }
    match format.as_str() {
        "human" => print!("{}", dml::render::human(&findings, &src)),
        "json" => print!("{}", dml::render::json(&findings, &src)),
        "sarif" => print!("{}", dml::render::sarif(&findings, &src, path)),
        _ => unreachable!("validated above"),
    }
    if findings.iter().any(|f| f.severity == Severity::Error) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn run(compiler: &Compiler, args: &[String]) -> ExitCode {
    let (Some(path), Some(fun)) = (args.get(1), args.get(2)) else {
        eprintln!("usage: dmlc run <file.dml> <fun> [ints...]");
        return ExitCode::FAILURE;
    };
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let compiled = match compiler.compile(&src) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ints = Vec::new();
    for a in &args[3..] {
        match a.parse::<i64>() {
            Ok(n) => ints.push(Value::Int(n)),
            Err(_) => {
                eprintln!("argument `{a}` is not an integer");
                return ExitCode::FAILURE;
            }
        }
    }
    let call_args = match ints.len() {
        0 => vec![Value::Unit],
        1 => ints,
        _ => vec![Value::Tuple(std::rc::Rc::new(ints))],
    };
    let mut machine = compiled.machine(Mode::Eliminated);
    match machine.call(fun, call_args) {
        Ok(v) => {
            println!("{v}");
            println!(
                "checks: {} executed ({} residual), {} eliminated",
                machine.counters.executed(),
                machine.counters.residual(),
                machine.counters.eliminated()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("runtime error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn table(args: &[String]) -> ExitCode {
    let timings = args.iter().any(|a| a == "--timings");
    let infer = args.iter().any(|a| a == "--infer");
    let rest: Vec<&String> = args.iter().filter(|a| *a != "--timings" && *a != "--infer").collect();
    let which = rest.get(1).map(|s| s.as_str()).unwrap_or("1");
    let factor: u32 = rest.get(2).and_then(|s| s.parse().ok()).unwrap_or(1);
    match which {
        "1" if infer => {
            print!("{}", experiments::table1_infer_rendered(&experiments::table1_infer()));
        }
        "1" => {
            let rows = experiments::table1();
            print!("{}", experiments::table1_rows_rendered(&rows));
            if timings {
                print!("{}", experiments::table1_timings(&rows));
            }
        }
        "2" => print!("{}", experiments::table_rendered(&experiments::table2(factor))),
        other => {
            eprintln!("unknown table `{other}` (expected 1 or 2)");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
