//! Transport loops for the check service: line-delimited JSON over stdio
//! or a Unix socket, dispatching to a [`Session`].
//!
//! The daemon is deliberately sequential — one request at a time per
//! connection, connections accepted one after another. Parallelism lives
//! *below* this layer, in the solver's fan-out; serialising requests
//! keeps verdict output deterministic and the session state free of locks.

use super::protocol::{self, ErrorCode, Request};
use super::session::{CheckOutcome, Session};
use dml_obs::json::{obj, Json};
use std::io::{self, BufRead, Write};

/// Serves one connection until EOF or a `shutdown` request. Returns
/// `Ok(true)` when the client asked the whole service to shut down,
/// `Ok(false)` on plain EOF (the session stays warm for the next
/// connection).
///
/// # Errors
///
/// Propagates transport I/O failures (a failed read or write). Protocol
/// and compile errors are answered in-band and never tear the loop down.
pub fn serve_connection<R: BufRead, W: Write>(
    session: &mut Session,
    reader: R,
    writer: &mut W,
) -> io::Result<bool> {
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let request = match protocol::parse_request(&line) {
            Ok(r) => r,
            Err((code, message, id)) => {
                write_response(writer, protocol::response_err(id.as_ref(), code, &message))?;
                continue;
            }
        };
        let id = request.id.clone();
        let shutdown = request.method == "shutdown";
        let response = match dispatch(session, &request) {
            Ok(result) => protocol::response_ok(id.as_ref(), result),
            Err((code, message)) => protocol::response_err(id.as_ref(), code, &message),
        };
        write_response(writer, response)?;
        if shutdown {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Serves requests from stdin to stdout until EOF or `shutdown` — the
/// `dmlc serve` default, and what clients spawn for a private daemon.
///
/// # Errors
///
/// Propagates stdio failures.
pub fn serve_stdio(session: &mut Session) -> io::Result<()> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    serve_connection(session, stdin.lock(), &mut stdout.lock())?;
    Ok(())
}

/// Binds `path` and serves connections sequentially until some client
/// sends `shutdown`. A stale socket file at `path` is replaced; the file
/// is removed again on orderly shutdown.
///
/// # Errors
///
/// Propagates bind/accept/transport failures.
#[cfg(unix)]
pub fn serve_unix(session: &mut Session, path: &std::path::Path) -> io::Result<()> {
    use std::os::unix::net::UnixListener;

    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    loop {
        let (stream, _) = listener.accept()?;
        let reader = io::BufReader::new(stream.try_clone()?);
        let mut writer = io::BufWriter::new(stream);
        let shutdown = serve_connection(session, reader, &mut writer)?;
        writer.flush()?;
        if shutdown {
            break;
        }
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

fn write_response<W: Write>(writer: &mut W, response: String) -> io::Result<()> {
    writer.write_all(response.as_bytes())?;
    writer.flush()
}

type MethodError = (ErrorCode, String);

fn dispatch(session: &mut Session, request: &Request) -> Result<Json, MethodError> {
    match request.method.as_str() {
        "check" => {
            let source = required_str(&request.params, "source")?;
            let path = optional_str(&request.params, "path")?;
            let outcome = session.check(path, source).map_err(|e| (ErrorCode::CompileError, e))?;
            Ok(check_json(&outcome))
        }
        "explain" => {
            let source = required_str(&request.params, "source")?;
            let goal = match request.params.get("goal") {
                None | Some(Json::Null) => None,
                Some(v) => Some(
                    v.as_i64()
                        .filter(|n| *n >= 1)
                        .ok_or_else(|| bad_params("`goal` must be a positive integer"))?
                        as usize,
                ),
            };
            let text = session.explain(source, goal).map_err(|e| (ErrorCode::CompileError, e))?;
            Ok(obj(vec![("text", Json::Str(text))]))
        }
        "infer" => {
            let source = required_str(&request.params, "source")?;
            let json = match request.params.get("json") {
                None | Some(Json::Null) => false,
                Some(v) => v.as_bool().ok_or_else(|| bad_params("`json` must be a boolean"))?,
            };
            let text = session.infer(source, json).map_err(|e| (ErrorCode::CompileError, e))?;
            Ok(obj(vec![("text", Json::Str(text))]))
        }
        "stats" => Ok(session.stats_json()),
        "shutdown" => Ok(obj(vec![("ok", Json::Bool(true))])),
        other => Err((ErrorCode::UnknownMethod, format!("unknown method `{other}`"))),
    }
}

fn check_json(outcome: &CheckOutcome) -> Json {
    let s = &outcome.stats;
    obj(vec![
        ("report", Json::Str(outcome.report.text.clone())),
        ("ok", Json::Bool(outcome.report.ok)),
        ("fullyVerified", Json::Bool(outcome.fully_verified)),
        ("incremental", Json::Bool(outcome.incremental)),
        (
            "stats",
            obj(vec![
                ("constraints", Json::Int(s.constraints as i64)),
                ("goals", Json::Int(s.goals as i64)),
                ("obligationsReused", Json::Int(s.obligations_reused as i64)),
                ("cacheHits", Json::Int(s.solver.cache_hits as i64)),
                ("cacheMisses", Json::Int(s.solver.cache_misses as i64)),
                ("generationMs", Json::Num(s.generation_time.as_secs_f64() * 1e3)),
                ("solveMs", Json::Num(s.solve_time.as_secs_f64() * 1e3)),
            ]),
        ),
    ])
}

fn required_str<'a>(params: &'a Json, key: &str) -> Result<&'a str, MethodError> {
    params
        .get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| bad_params(&format!("missing required string param `{key}`")))
}

fn optional_str<'a>(params: &'a Json, key: &str) -> Result<Option<&'a str>, MethodError> {
    match params.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| bad_params(&format!("param `{key}` must be a string"))),
    }
}

fn bad_params(message: &str) -> MethodError {
    (ErrorCode::BadParams, message.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Compiler;
    use std::io::Cursor;

    const VERIFIED: &str =
        "fun first(v) = sub(v, 0)\\nwhere first <| {n:nat | n > 0} int array(n) -> int\\n";

    fn drive(session: &mut Session, script: &str) -> (bool, Vec<Json>) {
        let mut out = Vec::new();
        let shutdown =
            serve_connection(session, Cursor::new(script.to_string()), &mut out).unwrap();
        let responses = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).expect("server emits valid JSON"))
            .collect();
        (shutdown, responses)
    }

    #[test]
    fn check_stats_shutdown_round_trip() {
        let mut session = Session::new(Compiler::new());
        let script = format!(
            "{{\"schemaVersion\":2,\"id\":1,\"method\":\"check\",\
               \"params\":{{\"source\":\"{VERIFIED}\",\"path\":\"a.dml\"}}}}\n\
             {{\"schemaVersion\":2,\"id\":2,\"method\":\"check\",\
               \"params\":{{\"source\":\"{VERIFIED}\",\"path\":\"a.dml\"}}}}\n\
             {{\"schemaVersion\":2,\"id\":3,\"method\":\"stats\"}}\n\
             {{\"schemaVersion\":2,\"id\":4,\"method\":\"shutdown\"}}\n"
        );
        let (shutdown, rs) = drive(&mut session, &script);
        assert!(shutdown);
        assert_eq!(rs.len(), 4);

        let first = rs[0].get("result").expect("check 1 succeeds");
        assert_eq!(first.get("fullyVerified").and_then(Json::as_bool), Some(true));
        assert_eq!(first.get("incremental").and_then(Json::as_bool), Some(false));

        let second = rs[1].get("result").expect("check 2 succeeds");
        assert_eq!(second.get("incremental").and_then(Json::as_bool), Some(true));
        assert_eq!(
            second.get("stats").and_then(|s| s.get("goals")).and_then(Json::as_i64),
            Some(0),
            "warm re-check of an unchanged file solves nothing"
        );

        let stats = rs[2].get("result").expect("stats succeeds");
        assert_eq!(
            stats.get("requests").and_then(|r| r.get("check")).and_then(Json::as_i64),
            Some(2)
        );
        assert_eq!(rs[3].get("id").and_then(Json::as_i64), Some(4));
        assert!(rs[3].get("result").is_some(), "shutdown acknowledges");
    }

    #[test]
    fn errors_are_in_band_and_correlated() {
        let mut session = Session::new(Compiler::new());
        let script = "\
            not json at all\n\
            {\"schemaVersion\":2,\"id\":\"m\",\"method\":\"mystery\"}\n\
            {\"schemaVersion\":2,\"id\":5,\"method\":\"check\",\"params\":{}}\n\
            {\"schemaVersion\":2,\"id\":6,\"method\":\"check\",\
             \"params\":{\"source\":\"fun broken(\"}}\n";
        let (shutdown, rs) = drive(&mut session, script);
        assert!(!shutdown, "errors never kill the connection; EOF ends it");
        let codes: Vec<_> = rs
            .iter()
            .map(|r| {
                r.get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_str)
                    .expect("all four are errors")
                    .to_string()
            })
            .collect();
        assert_eq!(codes, ["bad-request", "unknown-method", "bad-params", "compile-error"]);
        assert_eq!(rs[1].get("id").and_then(Json::as_str), Some("m"));
        assert_eq!(rs[2].get("id").and_then(Json::as_i64), Some(5));
    }

    #[test]
    fn deeply_nested_line_is_a_bad_request_and_serving_continues() {
        let mut session = Session::new(Compiler::new());
        let script =
            "[".repeat(200_000) + "\n{\"schemaVersion\":2,\"id\":2,\"method\":\"stats\"}\n";
        let (shutdown, rs) = drive(&mut session, &script);
        assert!(!shutdown);
        assert_eq!(rs.len(), 2);
        assert_eq!(
            rs[0].get("error").and_then(|e| e.get("code")).and_then(Json::as_str),
            Some("bad-request")
        );
        assert_eq!(rs[1].get("id").and_then(Json::as_i64), Some(2));
        assert!(rs[1].get("result").and_then(|r| r.get("requests")).is_some(), "stats answered");
    }

    #[test]
    fn explain_over_the_wire_matches_in_process() {
        let mut session = Session::new(Compiler::new());
        let script = format!(
            "{{\"schemaVersion\":2,\"id\":1,\"method\":\"explain\",\
               \"params\":{{\"source\":\"{VERIFIED}\",\"goal\":1}}}}\n"
        );
        let (_, rs) = drive(&mut session, &script);
        let text = rs[0]
            .get("result")
            .and_then(|r| r.get("text"))
            .and_then(Json::as_str)
            .expect("explain succeeds")
            .to_string();
        let direct =
            Session::new(Compiler::new()).explain(&VERIFIED.replace("\\n", "\n"), Some(1)).unwrap();
        assert_eq!(text, direct);
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_serves_and_shuts_down() {
        use std::io::{BufRead, BufReader, Write};
        use std::os::unix::net::UnixStream;

        let dir = std::env::temp_dir().join(format!("dml-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("dmlc.sock");
        let sock_for_server = sock.clone();
        let server = std::thread::spawn(move || {
            let mut session = Session::new(Compiler::new());
            serve_unix(&mut session, &sock_for_server).unwrap();
        });
        while !sock.exists() {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let stream = UnixStream::connect(&sock).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writer
            .write_all(
                format!(
                    "{{\"schemaVersion\":2,\"id\":1,\"method\":\"check\",\
                       \"params\":{{\"source\":\"{VERIFIED}\"}}}}\n\
                     {{\"schemaVersion\":2,\"id\":2,\"method\":\"shutdown\"}}\n"
                )
                .as_bytes(),
            )
            .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let check = Json::parse(line.trim()).unwrap();
        assert_eq!(
            check.get("result").and_then(|r| r.get("ok")).and_then(Json::as_bool),
            Some(true)
        );
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"result\""), "shutdown acknowledged: {line}");
        server.join().unwrap();
        assert!(!sock.exists(), "socket file cleaned up on shutdown");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
