//! The `--remote` client: one request to a running `dmlc serve` daemon
//! over its Unix socket, rendered exactly like the local command would
//! render it. The daemon renders reports through the same
//! [`dml::report::check_report`] the one-shot path uses, so routing a
//! command through `--remote` changes wall time, not bytes.

use dml::serve::protocol::{self, Json};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;

/// Sends one request and returns the response's `result` value.
///
/// # Errors
///
/// A printable message for connection failures, transport failures, and
/// in-band protocol errors (the daemon's `error.message`, which for
/// `compile-error` is the same text local `dmlc` prints to stderr).
pub fn call(socket: &str, method: &str, params: Vec<(&str, Json)>) -> Result<Json, String> {
    let stream = UnixStream::connect(socket).map_err(|e| {
        format!(
            "cannot connect to daemon at {socket}: {e}\n\
             (start one with `dmlc serve --socket {socket}`)"
        )
    })?;
    let mut writer = stream.try_clone().map_err(|e| format!("socket error: {e}"))?;
    writer
        .write_all(protocol::request_line(1, method, params).as_bytes())
        .map_err(|e| format!("cannot write to daemon: {e}"))?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| format!("cannot read daemon response: {e}"))?;
    if line.trim().is_empty() {
        return Err("daemon closed the connection without responding".to_string());
    }
    let response =
        Json::parse(line.trim()).map_err(|e| format!("daemon sent invalid JSON: {e}"))?;
    if let Some(err) = response.get("error") {
        let code = err.get("code").and_then(Json::as_str).unwrap_or("internal-error");
        let message = err.get("message").and_then(Json::as_str).unwrap_or("unknown error");
        return Err(if code == "compile-error" {
            message.to_string()
        } else {
            format!("daemon error ({code}): {message}")
        });
    }
    response
        .get("result")
        .cloned()
        .ok_or_else(|| "daemon response has neither result nor error".to_string())
}

/// Re-renders a parsed response value as JSON (for `dmlc stats --remote`).
/// Parsing reads every number as a float, so whole numbers go back to
/// integers to render exactly as the daemon wrote them.
pub fn render(v: Json) -> String {
    int_whole_numbers(v).render()
}

fn int_whole_numbers(v: Json) -> Json {
    match v {
        Json::Num(_) => v.as_i64().map_or(v, Json::Int),
        Json::Array(items) => Json::Array(items.into_iter().map(int_whole_numbers).collect()),
        Json::Object(fields) => {
            Json::Object(fields.into_iter().map(|(k, v)| (k, int_whole_numbers(v))).collect())
        }
        other => other,
    }
}
