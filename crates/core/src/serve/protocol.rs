//! The `dmlc serve` wire protocol: versioned JSON requests and responses,
//! one per line.
//!
//! # Message shapes
//!
//! Every request is a single-line JSON object:
//!
//! ```json
//! {"schemaVersion":2,"id":1,"method":"check","params":{"source":"..."}}
//! ```
//!
//! * `schemaVersion` (required) — the protocol version the client speaks.
//!   This module accepts exactly [`SCHEMA_VERSION`]; anything else is
//!   answered with an `unsupported-schema` error so old clients fail
//!   loudly instead of misparsing.
//! * `id` (optional) — a string or integer echoed verbatim on the
//!   response, for request/response correlation over a pipelined
//!   connection.
//! * `method` (required) — `check`, `infer`, `explain`, `stats`, or
//!   `shutdown`.
//! * `params` (optional object) — method-specific; see `docs/PROTOCOL.md`.
//!
//! Responses mirror the shape: `{"schemaVersion":2,"id":...,"result":{...}}`
//! on success, `{"schemaVersion":2,"id":...,"error":{"code":"...",
//! "message":"..."}}` on failure.
//!
//! **Unknown-field tolerance:** readers on both sides pick the fields they
//! know and ignore the rest, so adding response fields (or clients sending
//! extra hints) is not a breaking change. Removing or re-typing a field
//! bumps [`SCHEMA_VERSION`].
//!
//! Parsing and rendering both go through [`dml_obs::json`], the
//! workspace's one JSON module. Its parser caps nesting depth, so a
//! hostile request line is answered with `bad-request` instead of
//! overflowing the stack.

use std::fmt;

pub use dml_obs::json::{obj, Json};

/// The wire-protocol version this build speaks. Bumped whenever a field is
/// removed or its meaning changes; additive fields do not bump it.
pub const SCHEMA_VERSION: i64 = 2;

/// Renders a request line (the client side of the wire), newline included.
/// The id is echoed back on the matching response.
pub fn request_line(id: i64, method: &str, params: Vec<(&str, Json)>) -> String {
    obj(vec![
        ("schemaVersion", Json::Int(SCHEMA_VERSION)),
        ("id", Json::Int(id)),
        ("method", Json::Str(method.to_string())),
        ("params", obj(params)),
    ])
    .render()
        + "\n"
}

/// Machine-readable error category on an error response. The code set is
/// part of the stable protocol (`docs/PROTOCOL.md`); new codes may be
/// added, existing ones never change meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line is not valid JSON, or lacks a `method`.
    BadRequest,
    /// `schemaVersion` is missing or not a version this server speaks.
    UnsupportedSchema,
    /// `method` names no known request type.
    UnknownMethod,
    /// `params` is missing a required field or a field has the wrong type.
    BadParams,
    /// The program failed to compile (parse/type/elaboration error, or an
    /// unproven obligation under `strict`). The message is the same text
    /// one-shot `dmlc` prints to stderr.
    CompileError,
}

impl ErrorCode {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnsupportedSchema => "unsupported-schema",
            ErrorCode::UnknownMethod => "unknown-method",
            ErrorCode::BadParams => "bad-params",
            ErrorCode::CompileError => "compile-error",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A validated request envelope.
#[derive(Debug, Clone)]
pub struct Request {
    /// Correlation id to echo (string or integer), if the client sent one.
    pub id: Option<Json>,
    /// The method name.
    pub method: String,
    /// Method parameters (an empty object when absent).
    pub params: Json,
}

/// Parses and validates one request line. On error, returns the code, a
/// message, and the request id when one could still be extracted (so the
/// error response stays correlatable).
///
/// # Errors
///
/// [`ErrorCode::BadRequest`] for malformed JSON or a missing/mistyped
/// `method`; [`ErrorCode::UnsupportedSchema`] for a missing or
/// incompatible `schemaVersion`.
pub fn parse_request(line: &str) -> Result<Request, (ErrorCode, String, Option<Json>)> {
    let v = Json::parse(line)
        .map_err(|e| (ErrorCode::BadRequest, format!("invalid JSON: {e}"), None))?;
    let id = extract_id(&v);
    match v.get("schemaVersion").and_then(Json::as_i64) {
        Some(SCHEMA_VERSION) => {}
        Some(other) => {
            return Err((
                ErrorCode::UnsupportedSchema,
                format!(
                    "schemaVersion {other} not supported (this server speaks {SCHEMA_VERSION})"
                ),
                id,
            ));
        }
        None => {
            return Err((
                ErrorCode::UnsupportedSchema,
                format!("missing schemaVersion (this server speaks {SCHEMA_VERSION})"),
                id,
            ));
        }
    }
    let method = match v.get("method").and_then(Json::as_str) {
        Some(m) => m.to_string(),
        None => return Err((ErrorCode::BadRequest, "missing `method` string".to_string(), id)),
    };
    let params = v.get("params").cloned().unwrap_or(Json::Object(Vec::new()));
    Ok(Request { id, method, params })
}

/// The echo-able request id: strings and whole numbers only (other JSON
/// types are ignored rather than rejected — id is a convenience).
fn extract_id(v: &Json) -> Option<Json> {
    let id = v.get("id")?;
    match id.as_str() {
        Some(s) => Some(Json::Str(s.to_string())),
        None => id.as_i64().map(Json::Int),
    }
}

/// Renders a success response line (newline included).
pub fn response_ok(id: Option<&Json>, result: Json) -> String {
    envelope(id, ("result", result))
}

/// Renders an error response line (newline included).
pub fn response_err(id: Option<&Json>, code: ErrorCode, message: &str) -> String {
    envelope(
        id,
        (
            "error",
            obj(vec![
                ("code", Json::Str(code.as_str().to_string())),
                ("message", Json::Str(message.to_string())),
            ]),
        ),
    )
}

fn envelope(id: Option<&Json>, payload: (&str, Json)) -> String {
    let mut fields = vec![("schemaVersion", Json::Int(SCHEMA_VERSION))];
    if let Some(id) = id {
        fields.push(("id", id.clone()));
    }
    fields.push(payload);
    obj(fields).render() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip_and_unknown_field_tolerance() {
        let line = r#"{"schemaVersion":2,"id":7,"method":"check",
            "futureField":{"x":[1]},"params":{"source":"fun id(x) = x","alsoNew":true}}"#
            .replace('\n', " ");
        let req = parse_request(&line).expect("tolerates unknown fields");
        assert_eq!(req.method, "check");
        assert_eq!(req.params.get("source").and_then(Json::as_str), Some("fun id(x) = x"));
        let ok = response_ok(req.id.as_ref(), obj(vec![("ok", Json::Bool(true))]));
        assert_eq!(ok, "{\"schemaVersion\":2,\"id\":7,\"result\":{\"ok\":true}}\n");
    }

    #[test]
    fn schema_version_is_enforced() {
        let (code, _, id) =
            parse_request(r#"{"schemaVersion":1,"id":"x","method":"check"}"#).unwrap_err();
        assert_eq!(code, ErrorCode::UnsupportedSchema);
        assert_eq!(id, Some(Json::Str("x".to_string())));
        let (code, _, _) = parse_request(r#"{"method":"check"}"#).unwrap_err();
        assert_eq!(code, ErrorCode::UnsupportedSchema);
        let (code, _, _) = parse_request(r#"{"schemaVersion":2}"#).unwrap_err();
        assert_eq!(code, ErrorCode::BadRequest);
    }
}
