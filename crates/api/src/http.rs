//! Minimal HTTP/1.1 for the serving layer: a pure request parser, the
//! route table, and response rendering.
//!
//! Everything here is sans-io (bytes in, bytes out) so it unit-tests
//! without sockets; `server` drives it over the vendored
//! `tokio::net::TcpListener`. The surface is deliberately tiny — `GET`
//! only, length-delimited keep-alive responses (so a polling reader
//! reuses one connection instead of paying a dial per poll), streams
//! close-delimited — because the readers are dashboards, light clients,
//! and `curl`, not general HTTP agents. Like the TOML parser in
//! `delphi-net::config`, it is hand-rolled against a fixed grammar
//! rather than vendored.

use std::sync::Arc;

use delphi_primitives::{json_f64, InstanceId};

use crate::attest::attestation_to_hex;
use crate::feed::FeedUpdate;

/// Hard cap on a request head (request line + headers). Anything larger
/// is rejected before buffering more — the parser's DoS guard.
pub const MAX_REQUEST_HEAD: usize = 8 * 1024;

/// Why a request was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HttpError {
    /// The bytes are not a well-formed HTTP/1.x request head.
    Malformed(&'static str),
    /// The head exceeded [`MAX_REQUEST_HEAD`] without terminating.
    TooLarge,
}

/// A parsed request head: the method and the request target (path plus
/// optional query). Headers are validated for shape but not retained —
/// no route reads them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// The request method (`GET` for everything this server serves).
    pub method: String,
    /// The origin-form target, e.g. `/v0/history/2?limit=5`.
    pub target: String,
    /// Bytes the head consumed from the buffer (through the blank
    /// line) — what a keep-alive connection drains before the next
    /// request.
    pub head_len: usize,
}

/// Incremental request parsing over whatever has been read so far.
///
/// Returns `Ok(None)` while the head is incomplete (read more bytes and
/// call again), `Ok(Some(request))` once the blank line arrived.
///
/// # Errors
///
/// [`HttpError::TooLarge`] once `buf` exceeds [`MAX_REQUEST_HEAD`]
/// without a terminator; [`HttpError::Malformed`] on a head that can
/// never become valid HTTP/1.x.
pub fn parse_request(buf: &[u8]) -> Result<Option<Request>, HttpError> {
    let head_end = find_head_end(buf);
    if head_end.is_none() {
        if buf.len() > MAX_REQUEST_HEAD {
            return Err(HttpError::TooLarge);
        }
        // An early sanity check so garbage fails fast instead of after
        // 8 KiB: the first line, once complete, must parse.
        if buf.windows(2).any(|w| w == b"\r\n") {
            parse_request_line(buf)?;
        }
        return Ok(None);
    }
    let head_len = head_end.expect("checked above");
    let head = &buf[..head_len];
    if head.len() > MAX_REQUEST_HEAD {
        return Err(HttpError::TooLarge);
    }
    let (method, target) = parse_request_line(head)?;
    let text = std::str::from_utf8(head).map_err(|_| HttpError::Malformed("not utf-8"))?;
    for line in text.split("\r\n").skip(1).filter(|l| !l.is_empty()) {
        let (name, _) = line.split_once(':').ok_or(HttpError::Malformed("header without colon"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::Malformed("bad header name"));
        }
    }
    Ok(Some(Request { method, target, head_len }))
}

/// Index just past the `\r\n\r\n` terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4)
}

/// Parses the request line out of `buf` (which must hold at least one
/// complete `\r\n`-terminated line).
fn parse_request_line(buf: &[u8]) -> Result<(String, String), HttpError> {
    let line_end =
        buf.windows(2).position(|w| w == b"\r\n").ok_or(HttpError::Malformed("no request line"))?;
    let line =
        std::str::from_utf8(&buf[..line_end]).map_err(|_| HttpError::Malformed("not utf-8"))?;
    let mut parts = line.split(' ');
    let method = parts.next().unwrap_or("");
    let target = parts.next().ok_or(HttpError::Malformed("no target"))?;
    let version = parts.next().ok_or(HttpError::Malformed("no version"))?;
    if parts.next().is_some() {
        return Err(HttpError::Malformed("extra request-line fields"));
    }
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::Malformed("bad method"));
    }
    if !target.starts_with('/') {
        return Err(HttpError::Malformed("target must be origin-form"));
    }
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("not http/1.x"));
    }
    Ok((method.to_string(), target.to_string()))
}

/// The route table: everything the serving layer answers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// `GET /v0/health` — liveness plus updates served.
    Health,
    /// `GET /v0/stats` — epoch and transport counters.
    Stats,
    /// `GET /v0/latest/{asset}` — latest update snapshot.
    Latest(InstanceId),
    /// `GET /v0/history/{asset}?limit=K` — recent updates, newest first.
    History {
        /// The asset whose history is requested.
        asset: InstanceId,
        /// Maximum updates to return.
        limit: usize,
    },
    /// `GET /v0/attestation/{asset}` — the latest slot attestation with
    /// its verification parameters.
    Attestation(InstanceId),
    /// `GET /v0/subscribe/{asset}` — ndjson stream of updates.
    Subscribe(InstanceId),
    /// Anything else.
    NotFound,
}

/// Default and cap for `/v0/history` limits.
pub const DEFAULT_HISTORY_LIMIT: usize = 16;
/// Hard cap on `/v0/history?limit=`.
pub const MAX_HISTORY_LIMIT: usize = 256;

/// Resolves a request target to a [`Route`].
pub fn route(target: &str) -> Route {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    match path {
        "/v0/health" => Route::Health,
        "/v0/stats" => Route::Stats,
        _ => {
            let asset = |prefix: &str| {
                path.strip_prefix(prefix).and_then(|raw| raw.parse::<u16>().ok()).map(InstanceId)
            };
            if let Some(a) = asset("/v0/latest/") {
                Route::Latest(a)
            } else if let Some(a) = asset("/v0/history/") {
                let limit = query
                    .and_then(|q| q.split('&').find_map(|kv| kv.strip_prefix("limit=")))
                    .and_then(|v| v.parse::<usize>().ok())
                    .unwrap_or(DEFAULT_HISTORY_LIMIT);
                Route::History { asset: a, limit: limit.clamp(1, MAX_HISTORY_LIMIT) }
            } else if let Some(a) = asset("/v0/attestation/") {
                Route::Attestation(a)
            } else if let Some(a) = asset("/v0/subscribe/") {
                Route::Subscribe(a)
            } else {
                Route::NotFound
            }
        }
    }
}

/// Renders a full length-delimited response: status line, minimal
/// headers, body. The declared length lets the connection stay open for
/// the next request (keep-alive).
pub fn response(status: u16, content_type: &str, body: &str) -> Vec<u8> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        _ => "Error",
    };
    format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\n\
         content-length: {}\r\nconnection: keep-alive\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The response head that opens an `/v0/subscribe` stream: ndjson with no
/// declared length, delimited by connection close.
pub fn stream_head() -> Vec<u8> {
    b"HTTP/1.1 200 OK\r\ncontent-type: application/x-ndjson\r\nconnection: close\r\n\r\n".to_vec()
}

/// One update as a JSON object (the body of `/v0/latest`, one line of
/// `/v0/subscribe`, one element of `/v0/history`).
pub fn json_update(update: &FeedUpdate) -> String {
    let mut out = format!(
        "{{\"epoch\":{},\"asset\":{},\"value\":{}",
        update.epoch.0,
        update.asset.0,
        json_f64(update.value)
    );
    if let Some(att) = &update.attestation {
        out.push_str(&format!(",\"attestation\":\"{}\"", attestation_to_hex(att)));
    }
    out.push('}');
    out
}

/// History body: newest-first array of updates.
pub fn json_history(asset: InstanceId, updates: &[Arc<FeedUpdate>]) -> String {
    let items: Vec<String> = updates.iter().map(|u| json_update(u)).collect();
    format!("{{\"asset\":{},\"updates\":[{}]}}", asset.0, items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use delphi_primitives::EpochId;

    #[test]
    fn complete_request_parses_incrementally() {
        let raw = b"GET /v0/latest/0 HTTP/1.1\r\nhost: x\r\naccept: */*\r\n\r\n";
        // Every strict prefix is incomplete, never an error.
        for cut in 0..raw.len() {
            assert_eq!(parse_request(&raw[..cut]), Ok(None), "prefix {cut}");
        }
        let req = parse_request(raw).unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/v0/latest/0");
        assert_eq!(req.head_len, raw.len(), "head_len covers the whole head");
        // Trailing bytes past the head (a pipelined next request) don't
        // confuse it, and head_len tells keep-alive where they start.
        let mut extended = raw.to_vec();
        extended.extend_from_slice(b"GET /v0/health HTT");
        let first = parse_request(&extended).unwrap().unwrap();
        assert_eq!(first.target, "/v0/latest/0");
        assert_eq!(first.head_len, raw.len());
    }

    #[test]
    fn malformed_requests_are_rejected_early() {
        // A bad request line fails as soon as the line is complete —
        // before the blank-line terminator ever arrives.
        assert!(parse_request(b"NOT A REQUEST\r\n").is_err());
        assert!(parse_request(b"get /lower HTTP/1.1\r\n\r\n").is_err(), "lowercase method");
        assert!(parse_request(b"GET nopath HTTP/1.1\r\n\r\n").is_err(), "non-origin target");
        assert!(parse_request(b"GET / SPDY/3\r\n\r\n").is_err(), "wrong protocol");
        assert!(parse_request(b"GET / HTTP/1.1 extra\r\n\r\n").is_err(), "extra fields");
        assert!(parse_request(b"GET / HTTP/1.1\r\nbad header line\r\n\r\n").is_err());
        assert!(parse_request(b"GET / HTTP/1.1\r\nname space: v\r\n\r\n").is_err());
        assert!(parse_request(b"GET \xff\xfe HTTP/1.1\r\n\r\n").is_err(), "not utf-8");
    }

    #[test]
    fn oversized_heads_are_cut_off() {
        // A header that never terminates: rejected once past the cap,
        // incomplete before it.
        let mut raw = b"GET /v0/health HTTP/1.1\r\nx: ".to_vec();
        raw.resize(MAX_REQUEST_HEAD, b'a');
        assert_eq!(parse_request(&raw), Ok(None));
        raw.resize(MAX_REQUEST_HEAD + 1, b'a');
        assert_eq!(parse_request(&raw), Err(HttpError::TooLarge));
        // A terminated head over the cap is equally rejected.
        let mut huge = b"GET / HTTP/1.1\r\nx: ".to_vec();
        huge.resize(MAX_REQUEST_HEAD + 8, b'b');
        huge.extend_from_slice(b"\r\n\r\n");
        assert_eq!(parse_request(&huge), Err(HttpError::TooLarge));
    }

    #[test]
    fn route_table_resolves_paths_and_limits() {
        assert_eq!(route("/v0/health"), Route::Health);
        assert_eq!(route("/v0/stats"), Route::Stats);
        assert_eq!(route("/v0/latest/3"), Route::Latest(InstanceId(3)));
        assert_eq!(
            route("/v0/history/1"),
            Route::History { asset: InstanceId(1), limit: DEFAULT_HISTORY_LIMIT }
        );
        assert_eq!(
            route("/v0/history/1?limit=5"),
            Route::History { asset: InstanceId(1), limit: 5 }
        );
        assert_eq!(
            route("/v0/history/1?limit=999999"),
            Route::History { asset: InstanceId(1), limit: MAX_HISTORY_LIMIT },
            "limits clamp"
        );
        assert_eq!(route("/v0/attestation/0"), Route::Attestation(InstanceId(0)));
        assert_eq!(route("/v0/subscribe/2"), Route::Subscribe(InstanceId(2)));
        for bad in ["/", "/v0/latest/", "/v0/latest/x", "/v0/latest/70000", "/v1/health"] {
            assert_eq!(route(bad), Route::NotFound, "{bad}");
        }
    }

    #[test]
    fn responses_carry_length_and_keep_alive() {
        let raw = response(404, "application/json", "{\"error\":\"no such asset\"}");
        let text = String::from_utf8(raw).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("content-length: 25\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"error\":\"no such asset\"}"));
    }

    #[test]
    fn update_json_is_flat_and_parseable_by_the_report_codec() {
        let update = FeedUpdate {
            epoch: EpochId(4),
            asset: InstanceId(1),
            value: 40000.0,
            attestation: None,
        };
        assert_eq!(json_update(&update), "{\"epoch\":4,\"asset\":1,\"value\":40000.0}");
        let hist = json_history(InstanceId(1), &[Arc::new(update)]);
        assert!(hist.starts_with("{\"asset\":1,\"updates\":[{"));
    }
}
