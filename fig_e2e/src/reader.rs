//! Read-side clients: a keep-alive HTTP client, the open-loop polling
//! reader and the `/v0/subscribe` stream reader of `tcp-serve-k4`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::sut;

/// Socket timeout: a read that takes this long is a failed read, not a
/// hung benchmark.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// One keep-alive connection issuing length-delimited GETs.
pub struct HttpClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl HttpClient {
    pub fn connect(addr: SocketAddr) -> Result<HttpClient, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("dial {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(|e| e.to_string())?;
        stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(|e| e.to_string())?;
        Ok(HttpClient { stream, buf: Vec::with_capacity(2048) })
    }

    fn fill(&mut self) -> Result<(), String> {
        let mut chunk = [0u8; 2048];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err("connection closed".into()),
            Ok(k) => {
                self.buf.extend_from_slice(chunk.get(..k).unwrap_or_default());
                Ok(())
            }
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// One GET; the status code and the body.
    pub fn get(&mut self, path: &str) -> Result<(u16, String), String> {
        let request = format!("GET {path} HTTP/1.1\r\nhost: fig-e2e\r\n\r\n");
        self.stream.write_all(request.as_bytes()).map_err(|e| format!("write: {e}"))?;
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(self.buf.get(..head_end).unwrap_or_default())
            .to_ascii_lowercase();
        let status: u16 = head
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or("response without a status")?;
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length:"))
            .and_then(|v| v.trim().parse().ok())
            .ok_or("response without content-length")?;
        while self.buf.len() < head_end + len {
            self.fill()?;
        }
        let body = String::from_utf8_lossy(self.buf.get(head_end..head_end + len).unwrap_or(&[]))
            .into_owned();
        self.buf.drain(..head_end + len);
        Ok((status, body))
    }
}

/// What one open-loop reader saw.
#[derive(Debug, Default)]
pub struct ReaderLog {
    /// Latency of each read in ms, timed from its due time, so a stall
    /// charges every request that came due during it.
    pub latency_ms: Vec<f64>,
    /// How late each request left the generator, in ms.
    pub late_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Request spans `(due, done, epoch served)` in ns since the run's
    /// origin; kept in the traced pass only.
    pub spans: Vec<(u64, u64, u32)>,
}

/// The reader's fixed plan: which asset and route each request hits, from
/// the seed alone.
pub fn reader_plan(seed: u64, reader: usize, basket: u16, requests: usize) -> Vec<(u16, bool)> {
    // splitmix64: the schedule must not depend on any library's RNG.
    let mut state = seed ^ (reader as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (0..requests)
        .map(|i| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            ((z % u64::from(basket.max(1))) as u16, i % 2 == 1)
        })
        .collect()
}

pub struct ReaderConfig {
    pub api: SocketAddr,
    pub n: usize,
    pub t: usize,
    pub period: Duration,
    pub origin: Instant,
    pub keep_spans: bool,
}

/// Open loop: request `i` is due at `start + i × period` whether or not
/// earlier ones have completed. Alternates `/v0/latest/{a}` and
/// `/v0/attestation/{a}`; every reply is checked — 200, a well-formed
/// body, an epoch that never regresses per asset, and (attestation
/// route) a certificate that verifies offline.
pub fn run_reader(cfg: &ReaderConfig, plan: &[(u16, bool)], stop: &AtomicBool) -> ReaderLog {
    let mut log = ReaderLog::default();
    let mut client = HttpClient::connect(cfg.api).ok();
    let mut newest: Vec<Option<u32>> = Vec::new();
    let start = Instant::now();
    for (i, &(asset, attest)) in plan.iter().enumerate() {
        let due = start + cfg.period * i as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let sent = Instant::now();
        log.attempted += 1;
        log.late_ms.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
        let path =
            if attest { format!("/v0/attestation/{asset}") } else { format!("/v0/latest/{asset}") };
        if client.is_none() {
            client = HttpClient::connect(cfg.api).ok();
        }
        let reply =
            client.as_mut().ok_or_else(|| "no connection".to_string()).and_then(|c| c.get(&path));
        let done = Instant::now();
        let served = match reply {
            Ok((200, body)) => check_body(&body, asset, attest, cfg.n, cfg.t),
            Ok(_) => None,
            Err(_) => {
                client = None; // dial again for the next request
                None
            }
        };
        let slot = usize::from(asset);
        if newest.len() <= slot {
            newest.resize(slot + 1, None);
        }
        let regressed =
            matches!((served, newest.get(slot)), (Some(e), Some(Some(prev))) if e < *prev);
        match served {
            Some(epoch) if !regressed => {
                if let Some(n) = newest.get_mut(slot) {
                    *n = Some(epoch);
                }
                log.latency_ms.push(done.saturating_duration_since(due).as_secs_f64() * 1e3);
                if cfg.keep_spans {
                    let ns = |t: Instant| t.saturating_duration_since(cfg.origin).as_nanos() as u64;
                    log.spans.push((ns(due), ns(done), epoch));
                }
            }
            _ => log.failed += 1,
        }
    }
    log
}

/// The epoch a 200 body serves, if the body is what the route promises.
fn check_body(body: &str, asset: u16, attest: bool, n: usize, t: usize) -> Option<u32> {
    let doc = Json::parse(body).ok()?;
    let epoch = doc.get("epoch")?.as_f64()? as u32;
    let value = doc.get("value")?.as_f64()?;
    if doc.get("asset")?.as_f64()? != f64::from(asset) {
        return None;
    }
    let hex = doc.get("attestation")?.as_str()?;
    if attest && !sut::attestation_verifies(hex, epoch, asset, value, n, t) {
        return None;
    }
    Some(epoch)
}

/// What the `/v0/subscribe` stream reader saw.
#[derive(Debug, Default)]
pub struct StreamLog {
    pub updates: u64,
    pub kicked: u64,
    pub out_of_order: u64,
}

/// Tails `/v0/subscribe/{asset}` until the server closes the stream or
/// `stop` is set, counting updates, lag-kicks and order violations.
pub fn run_stream_reader(api: SocketAddr, asset: u16, stop: &AtomicBool) -> StreamLog {
    let mut log = StreamLog::default();
    let Ok(mut stream) = TcpStream::connect(api) else { return log };
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let request = format!("GET /v0/subscribe/{asset} HTTP/1.1\r\nhost: fig-e2e\r\n\r\n");
    if stream.write_all(request.as_bytes()).is_err() {
        return log;
    }
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut in_body = false;
    let mut last_epoch: Option<u32> = None;
    while !stop.load(Ordering::Relaxed) {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(k) => buf.extend_from_slice(chunk.get(..k).unwrap_or_default()),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(_) => break,
        }
        if !in_body {
            let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") else { continue };
            buf.drain(..p + 4);
            in_body = true;
        }
        while let Some(p) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=p).collect();
            let Ok(doc) = Json::parse(String::from_utf8_lossy(&line).trim()) else { continue };
            if doc.get("lagged").is_some() {
                log.kicked += 1;
                last_epoch = None; // a kicked reader resumes from the newest value
            } else if doc.get("closed").is_some() {
                return log;
            } else if let Some(epoch) = doc.get("epoch").and_then(Json::as_f64) {
                let epoch = epoch as u32;
                if last_epoch.is_some_and(|prev| epoch <= prev) {
                    log.out_of_order += 1;
                }
                last_epoch = Some(epoch);
                log.updates += 1;
            }
        }
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_plan_repeats_per_seed_and_alternates_routes() {
        let a = reader_plan(7, 0, 4, 64);
        assert_eq!(a, reader_plan(7, 0, 4, 64));
        assert_ne!(a, reader_plan(8, 0, 4, 64));
        assert_ne!(a, reader_plan(7, 1, 4, 64));
        assert!(a.iter().all(|&(asset, _)| asset < 4));
        assert!(a.iter().enumerate().all(|(i, &(_, attest))| attest == (i % 2 == 1)));
        let mut seen: Vec<u16> = a.iter().map(|p| p.0).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, vec![0, 1, 2, 3], "every asset is read");
    }

    #[test]
    fn body_check_rejects_wrong_asset_and_missing_fields() {
        assert_eq!(
            check_body(
                "{\"epoch\":3,\"asset\":1,\"value\":2.0,\"attestation\":\"00\"}",
                1,
                false,
                4,
                1
            ),
            Some(3)
        );
        assert_eq!(
            check_body(
                "{\"epoch\":3,\"asset\":2,\"value\":2.0,\"attestation\":\"00\"}",
                1,
                false,
                4,
                1
            ),
            None
        );
        assert_eq!(check_body("{\"epoch\":3,\"asset\":1,\"value\":2.0}", 1, false, 4, 1), None);
        // A garbage certificate fails offline verification.
        assert_eq!(
            check_body(
                "{\"epoch\":3,\"asset\":1,\"value\":2.0,\"attestation\":\"00\"}",
                1,
                true,
                4,
                1
            ),
            None
        );
    }
}
