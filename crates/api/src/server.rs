//! The HTTP server: accept loop, per-connection tasks, route handlers.
//!
//! One task per connection (the vendored tokio runtime is
//! thread-per-task), serving requests back-to-back over keep-alive —
//! a polling reader costs one dial total, not one per poll. Readers
//! only ever touch the [`FeedState`] snapshot cache, the
//! [`SubscriberHub`], and the [`ServiceStats`] probe — never the
//! protocol pipeline — so a reader storm cannot slow agreement down.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use delphi_net::{NetStats, ServiceStats};
use delphi_primitives::{json_f64, CounterGroup, EpochStats, InstanceId};
use tokio::io::{AsyncReadExt, AsyncWriteExt};
use tokio::net::{TcpListener, TcpStream};

use crate::feed::FeedState;
use crate::http::{
    json_history, json_update, parse_request, response, route, stream_head, HttpError, Request,
    Route, MAX_REQUEST_HEAD,
};
use crate::hub::{RecvError, SubscriberHub};

/// How long a subscribe stream waits for an update before writing a
/// keep-alive blank line (which doubles as the disconnect probe).
const KEEPALIVE: Duration = Duration::from_millis(500);

/// Everything the route handlers read. One instance is shared by every
/// connection task.
pub struct ApiContext {
    /// The snapshot cache the publisher fills.
    pub feed: Arc<FeedState>,
    /// The subscription fan-out registry.
    pub hub: Arc<SubscriberHub>,
    /// Live service counters, when serving a running node (`None` for a
    /// standalone cache).
    pub stats: Option<ServiceStats>,
    /// `(n, t)` verification parameters served alongside attestations so
    /// a light client knows the quorum rule; `None` when the publisher
    /// does not attest.
    pub quorum: Option<(usize, usize)>,
}

/// A bound, running API server. Dropping the handle does NOT stop the
/// accept loop; call [`shutdown`](ApiServer::shutdown).
pub struct ApiServer {
    addr: SocketAddr,
    accept_task: tokio::task::JoinHandle<()>,
}

impl ApiServer {
    /// Binds `addr` (port 0 picks a free port) and starts serving
    /// `ctx` immediately.
    ///
    /// # Errors
    ///
    /// The bind error, verbatim.
    pub async fn bind(addr: SocketAddr, ctx: Arc<ApiContext>) -> std::io::Result<ApiServer> {
        let listener = TcpListener::bind(addr).await?;
        let addr = listener.local_addr()?;
        let accept_task = tokio::spawn(async move {
            loop {
                let Ok((stream, _)) = listener.accept().await else { break };
                let ctx = ctx.clone();
                tokio::spawn(handle_connection(stream, ctx));
            }
        });
        Ok(ApiServer { addr, accept_task })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections. In-flight subscribe streams end when
    /// the hub closes.
    pub fn shutdown(self) {
        self.accept_task.abort();
    }
}

/// Whether a connection task keeps serving after a request.
enum Served {
    /// Length-delimited response written; await the next request.
    KeepOpen,
    /// The connection is finished (stream ended, or the write failed).
    Done,
}

/// Reads request heads (incrementally, bounded) and serves them
/// back-to-back until the client hangs up or sends garbage.
async fn handle_connection(mut stream: TcpStream, ctx: Arc<ApiContext>) {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 1024];
    loop {
        let request = loop {
            match parse_request(&buf) {
                Ok(Some(request)) => break request,
                Ok(None) => {}
                Err(HttpError::TooLarge) => {
                    let _ = stream
                        .write_all(&response(
                            431,
                            "application/json",
                            "{\"error\":\"head too large\"}",
                        ))
                        .await;
                    return;
                }
                Err(HttpError::Malformed(why)) => {
                    let body = format!("{{\"error\":\"malformed request: {why}\"}}");
                    let _ = stream.write_all(&response(400, "application/json", &body)).await;
                    return;
                }
            }
            // Cap the buffer one chunk past the head limit so the parser —
            // not the reader — decides when it is too large.
            if buf.len() > MAX_REQUEST_HEAD + chunk.len() {
                return;
            }
            match stream.read(&mut chunk).await {
                Ok(0) | Err(_) => return,
                Ok(k) => buf.extend_from_slice(&chunk[..k]),
            }
        };
        // Keep any pipelined bytes past this head for the next round.
        buf.drain(..request.head_len);
        match serve_request(&mut stream, &ctx, request).await {
            Served::KeepOpen => {}
            Served::Done => return,
        }
    }
}

async fn serve_request(stream: &mut TcpStream, ctx: &ApiContext, request: Request) -> Served {
    if request.method != "GET" {
        let reply = response(405, "application/json", "{\"error\":\"GET only\"}");
        return match stream.write_all(&reply).await {
            Ok(()) => Served::KeepOpen,
            Err(_) => Served::Done,
        };
    }
    let not_found =
        |why: &str| response(404, "application/json", &format!("{{\"error\":\"{why}\"}}"));
    let reply = match route(&request.target) {
        Route::Health => {
            let body = format!(
                "{{\"status\":\"ok\",\"assets\":{},\"published\":{}}}",
                ctx.feed.assets(),
                ctx.feed.published()
            );
            response(200, "application/json", &body)
        }
        Route::Stats => {
            let node = ctx.stats.as_ref().map(|s| (s.epoch_snapshot(), s.net_snapshot()));
            let body = stats_body(ctx.feed.published(), ctx.hub.subscriber_count(), node);
            response(200, "application/json", &body)
        }
        Route::Latest(asset) => match ctx.feed.latest(asset) {
            Some(update) => response(200, "application/json", &json_update(&update)),
            None => not_found("no value for asset"),
        },
        Route::History { asset, limit } => {
            if asset.index() < usize::from(ctx.feed.assets()) {
                let updates = ctx.feed.history(asset, limit);
                response(200, "application/json", &json_history(asset, &updates))
            } else {
                not_found("no such asset")
            }
        }
        Route::Attestation(asset) => match attestation_body(ctx, asset) {
            Some(body) => response(200, "application/json", &body),
            None => not_found("no attestation for asset"),
        },
        Route::Subscribe(asset) => {
            serve_subscription(stream, ctx, asset).await;
            return Served::Done;
        }
        Route::NotFound => not_found("no such route"),
    };
    match stream.write_all(&reply).await {
        Ok(()) => Served::KeepOpen,
        Err(_) => Served::Done,
    }
}

/// `/v0/attestation/{asset}`: the latest slot attestation plus the
/// quorum parameters a light client verifies against.
fn attestation_body(ctx: &ApiContext, asset: InstanceId) -> Option<String> {
    let update = ctx.feed.latest(asset)?;
    let att = update.attestation.as_ref()?;
    let (n, t) = ctx.quorum?;
    Some(format!(
        "{{\"epoch\":{},\"asset\":{},\"value\":{},\"n\":{n},\"t\":{t},\
         \"attestation\":\"{}\"}}",
        update.epoch.0,
        update.asset.0,
        json_f64(update.value),
        crate::attest::attestation_to_hex(att)
    ))
}

/// `/v0/stats`: the feed's published total and subscriber count, then,
/// for a running node, every [`EpochStats`] and [`NetStats`] counter.
fn stats_body(published: u64, subscribers: usize, node: Option<(EpochStats, NetStats)>) -> String {
    let node = node.map_or(String::new(), |(epoch, net)| {
        format!(",\"epoch\":{},\"net\":{}", epoch.to_json(), net.to_json())
    });
    format!("{{\"published\":{published},\"subscribers\":{subscribers}{node}}}")
}

/// `/v0/subscribe/{asset}`: an ndjson stream. A lag-kicked reader gets a
/// `{"lagged":true}` marker, is re-synced from the snapshot cache, and
/// is re-subscribed — it always resumes from the newest value.
async fn serve_subscription(stream: &mut TcpStream, ctx: &ApiContext, asset: InstanceId) {
    let Some(mut sub) = ctx.hub.subscribe(asset) else {
        let _ = stream
            .write_all(&response(404, "application/json", "{\"error\":\"no such asset\"}"))
            .await;
        return;
    };
    if stream.write_all(&stream_head()).await.is_err() {
        return;
    }
    loop {
        let line = match sub.recv_timeout(KEEPALIVE) {
            Ok(update) => format!("{}\n", json_update(&update)),
            // Keep-alive doubles as the disconnect probe: a gone client
            // fails the write and ends the task.
            Err(RecvError::Timeout) => "\n".to_string(),
            Err(RecvError::Closed) => {
                let _ = stream.write_all(b"{\"closed\":true}\n").await;
                return;
            }
            Err(RecvError::Lagged) => {
                let Some(fresh) = ctx.hub.subscribe(asset) else { return };
                sub = fresh;
                match ctx.feed.latest(asset) {
                    Some(update) => format!("{{\"lagged\":true}}\n{}\n", json_update(&update)),
                    None => "{\"lagged\":true}\n".to_string(),
                }
            }
        };
        if stream.write_all(line.as_bytes()).await.is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_body_names_every_counter_of_both_groups() {
        // Distinct values, so a counter served under another's name shows.
        let epoch = EpochStats::from_values(1..);
        let net = NetStats::from_values(101..);
        let body = stats_body(7, 2, Some((epoch, net)));
        assert!(body.starts_with("{\"published\":7,\"subscribers\":2,\"epoch\":{"), "{body}");
        let (epoch_part, net_part) = body.split_once(",\"net\":").expect("net object");
        for (name, value) in epoch.pairs() {
            assert!(epoch_part.contains(&format!("\"{name}\":{value}")), "{name}: {body}");
        }
        for (name, value) in net.pairs() {
            assert!(net_part.contains(&format!("\"{name}\":{value}")), "{name}: {body}");
        }
        let names = EpochStats::names().chain(NetStats::names());
        assert_eq!(body.matches("\":").count(), 2 + 2 + names.count(), "{body}");
        // A standalone cache serves its own gauges only.
        assert_eq!(stats_body(0, 0, None), "{\"published\":0,\"subscribers\":0}");
    }
}
