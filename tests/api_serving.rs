//! Integration: the read-side serving layer over real loopback sockets.
//!
//! The in-process test runs a 4-node epoch cluster through
//! `ServiceBuilder::serve` with node 0 serving HTTP, and drives the
//! public endpoints — snapshot, history, attestation, stats, subscribe —
//! from plain blocking sockets, including two requests back-to-back on
//! one keep-alive connection.
//!
//! The ignored test is the process-level smoke: it launches one
//! `delphi-node --api-bind` OS process per node, curls the attestation
//! route over a real socket from *this* process — which never runs the
//! protocol and holds nothing but the deployment seed — and verifies the
//! served certificate offline.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use delphi::api::attestation_from_hex;
use delphi::crypto::signing::Verifier;
use delphi::primitives::NodeId;
use delphi::workloads::{EpochFeed, MultiAssetConfig};
use delphi::ServiceBuilder;
use delphi_bench::cluster::{
    judge_cluster, node_args, reserve_localhost_config, write_temp_config, ClusterRunSpec,
    LOCAL_CLUSTER_SEED,
};
use delphi_bench::{feed_price_source, oracle_config};

const SEED: &[u8] = b"api-serving-test";

/// Serializes the port-reserving tests (same reasoning as
/// `cluster_process.rs`: reserve-by-bind-and-release races between
/// concurrently launching clusters).
static PORT_LOCK: Mutex<()> = Mutex::new(());

fn port_lock() -> MutexGuard<'static, ()> {
    PORT_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let listeners: Vec<TcpListener> =
        (0..n).map(|_| TcpListener::bind("127.0.0.1:0").expect("bind a free port")).collect();
    listeners.iter().map(|l| l.local_addr().expect("bound address")).collect()
}

/// One blocking GET on an existing connection; `(status, body)` or `None`
/// if the connection died. Responses are length-delimited (keep-alive).
fn http_get(stream: &mut TcpStream, buf: &mut Vec<u8>, path: &str) -> Option<(u16, String)> {
    let req = format!("GET {path} HTTP/1.1\r\nhost: test\r\n\r\n");
    stream.write_all(req.as_bytes()).ok()?;
    let head_end = loop {
        if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break p + 4;
        }
        let mut chunk = [0u8; 2048];
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(k) => buf.extend_from_slice(&chunk[..k]),
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
    let status: u16 = head.split(' ').nth(1)?.parse().ok()?;
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length: "))
        .and_then(|v| v.trim().parse().ok())?;
    while buf.len() < head_end + len {
        let mut chunk = [0u8; 2048];
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(k) => buf.extend_from_slice(&chunk[..k]),
        }
    }
    let body = String::from_utf8_lossy(&buf[head_end..head_end + len]).to_string();
    buf.drain(..head_end + len);
    Some((status, body))
}

/// Dials `api` fresh and GETs `path` once.
fn http_get_once(api: SocketAddr, path: &str) -> Option<(u16, String)> {
    let mut stream = TcpStream::connect(api).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    http_get(&mut stream, &mut Vec::new(), path)
}

/// Polls `path` until it serves a 200 (the publisher needs a first
/// agreement before `/v0/latest` has anything), failing the test on
/// `deadline`.
fn wait_for_ok(api: SocketAddr, path: &str, deadline: Duration) -> String {
    let end = Instant::now() + deadline;
    loop {
        match http_get_once(api, path) {
            Some((200, body)) => return body,
            _ => assert!(Instant::now() < end, "{path} never served a value"),
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Pulls the string or bare-literal value of `key` out of a flat JSON
/// object body (the serving layer writes its JSON by hand; this reads it
/// the same way).
fn json_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = body.find(&pat)? + pat.len();
    let rest = &body[start..];
    if let Some(quoted) = rest.strip_prefix('"') {
        quoted.split('"').next()
    } else {
        rest.split([',', '}']).next()
    }
}

#[tokio::test(flavor = "multi_thread", worker_threads = 4)]
// The port lock must span the whole run — the reserved ports stay
// claimed until the cluster is up — so holding a std guard across
// awaits is the point, and the runtime is thread-per-task anyway.
#[allow(clippy::await_holding_lock)]
async fn served_endpoints_answer_over_loopback_sockets() {
    let _guard = port_lock();
    let n = 4;
    let epochs = 6u32;
    let assets = 2u16;
    let cfg = oracle_config(n, 2.0);
    let addrs = free_addrs(n);
    let feed = EpochFeed::new(MultiAssetConfig::synthetic(usize::from(assets)), 11);
    let builder = |id: u16| {
        ServiceBuilder::new(cfg.clone(), NodeId(id))
            .epochs(epochs)
            .assets(assets)
            .pipeline_depth(2)
            .window(6)
            .linger(Duration::from_secs(5))
    };
    let mut peers = Vec::new();
    for id in 1..n as u16 {
        let source = feed_price_source(feed.clone(), NodeId(id), n);
        let handle = builder(id).serve(SEED, addrs.clone(), source).await.expect("peer serve");
        peers.push(tokio::spawn(handle.finish()));
    }
    let source = feed_price_source(feed.clone(), NodeId(0), n);
    let handle = builder(0)
        .api_bind("127.0.0.1:0".parse().expect("loopback addr"))
        .serve(SEED, addrs.clone(), source)
        .await
        .expect("node 0 serve");
    let api = handle.api_addr().expect("api bound");

    // Snapshot route: wait for the first published agreement, then check
    // the body shape.
    let latest = wait_for_ok(api, "/v0/latest/0", Duration::from_secs(30));
    assert!(json_field(&latest, "epoch").is_some(), "latest carries an epoch: {latest}");
    assert_eq!(json_field(&latest, "asset"), Some("0"), "latest names its asset: {latest}");

    // Keep-alive: two different routes back-to-back on one connection.
    {
        let mut stream = TcpStream::connect(api).expect("dial api");
        stream.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let mut buf = Vec::new();
        let (status, health) =
            http_get(&mut stream, &mut buf, "/v0/health").expect("health on kept-alive conn");
        assert_eq!(status, 200);
        assert_eq!(json_field(&health, "status"), Some("ok"), "{health}");
        let (status, stats) =
            http_get(&mut stream, &mut buf, "/v0/stats").expect("stats on the same conn");
        assert_eq!(status, 200);
        assert!(json_field(&stats, "published").is_some(), "{stats}");
        // Every transport counter an operator needs for bytes per entry
        // and MACs per frame is served, and a running node has sent some.
        for key in ["sent_bytes", "sent_entries", "mac_ops", "body_hashes"] {
            let value: u64 = json_field(&stats, key)
                .unwrap_or_else(|| panic!("{key} missing: {stats}"))
                .parse()
                .expect("counter parses");
            assert!(value > 0, "{key} = 0: {stats}");
        }
        let dropped = json_field(&stats, "dropped_egress").expect("dropped_egress served");
        assert!(dropped.parse::<u64>().is_ok(), "{stats}");
    }

    // History honors its limit parameter and rejects unknown assets.
    let history = wait_for_ok(api, "/v0/history/1?limit=3", Duration::from_secs(10));
    assert!(json_field(&history, "updates").is_some(), "{history}");
    let (status, _) = http_get_once(api, &format!("/v0/latest/{assets}")).expect("reply");
    assert_eq!(status, 404, "unknown asset is a 404, not a hang");

    // Attestation: served hex decodes to a certificate that verifies
    // offline against nothing but the deployment seed, and its value
    // sits on the epsilon grid next to the served snapshot.
    let att_body = wait_for_ok(api, "/v0/attestation/1", Duration::from_secs(10));
    assert_eq!(json_field(&att_body, "n"), Some("4"), "{att_body}");
    let t: usize = json_field(&att_body, "t").expect("quorum t").parse().expect("t parses");
    let hex = json_field(&att_body, "attestation").expect("attestation hex");
    let att = attestation_from_hex(hex).expect("hex decodes");
    assert!(att.verify(&Verifier::new(SEED), n, t), "attestation verifies offline");
    let served: f64 = json_field(&att_body, "value").expect("value").parse().expect("f64");
    assert!((att.value() - served).abs() <= cfg.epsilon() + 1e-9, "attested value tracks served");
    assert!(!att.verify(&Verifier::new(b"wrong-seed"), n, t), "seed binds the certificate");

    // Subscribe: an ndjson stream delivers an update (or its re-sync
    // snapshot) on a dedicated connection.
    {
        let mut stream = TcpStream::connect(api).expect("dial api");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
        stream
            .write_all(b"GET /v0/subscribe/0 HTTP/1.1\r\nhost: test\r\n\r\n")
            .expect("subscribe request");
        let mut seen = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(20);
        while !String::from_utf8_lossy(&seen).contains("\"epoch\"") {
            assert!(Instant::now() < deadline, "subscription never streamed an update");
            let mut chunk = [0u8; 1024];
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(k) => seen.extend_from_slice(&chunk[..k]),
            }
        }
        let text = String::from_utf8_lossy(&seen);
        assert!(text.contains("\"epoch\""), "stream carried an update: {text}");
    }

    let (events, epoch_stats, _net) = handle.finish().await.expect("node 0 epoch run");
    assert_eq!(events.len(), epochs as usize);
    assert_eq!(epoch_stats.stale_epochs, 0);
    for peer in peers {
        peer.await.expect("peer task").expect("peer epoch run");
    }
}

#[test]
#[ignore = "needs the delphi-node binary: cargo build -p delphi-bench --bin delphi-node"]
fn process_cluster_serves_verifiable_attestations() {
    let _guard = port_lock();
    let n = 4;
    let epochs = 60u32;
    let assets = 2u16;
    let cfg = reserve_localhost_config(n);
    let api_addr = free_addrs(1)[0];
    let path = write_temp_config(&cfg, "api-smoke").expect("write config");

    let binary = delphi::net::cluster::find_sibling_binary("delphi-node")
        .expect("delphi-node built next to the test binary");
    let mut spec = ClusterRunSpec::new(path.clone());
    (spec.assets, spec.epochs, spec.deadline_ms) = (assets, epochs, 120_000);
    let extra = node_args(&spec);
    let commands = (0..n as u16)
        .map(|id| {
            let mut cmd = delphi::net::cluster::node_command(&binary, &path, id, &extra);
            if id == 0 {
                cmd.arg("--api-bind").arg(api_addr.to_string());
            }
            cmd
        })
        .collect();

    // The curl side races node startup, so it retries until node 0's
    // publisher has something to serve. This thread is the light client:
    // it holds the deployment seed and an address — it never runs the
    // protocol.
    let curler = std::thread::spawn(move || {
        let end = Instant::now() + Duration::from_secs(90);
        loop {
            if let Some((200, body)) = http_get_once(api_addr, "/v0/attestation/0") {
                return body;
            }
            assert!(Instant::now() < end, "api never served an attestation");
            std::thread::sleep(Duration::from_millis(50));
        }
    });

    let outcome = delphi::net::cluster::launch(commands).expect("cluster run succeeds");
    let body = curler.join().expect("curler thread");
    let _ = std::fs::remove_file(&path);

    judge_cluster(&outcome, &spec).expect("the served run passes the judge");

    // Offline light-client verification: the served certificate checks
    // out against the cluster seed alone.
    let t: usize = json_field(&body, "t").expect("quorum t").parse().expect("t parses");
    let hex = json_field(&body, "attestation").expect("attestation hex");
    let att = attestation_from_hex(hex).expect("hex decodes");
    assert!(
        att.verify(&Verifier::new(LOCAL_CLUSTER_SEED), n, t),
        "served attestation verifies offline in a process that never ran the protocol"
    );
}
