//! Every byte sequence a socket can deliver to the serving layer's HTTP
//! head parser: `parse_request` and `route` never panic, what they accept
//! has the shape they promise, and a head over [`MAX_REQUEST_HEAD`] is
//! refused without allocating — so its cost cannot grow with its size.
//!
//! A counting global allocator (per-thread counters, so tests running in
//! parallel do not disturb each other) brackets exactly the calls under
//! test. `unsafe` is confined to forwarding to the system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use delphi_api::http::{
    parse_request, route, HttpError, Route, MAX_HISTORY_LIMIT, MAX_REQUEST_HEAD,
};
use proptest::prelude::*;

thread_local! {
    /// `(blocks, bytes)` allocated on this thread.
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain thread-local
// `Cell` with no destructor and never allocates. `realloc` keeps its
// default (alloc + copy + dealloc), so growth is counted too.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|count| {
            let (blocks, bytes) = count.get();
            count.set((blocks + 1, bytes + layout.size() as u64));
        });
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// `(blocks, bytes)` that `work` allocates on this thread.
fn allocations_in<R>(work: impl FnOnce() -> R) -> ((u64, u64), R) {
    let (blocks, bytes) = ALLOCATED.with(Cell::get);
    let result = work();
    let (after_blocks, after_bytes) = ALLOCATED.with(Cell::get);
    ((after_blocks - blocks, after_bytes - bytes), result)
}

/// Fragments a request head is made of, and some it must never contain:
/// arbitrary bytes alone almost never form a request line, so the inputs
/// are mostly spliced from these, with raw bytes between.
const PIECES: [&[u8]; 22] = [
    b"GET ",
    b"get ",
    b"POST ",
    b" ",
    b"/",
    b"/v0/health",
    b"/v0/stats",
    b"/v0/latest/",
    b"/v0/history/",
    b"/v0/attestation/",
    b"/v0/subscribe/",
    b"?limit=",
    b"&",
    b"65535",
    b"99999999999999999999",
    b" HTTP/1.1",
    b" HTTP/2",
    b"\r\n",
    b"\r\n\r\n",
    b"host: x",
    b":",
    b"\xff\xfe",
];

/// Bytes spliced from [`PIECES`] (an index past them is one raw byte).
fn spliced(choices: &[(u8, u8)]) -> Vec<u8> {
    let mut out = Vec::new();
    for &(piece, raw) in choices {
        match PIECES.get(usize::from(piece)) {
            Some(bytes) => out.extend_from_slice(bytes),
            None => out.push(raw),
        }
    }
    out
}

/// What every answer of `parse_request(buf)` must satisfy.
fn check_answer(buf: &[u8]) {
    let ((_, bytes), parsed) = allocations_in(|| parse_request(buf));
    // Method and target are copies of part of the first line: what a call
    // allocates is bounded by the head cap, never by the input's length.
    assert!(bytes <= MAX_REQUEST_HEAD as u64, "{bytes} bytes allocated for {} input", buf.len());
    match parsed {
        Ok(None) => assert!(buf.len() <= MAX_REQUEST_HEAD, "an incomplete head past the cap"),
        Ok(Some(request)) => {
            assert!(request.head_len <= buf.len().min(MAX_REQUEST_HEAD));
            assert!(buf[..request.head_len].ends_with(b"\r\n\r\n"));
            assert!(!request.method.is_empty());
            assert!(request.method.bytes().all(|b| b.is_ascii_uppercase()));
            assert!(request.target.starts_with('/'));
            check_route(&request.target);
        }
        Err(HttpError::TooLarge) => assert!(buf.len() > MAX_REQUEST_HEAD),
        Err(HttpError::Malformed(_)) => {}
    }
}

/// What every answer of `route(target)` must satisfy.
fn check_route(target: &str) {
    let path = target.split_once('?').map_or(target, |(path, _)| path);
    let asset = |prefix: &str| path.strip_prefix(prefix).and_then(|raw| raw.parse::<u16>().ok());
    match route(target) {
        Route::Health => assert_eq!(path, "/v0/health"),
        Route::Stats => assert_eq!(path, "/v0/stats"),
        Route::Latest(a) => assert_eq!(asset("/v0/latest/"), Some(a.0)),
        Route::History { asset: a, limit } => {
            assert_eq!(asset("/v0/history/"), Some(a.0));
            assert!((1..=MAX_HISTORY_LIMIT).contains(&limit), "limit {limit}");
        }
        Route::Attestation(a) => assert_eq!(asset("/v0/attestation/"), Some(a.0)),
        Route::Subscribe(a) => assert_eq!(asset("/v0/subscribe/"), Some(a.0)),
        Route::NotFound => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn prop_arbitrary_bytes_never_panic(raw in proptest::collection::vec(any::<u8>(), 0..600)) {
        check_answer(&raw);
        check_route(&String::from_utf8_lossy(&raw));
    }

    #[test]
    fn prop_spliced_heads_never_panic_at_any_cut(
        choices in proptest::collection::vec((0u8..30, any::<u8>()), 0..40),
    ) {
        // Every prefix too: a connection hands the parser whatever it
        // has read so far.
        let head = spliced(&choices);
        for cut in 0..=head.len() {
            check_answer(&head[..cut]);
        }
        check_route(&String::from_utf8_lossy(&head));
    }

    #[test]
    fn prop_oversized_heads_are_refused_without_allocating(
        choices in proptest::collection::vec((0u8..30, any::<u8>()), 0..20),
        fill in any::<u8>(),
        over in 1usize..16 * MAX_REQUEST_HEAD,
        terminated in any::<bool>(),
    ) {
        // A head that opens like a request but ends, if at all, only past
        // the cap: refused whatever its size, with nothing allocated.
        let mut head = spliced(&choices);
        head.retain(|&b| b != b'\r');
        let fill = if fill == b'\r' { b'x' } else { fill };
        head.resize(MAX_REQUEST_HEAD + over, fill);
        if terminated {
            head.extend_from_slice(b"\r\n\r\n");
        }
        let ((blocks, _), parsed) = allocations_in(|| parse_request(&head));
        prop_assert_eq!(parsed, Err(HttpError::TooLarge));
        prop_assert_eq!(blocks, 0, "refusing {} bytes allocated", head.len());
    }

    #[test]
    fn prop_well_formed_targets_route_exactly(
        asset in any::<u16>(),
        limit in any::<usize>(),
        kind in 0u8..4,
    ) {
        let prefix = ["latest", "history", "attestation", "subscribe"][usize::from(kind)];
        let target = format!("/v0/{prefix}/{asset}?limit={limit}");
        let head = format!("GET {target} HTTP/1.1\r\nhost: x\r\n\r\n");
        let request = parse_request(head.as_bytes()).expect("well formed").expect("complete");
        prop_assert_eq!(&request.target, &target);
        let id = delphi_primitives::InstanceId(asset);
        let expected = match kind {
            0 => Route::Latest(id),
            1 => Route::History { asset: id, limit: limit.clamp(1, MAX_HISTORY_LIMIT) },
            2 => Route::Attestation(id),
            _ => Route::Subscribe(id),
        };
        prop_assert_eq!(route(&request.target), expected);
    }
}
