//! The allocation-free-hot-path proof: a counting global allocator wraps
//! the system allocator, a real server is booted over a real socket, the
//! connection is warmed past its setup allocations, and then hundreds of
//! keep-alive requests — raw fast-lane hits, `HEAD`s, `If-None-Match`
//! revalidations, and all-hit `/v1/batch` POSTs — are driven through the
//! full transport + service + db stack while the allocation counter must
//! not move **at all**.
//!
//! Both sides of the socket live in this process, so the counter sees the
//! client too; the client therefore reuses preallocated request/response
//! buffers, which makes the zero-delta assertion strictly stronger (it
//! proves client and server together allocate nothing in steady state).
//!
//! The server runs on two reactor shards: the slab, the timer wheel and
//! the connection buffers must all be reused in steady state.
//!
//! This file holds exactly one `#[test]` so no concurrent test can
//! allocate in the background of the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use uops_db::{Segment, Snapshot, VariantRecord};
use uops_serve::{QueryService, Server, ServerOptions};

/// Counts every heap allocation (alloc, alloc_zeroed, realloc) made by
/// any thread in the process.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

fn snapshot() -> Snapshot {
    let mut s = Snapshot::new("alloc-free test");
    for (m, uarch, mask, tp) in [
        ("ADD", "Skylake", 0b0110_0011u16, 0.25),
        ("ADC", "Skylake", 0b0100_0001, 0.5),
        ("SHLD", "Skylake", 0b0000_0010, 1.5),
        ("ADD", "Haswell", 0b0110_0011, 0.25),
    ] {
        s.records.push(VariantRecord {
            mnemonic: m.into(),
            variant: "R64, R64".into(),
            extension: "BASE".into(),
            uarch: uarch.into(),
            uop_count: 1,
            ports: vec![(mask, 1)],
            tp_measured: tp,
            ..Default::default()
        });
    }
    s
}

/// Sends `request` and reads exactly `expected.len()` response bytes into
/// `scratch`, asserting byte-identity with the warmup capture. Nothing
/// here allocates.
fn exchange(stream: &mut TcpStream, request: &[u8], expected: &[u8], scratch: &mut [u8]) {
    stream.write_all(request).expect("send");
    let scratch = &mut scratch[..expected.len()];
    stream.read_exact(scratch).expect("read");
    assert!(scratch == expected, "response changed between warmup and steady state");
}

/// Reads one response during warmup, returning its exact bytes: headers
/// through the blank line, then `Content-Length` body bytes. Pass
/// `expect_body = false` for `HEAD` responses (length advertised, no
/// bytes) — 304s advertise no length at all, so either value works.
fn read_response(stream: &mut TcpStream, expect_body: bool) -> Vec<u8> {
    let mut out = Vec::new();
    let mut byte = [0u8; 1];
    while !out.ends_with(b"\r\n\r\n") {
        assert_eq!(stream.read(&mut byte).expect("read header"), 1, "unexpected EOF");
        out.push(byte[0]);
    }
    let text = String::from_utf8_lossy(&out).to_string();
    let body_len: usize = if expect_body {
        text.lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .map_or(0, |v| v.trim().parse().expect("length"))
    } else {
        0
    };
    let at = out.len();
    out.resize(at + body_len, 0);
    stream.read_exact(&mut out[at..]).expect("read body");
    out
}

/// Overload controls enabled but generously sized: admission checks,
/// deadline arming, and uncached-capacity accounting all run on every
/// request in the measured window — and must allocate
/// nothing. (The limits are high enough that nothing actually sheds: the
/// measured window is all cache hits, and a shed 503 for an unparsed
/// query would allocate in query parsing, outside the proof's scope.)
fn overload_options() -> ServerOptions {
    ServerOptions {
        max_inflight: 1024,
        request_deadline: Some(std::time::Duration::from_secs(30)),
        ..ServerOptions::default()
    }
}

#[test]
fn steady_state_keep_alive_requests_allocate_nothing() {
    let segment = Arc::new(Segment::from_bytes(Segment::encode(&snapshot())).expect("segment"));
    let service = Arc::new(QueryService::from_segment(segment, 1 << 20));
    service.set_max_uncached_inflight(1024);

    let server =
        Server::bind_with("127.0.0.1:0", service, 2, overload_options()).expect("bind server");
    let addr = server.local_addr();
    let handle = server.spawn();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");

    // The request mix: a hot GET (raw fast-lane hit), the same target as
    // HEAD, and an If-None-Match revalidation (304). The ETag is learned
    // from the warmup response.
    let get = b"GET /v1/query?uarch=Skylake&port=5 HTTP/1.1\r\nHost: a\r\n\r\n".to_vec();
    let head = b"HEAD /v1/query?uarch=Skylake&port=5 HTTP/1.1\r\nHost: a\r\n\r\n".to_vec();

    stream.write_all(&get).expect("warm get");
    let get_response = read_response(&mut stream, true);
    let etag = String::from_utf8_lossy(&get_response)
        .lines()
        .find_map(|l| l.strip_prefix("ETag: ").map(str::to_string))
        .expect("200 carries an ETag");
    let conditional = format!(
        "GET /v1/query?uarch=Skylake&port=5 HTTP/1.1\r\nHost: a\r\nIf-None-Match: {etag}\r\n\r\n"
    )
    .into_bytes();

    // Warm every path twice more: fast-lane promotion happened on the
    // first request; these settle scratch capacities on both sides.
    let mut head_response = Vec::new();
    let mut conditional_response = Vec::new();
    for _ in 0..2 {
        stream.write_all(&get).expect("warm");
        assert_eq!(read_response(&mut stream, true), get_response, "hit parity");
        stream.write_all(&head).expect("warm");
        head_response = read_response(&mut stream, false);
        stream.write_all(&conditional).expect("warm");
        conditional_response = read_response(&mut stream, false);
    }
    assert!(head_response.ends_with(b"\r\n\r\n"), "HEAD has no body");
    assert!(
        String::from_utf8_lossy(&conditional_response).starts_with("HTTP/1.1 304"),
        "matching If-None-Match revalidates"
    );

    // Batch round: two hot plans per POST. After warmup the whole batch
    // path — bounded body read, per-plan cache probes, frame assembly,
    // vectored response write — runs out of per-connection buffers and
    // cache Arcs, so it must be allocation-free too.
    let batch_body: &[u8] = b"uarch=Skylake&port=5\nuarch=Skylake";
    let mut batch_request = format!(
        "POST /v1/batch HTTP/1.1\r\nHost: a\r\nContent-Length: {}\r\n\r\n",
        batch_body.len()
    )
    .into_bytes();
    batch_request.extend_from_slice(batch_body);
    let mut batch_response = Vec::new();
    for _ in 0..3 {
        stream.write_all(&batch_request).expect("warm batch");
        batch_response = read_response(&mut stream, true);
    }
    assert!(
        String::from_utf8_lossy(&batch_response).starts_with("HTTP/1.1 200"),
        "batch warmup must succeed: {}",
        String::from_utf8_lossy(&batch_response)
    );

    // Telemetry is on by default — prove it is live before the measured
    // window (the scrape itself allocates, which is why it sits outside).
    let metrics_get = b"GET /metrics HTTP/1.1\r\nHost: a\r\n\r\n".to_vec();
    stream.write_all(&metrics_get).expect("metrics probe");
    let metrics_before = String::from_utf8_lossy(&read_response(&mut stream, true)).to_string();
    assert!(metrics_before.starts_with("HTTP/1.1 200"), "{metrics_before}");
    let requests_before = exposition_value(&metrics_before, "uops_http_requests_total");
    assert!(requests_before > 0, "telemetry must be recording:\n{metrics_before}");

    let mut scratch = vec![0u8; get_response.len().max(batch_response.len()).max(64)];

    // ---- the measured window ----
    const ROUNDS: usize = 100;
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..ROUNDS {
        exchange(&mut stream, &get, &get_response, &mut scratch);
        exchange(&mut stream, &head, &head_response, &mut scratch);
        exchange(&mut stream, &conditional, &conditional_response, &mut scratch);
        exchange(&mut stream, &batch_request, &batch_response, &mut scratch);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "steady-state hit path must be allocation-free: {} allocations across {} requests",
        after - before,
        ROUNDS * 4,
    );

    // Telemetry recorded throughout the zero-allocation window: the
    // request counter advanced by exactly the measured requests plus the
    // first scrape, all without a single allocation.
    stream.write_all(&metrics_get).expect("metrics probe");
    let metrics_after = String::from_utf8_lossy(&read_response(&mut stream, true)).to_string();
    let requests_after = exposition_value(&metrics_after, "uops_http_requests_total");
    assert_eq!(
        requests_after - requests_before,
        (ROUNDS as u64) * 4 + 1,
        "every measured request must be counted:\n{metrics_after}"
    );

    // Close the client first so the shard sees EOF instead of sitting
    // out the idle keep-alive timeout.
    drop(stream);
    handle.shutdown();
}

/// Reads the value of an unlabeled counter/gauge sample out of a
/// Prometheus text exposition.
fn exposition_value(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or_else(|| panic!("no sample {name} in exposition"))
}
