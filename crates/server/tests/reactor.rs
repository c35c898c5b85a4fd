//! Reactor-transport integration tests: byte-parity with the in-process
//! answer framed by the same response assembler, slow-loris
//! (byte-at-a-time) delivery through the resumable parser, pipelining
//! across shards, idle-timeout and slow-reader eviction by the timer
//! wheel, a shard yielding between uncached answers, and a graceful
//! drain that does not wait on clients keeping their sockets open.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use uops_db::{Segment, Snapshot, VariantRecord};
use uops_serve::{http, respond, QueryService, Server, ServerOptions};

fn service() -> Arc<QueryService> {
    let mut s = Snapshot::new("reactor test");
    for (m, uarch, mask, tp) in [
        ("ADD", "Skylake", 0b0110_0011u16, 0.25),
        ("ADC", "Skylake", 0b0100_0001, 0.5),
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
    let segment = Arc::new(Segment::from_bytes(Segment::encode(&s)).expect("segment"));
    Arc::new(QueryService::from_segment(segment, 1 << 20))
}

/// Reads one Content-Length-framed response (headers + body). Pass
/// `expect_body = false` for `HEAD` responses, which advertise a length
/// but carry no bytes.
fn read_response_framed(stream: &mut TcpStream, expect_body: bool) -> Vec<u8> {
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

/// [`read_response_framed`] for responses that carry their advertised
/// body.
fn read_response(stream: &mut TcpStream) -> Vec<u8> {
    read_response_framed(stream, true)
}

/// What the transport must put on the wire for `target`: the in-process
/// [`respond`] answer over a service of its own (so the server's cache
/// state cannot leak into the reference), framed by [`http::ResponseBuf`]
/// exactly as a keep-alive response.
fn reference_response(method: &str, target: &str) -> Vec<u8> {
    let response = respond(&service(), method, target);
    let mode = if method == "HEAD" { http::BodyMode::HeaderOnly } else { http::BodyMode::Full };
    let mut framed = http::ResponseBuf::new();
    let emit = framed.assemble(
        &http::ResponseHead {
            status: response.status,
            content_type: response.content_type,
            keep_alive: true,
            etag: response.etag,
            allow: None,
            mode,
        },
        response.body.len(),
    );
    let mut wire = framed.head_bytes().to_vec();
    wire.extend_from_slice(&response.body[..emit]);
    wire
}

/// One response read off the wire: the status, the `ETag` value, whether
/// the body came chunked, and the body with any chunk framing removed.
struct Wire {
    status: u16,
    etag: Option<String>,
    chunked: bool,
    body: Vec<u8>,
}

/// Reads one CRLF-terminated line (without the CRLF).
fn read_line(stream: &mut TcpStream) -> Vec<u8> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    while !line.ends_with(b"\r\n") {
        assert_eq!(stream.read(&mut byte).expect("read line"), 1, "unexpected EOF");
        line.push(byte[0]);
    }
    line.truncate(line.len() - 2);
    line
}

/// Reads one response, `Content-Length`-framed or chunked, de-chunking
/// the body. `HEAD` responses carry no body whatever their head says.
fn read_wire(stream: &mut TcpStream, head_only: bool) -> Wire {
    let status_line = String::from_utf8(read_line(stream)).expect("status line");
    let status = status_line.split(' ').nth(1).and_then(|s| s.parse().ok()).expect("status");
    let (mut etag, mut length, mut chunked) = (None, 0, false);
    loop {
        let line = String::from_utf8(read_line(stream)).expect("header");
        let Some((name, value)) = line.split_once(": ") else { break };
        match name {
            "ETag" => etag = Some(value.to_string()),
            "Content-Length" => length = value.parse().expect("length"),
            "Transfer-Encoding" => chunked = value == "chunked",
            _ => {}
        }
    }
    let mut body = Vec::new();
    if head_only {
        return Wire { status, etag, chunked, body };
    }
    if chunked {
        loop {
            let size = String::from_utf8(read_line(stream)).expect("chunk size");
            let size = usize::from_str_radix(&size, 16).expect("hex chunk size");
            let at = body.len();
            body.resize(at + size, 0);
            stream.read_exact(&mut body[at..]).expect("chunk");
            assert!(read_line(stream).is_empty(), "a chunk ends with CRLF");
            if size == 0 {
                break;
            }
        }
    } else {
        body.resize(length, 0);
        stream.read_exact(&mut body).expect("read body");
    }
    Wire { status, etag, chunked, body }
}

/// Sends `method target` and checks the answer against [`respond`] on
/// `reference` by status, de-chunked body and `ETag`.
fn exchange_matches_respond(
    stream: &mut TcpStream,
    reference: &QueryService,
    method: &str,
    target: &str,
) -> Wire {
    write!(stream, "{method} {target} HTTP/1.1\r\nHost: t\r\n\r\n").expect("send");
    let got = read_wire(stream, method == "HEAD");
    let want = respond(reference, method, target);
    assert_eq!(got.status, want.status, "status of {method} {target}");
    assert_eq!(got.etag, want.etag.map(|tag| format!("\"{tag:016x}\"")), "ETag of {target}");
    if method != "HEAD" {
        assert_eq!(got.body, &want.body[..], "body of {method} {target}");
    }
    got
}

/// `/v1/stats` with its counters masked: two renderings of the same
/// service state differ only in the numbers.
fn masked(body: &[u8]) -> String {
    let mut out = String::new();
    for c in String::from_utf8_lossy(body).chars() {
        if !(c.is_ascii_digit() && out.ends_with('#')) {
            out.push(if c.is_ascii_digit() { '#' } else { c });
        }
    }
    out
}

#[test]
fn reactor_responses_match_the_in_process_answer_byte_for_byte() {
    let served = service();
    let server = Server::bind("127.0.0.1:0", Arc::clone(&served), 2).expect("bind").spawn();
    let requests: &[(&str, &str)] = &[
        ("GET", "/v1/query?uarch=Skylake"),
        ("HEAD", "/v1/query?uarch=Skylake"),
        ("GET", "/v1/query?uarch=Skylake&format=json"),
        ("GET", "/v1/query?uarch=Skylake&format=binary"),
        ("GET", "/v1/query?uarch=Skylake&format=xml"),
        ("GET", "/v1/record/ADD"),
        ("GET", "/v1/record/ADD?uarch=Haswell"),
        ("GET", "/v1/diff?base=Haswell&other=Skylake"),
        ("GET", "/nope"),
        ("GET", "/v1/record/"),
        ("GET", "/v1/query?bogus=1"),
        ("GET", "/v1/query?format=yaml"),
        ("GET", "/v1/record/ADD?variant=x"),
        ("GET", "/v1/diff?base=Haswell"),
    ];
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    for &(method, target) in requests {
        write!(stream, "{method} {target} HTTP/1.1\r\nHost: t\r\n\r\n").expect("send");
        let got = read_response_framed(&mut stream, method != "HEAD");
        assert_eq!(
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&reference_response(method, target)),
            "the wire disagrees with the in-process answer on {method} {target}"
        );
    }

    // Every route kind and error class again, by status, de-chunked body
    // and ETag: this covers the 405 (whose `Allow` header the in-process
    // answer lacks) and repeats, which the transport answers from the raw
    // tier.
    let reference = service();
    for &(method, target) in requests {
        exchange_matches_respond(&mut stream, &reference, method, target);
    }
    exchange_matches_respond(&mut stream, &reference, "DELETE", "/v1/query?uarch=Skylake");
    // `/v1/stats` renders live counters, so the reference is the served
    // service itself, compared with its numbers masked.
    write!(stream, "GET /v1/stats HTTP/1.1\r\nHost: t\r\n\r\n").expect("send");
    let stats = read_wire(&mut stream, false);
    let want = respond(&served, "GET", "/v1/stats");
    assert_eq!((stats.status, stats.etag, want.etag), (200, None, None));
    assert_eq!(masked(&stats.body), masked(&want.body));

    // The streaming threshold boundary, on plans not asked for before
    // that each match the two Skylake rows. A page of exactly `threshold`
    // rows answers whole-body and enters both tiers…
    served.set_stream_threshold(2);
    let before = served.stats();
    let target = "/v1/query?uarch=Skylake&sort=uops";
    let at = exchange_matches_respond(&mut stream, &reference, "GET", target);
    assert!(!at.chunked, "rows == threshold must answer whole-body");
    let after = served.stats();
    assert_eq!(after.cache.entries, before.cache.entries + 1, "rows == threshold is cached");
    assert_eq!(after.raw.entries, before.raw.entries + 1, "and promoted into the raw tier");

    // …while one row more streams, with no ETag, and leaves both tiers
    // untouched, on a repeat too.
    served.set_stream_threshold(1);
    let target = "/v1/query?uarch=Skylake&sort=latency";
    for _ in 0..2 {
        write!(stream, "GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").expect("send");
        let over = read_wire(&mut stream, false);
        let want = respond(&reference, "GET", target);
        assert!(over.chunked, "rows == threshold + 1 must stream");
        assert_eq!((over.status, over.etag), (200, None), "a stream carries no ETag");
        assert_eq!(over.body, &want.body[..], "de-chunked stream == the whole body");
    }
    let streamed = served.stats();
    assert_eq!(streamed.cache.entries, after.cache.entries, "a stream enters no fingerprint entry");
    assert_eq!(streamed.raw.entries, after.raw.entries, "a stream enters no raw entry");
    drop(stream);
    server.shutdown();
}

#[test]
fn slow_loris_bytes_and_pipelining_parse_identically() {
    let service = service();
    let server = Server::bind("127.0.0.1:0", service, 1).expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");

    // Baseline: one request delivered whole.
    let request: &[u8] = b"GET /v1/query?uarch=Skylake HTTP/1.1\r\nHost: t\r\n\r\n";
    stream.write_all(request).expect("send");
    let expected = read_response(&mut stream);

    // Three pipelined requests, delivered one byte per write: the parser
    // must resume mid-head across hundreds of EAGAIN-separated reads, and
    // the completion loop must drain the pipelined follow-ups.
    let pipelined: Vec<u8> = request.iter().chain(request).chain(request).copied().collect();
    for &byte in &pipelined {
        stream.write_all(&[byte]).expect("send byte");
    }
    for round in 0..3 {
        let got = read_response(&mut stream);
        assert_eq!(
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&expected),
            "byte-at-a-time response {round} differs from whole-request delivery"
        );
    }
    drop(stream);
    handle.shutdown();
}

/// A service whose query response is far larger than the kernel can
/// buffer on a loopback socket pair (send buffer + receive window), so a
/// peer that never reads leaves the reactor parked mid-response.
fn big_service() -> Arc<QueryService> {
    let mut s = Snapshot::new("reactor write-stall test");
    for i in 0..60_000u32 {
        s.records.push(VariantRecord {
            mnemonic: format!("OP{i:05}"),
            variant: format!("R64, R64, PAD_{i:064}"),
            extension: "BASE".into(),
            uarch: "Skylake".into(),
            uop_count: 1,
            ports: vec![(0b0110_0011, 1)],
            tp_measured: 0.25,
            ..Default::default()
        });
    }
    let segment = Arc::new(Segment::from_bytes(Segment::encode(&s)).expect("segment"));
    let service = Arc::new(QueryService::from_segment(segment, 1 << 20));
    // Whole-body responses only: this test stalls the single
    // `Content-Length` write path (the chunked-export stall has its own
    // coverage), so streaming is disabled.
    service.set_stream_threshold(0);
    service
}

#[test]
fn a_peer_that_stops_reading_is_evicted_at_the_write_stall_timeout() {
    let options = ServerOptions {
        // Keep-alive eviction is pushed far out so the only sub-second
        // eviction path is the write-stall one.
        keep_alive_timeout: Duration::from_secs(30),
        write_stall_timeout: Duration::from_millis(300),
        ..Default::default()
    };
    let server = Server::bind_with("127.0.0.1:0", big_service(), 1, options).expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    // Request the multi-megabyte response, then stop reading entirely:
    // the kernel buffers fill, the reactor's write returns `Pending` with
    // no further progress, and the stall timer must evict the connection.
    let mut stalled = TcpStream::connect(addr).expect("connect");
    stalled.write_all(b"GET /v1/query?uarch=Skylake HTTP/1.1\r\nHost: t\r\n\r\n").expect("send");
    std::thread::sleep(Duration::from_millis(1500));

    // Draining now yields whatever the kernel had buffered, then EOF (or
    // a reset) — never the complete response.
    let mut tail = Vec::new();
    stalled.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let drained = match stalled.read_to_end(&mut tail) {
        Ok(_) => tail.len(),
        Err(_) => tail.len(), // reset mid-drain still proves eviction
    };
    let text = String::from_utf8_lossy(&tail[..tail.len().min(4096)]).to_string();
    let advertised: usize = text
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("response head was sent before the stall");
    assert!(
        advertised > 4 << 20,
        "test premise: response ({advertised} B) must exceed kernel buffering"
    );
    assert!(
        drained < advertised,
        "the stalled connection must have been cut off mid-response \
         ({drained} of {advertised} body bytes arrived)"
    );

    // The eviction is attributed to the slow-reader counter and the
    // server keeps serving.
    let mut fresh = TcpStream::connect(addr).expect("connect fresh");
    fresh.write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n").expect("send");
    let metrics = String::from_utf8_lossy(&read_response(&mut fresh)).to_string();
    let evictions: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("uops_http_slow_reader_evictions_total "))
        .and_then(|v| v.trim().parse().ok())
        .expect("slow-reader counter");
    assert_eq!(evictions, 1, "exactly one write-stall eviction:\n{metrics}");

    drop((stalled, fresh));
    handle.shutdown();
}

#[test]
fn stalled_half_request_is_evicted_at_the_idle_timeout() {
    let service = service();
    let options =
        ServerOptions { keep_alive_timeout: Duration::from_millis(300), ..Default::default() };
    let server = Server::bind_with("127.0.0.1:0", service, 1, options).expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    // A healthy connection keeps working while the stalled one is evicted.
    let mut healthy = TcpStream::connect(addr).expect("connect healthy");
    let mut stalled = TcpStream::connect(addr).expect("connect stalled");
    stalled.write_all(b"GET /v1/query?uarch=Skylake HTT").expect("send half");

    // Well past the 300ms timeout (+ coarse-tick slack): the reactor must
    // have dropped the stalled connection without writing anything.
    std::thread::sleep(Duration::from_millis(1200));
    let mut tail = Vec::new();
    stalled.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    stalled.read_to_end(&mut tail).expect("EOF read");
    assert!(
        tail.is_empty(),
        "a stalled half-request gets eviction (clean close), not a response: {:?}",
        String::from_utf8_lossy(&tail)
    );

    // Eviction shows in the connection gauges, and the healthy (also idle
    // past the timeout) connection was evicted too — so a fresh one still
    // gets served.
    let mut err = [0u8; 1];
    healthy.write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap_or(());
    healthy.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    assert_eq!(healthy.read(&mut err).expect("evicted idle conn reads EOF"), 0);

    let mut fresh = TcpStream::connect(addr).expect("connect fresh");
    fresh.write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n").expect("send");
    let metrics = String::from_utf8_lossy(&read_response(&mut fresh)).to_string();
    let closed: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("uops_http_connections_closed_total "))
        .and_then(|v| v.trim().parse().ok())
        .expect("closed counter");
    assert!(closed >= 2, "both idle connections were evicted, saw {closed}:\n{metrics}");

    drop((fresh, healthy, stalled));
    handle.shutdown();
}

/// The reactor surfaces per-shard connection balance in `/v1/stats`: a
/// `shards` object with the live-connection and accepted vectors plus a
/// min/max/mean/spread skew summary, so rebalance drift is observable
/// without scraping `/metrics`.
#[test]
fn stats_reports_per_shard_connection_skew() {
    const SHARDS: usize = 2;
    let server = Server::bind("127.0.0.1:0", service(), SHARDS).expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    // Park a few keep-alive connections so the gauges have something to
    // show, then read stats over one of them.
    let mut parked: Vec<TcpStream> = (0..3)
        .map(|_| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .write_all(b"GET /v1/query?uarch=Skylake HTTP/1.1\r\nHost: t\r\n\r\n")
                .expect("send");
            let response = read_response(&mut stream);
            assert!(response.starts_with(b"HTTP/1.1 200"));
            stream
        })
        .collect();
    let stats = {
        let stream = parked.last_mut().expect("parked");
        stream.write_all(b"GET /v1/stats HTTP/1.1\r\nHost: t\r\n\r\n").expect("send");
        String::from_utf8_lossy(&read_response(stream)).to_string()
    };

    assert!(stats.contains(&format!("\"shards\": {{\"count\": {SHARDS}, ")), "{stats}");
    for field in ["\"connections\": [", "\"accepted\": [", "\"skew\": {\"min\": "] {
        assert!(stats.contains(field), "missing {field} in {stats}");
    }
    // Three live connections across two shards: the summed vector and the
    // skew bounds must agree with that.
    let section = stats.split("\"shards\": ").nth(1).expect("shards section");
    let connections: Vec<i64> = section
        .split("\"connections\": [")
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .expect("connections vector")
        .split(", ")
        .map(|n| n.parse().expect("gauge value"))
        .collect();
    assert_eq!(connections.len(), SHARDS);
    assert_eq!(connections.iter().sum::<i64>(), 3, "{stats}");
    let min: i64 = section
        .split("\"min\": ")
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit() && c != '-').next())
        .and_then(|n| n.parse().ok())
        .expect("skew min");
    let max: i64 = section
        .split("\"max\": ")
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit() && c != '-').next())
        .and_then(|n| n.parse().ok())
        .expect("skew max");
    assert_eq!(min, *connections.iter().min().expect("min"));
    assert_eq!(max, *connections.iter().max().expect("max"));

    drop(parked);
    handle.shutdown();
}

/// A refused request whose body is still arriving keeps its response: the
/// shard shuts down its side and discards the rest of the body until the
/// peer closes, since closing a socket with unread input sends `RST`.
#[test]
fn a_refused_oversize_body_still_gets_its_413() {
    let options = ServerOptions { max_body: 64, ..ServerOptions::default() };
    let server = Server::bind_with("127.0.0.1:0", service(), 1, options).expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    // Far past the 32 KiB request buffer, so most of it is still unread
    // when the 413 goes out.
    let body = vec![b'a'; 256 * 1024];
    let mut request =
        format!("POST /v1/batch HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n", body.len())
            .into_bytes();
    request.extend_from_slice(&body);
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(&request).expect("the whole body is accepted");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("the response survives the unread body");
    let text = String::from_utf8_lossy(&response);
    assert!(text.starts_with("HTTP/1.1 413"), "{text}");
    assert!(text.contains("Connection: close"), "{text}");

    drop(stream);
    handle.shutdown();
}

/// The `"executions"` counter of a `/v1/stats` response.
fn stats_executions(stats: &[u8]) -> u64 {
    String::from_utf8_lossy(stats)
        .split("\"executions\": ")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.trim().parse().ok())
        .expect("executions counter")
}

/// An uncached answer yields the shard: while one connection pipelines a
/// run of distinct (never-cached) queries, another connection on the same
/// single shard is answered between two of them, not after the run.
///
/// Both requests are queued while the shard is parked inside a gated
/// `/v1/stats` answer, so the run cannot finish before the other request
/// arrives, however the client thread is scheduled.
#[test]
fn a_pipelined_miss_run_yields_to_the_shards_other_connections() {
    const RUN: usize = 500;
    let service = service();
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service), 1).expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();
    let stats = b"GET /v1/stats HTTP/1.1\r\nHost: t\r\n\r\n";

    let mut other = TcpStream::connect(addr).expect("connect other");
    other.write_all(stats).expect("send");
    let before = stats_executions(&read_response(&mut other));
    // Accepted and registered on the shard before the gate closes.
    let mut flood = TcpStream::connect(addr).expect("connect flood");
    flood.write_all(stats).expect("send");
    read_response(&mut flood);

    // The next `/v1/stats` answer meets the test at the barrier twice:
    // once when the shard is parked in it, once to let it go.
    let armed = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(2));
    let (hook_armed, hook_barrier) = (Arc::clone(&armed), Arc::clone(&barrier));
    service.set_stats_extension(move |_| {
        if hook_armed.swap(false, Ordering::SeqCst) {
            hook_barrier.wait();
            hook_barrier.wait();
        }
    });
    armed.store(true, Ordering::SeqCst);
    let mut gate = TcpStream::connect(addr).expect("connect gate");
    gate.write_all(stats).expect("send");
    barrier.wait();

    let mut run = String::new();
    for offset in 0..RUN {
        run.push_str(&format!(
            "GET /v1/query?uarch=Skylake&offset={offset}&limit=1 HTTP/1.1\r\nHost: t\r\n\r\n"
        ));
    }
    flood.write_all(run.as_bytes()).expect("send run");
    other.write_all(stats).expect("send");
    barrier.wait();
    read_response(&mut gate);
    let during = stats_executions(&read_response(&mut other));
    assert!(
        during < before + RUN as u64,
        "the stats request waited for the whole run ({} of {RUN} executed)",
        during - before
    );

    for _ in 0..RUN {
        let response = read_response(&mut flood);
        assert!(response.starts_with(b"HTTP/1.1 200"), "{}", String::from_utf8_lossy(&response));
    }
    drop((flood, other, gate));
    handle.shutdown();
}

/// A graceful drain does not wait on clients that keep their sockets
/// open. Two clients each have a large response in flight when the drain
/// starts; one has a second request pipelined behind it. That request is
/// answered with `Connection: close`, the other connection goes idle, and
/// both close at once, so the drain finishes long before the 30 s idle
/// and write-stall deadlines.
#[test]
fn a_drain_does_not_wait_on_clients_that_keep_their_sockets_open() {
    const BIG: &[u8] = b"GET /v1/query?uarch=Skylake HTTP/1.1\r\nHost: t\r\n\r\n";
    const STATS: &[u8] = b"GET /v1/stats HTTP/1.1\r\nHost: t\r\n\r\n";
    let options = ServerOptions {
        keep_alive_timeout: Duration::from_secs(30),
        write_stall_timeout: Duration::from_secs(30),
        ..Default::default()
    };
    let server = Server::bind_with("127.0.0.1:0", big_service(), 1, options).expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();

    // Each first response is far larger than the socket buffers, so it is
    // still being written when the drain starts.
    let mut pipelined = TcpStream::connect(addr).expect("connect");
    pipelined.write_all(&[BIG, STATS].concat()).expect("send");
    let mut single = TcpStream::connect(addr).expect("connect");
    single.write_all(BIG).expect("send");
    // Both responses have started, so both requests predate the drain.
    for client in [&pipelined, &single] {
        client.peek(&mut [0u8; 1]).expect("the response starts");
    }
    let drain = std::thread::spawn(move || {
        let started = std::time::Instant::now();
        handle.shutdown_graceful(Duration::from_secs(20));
        started.elapsed()
    });
    // Let the shard see the drain before the clients read.
    std::thread::sleep(Duration::from_millis(200));

    let mut rest = [0u8; 1];
    for client in [&mut pipelined, &mut single] {
        client.set_read_timeout(Some(Duration::from_secs(20))).expect("timeout");
        let first = read_response(client);
        assert!(first.starts_with(b"HTTP/1.1 200"), "the in-flight response completes");
    }
    let second = String::from_utf8_lossy(&read_response(&mut pipelined)).to_string();
    assert!(second.starts_with("HTTP/1.1 200"), "{second}");
    assert!(second.contains("Connection: close"), "{second}");
    for client in [&mut pipelined, &mut single] {
        assert_eq!(client.read(&mut rest).expect("EOF after the last response"), 0);
    }

    // Both clients still hold their sockets open.
    let elapsed = drain.join().expect("drain");
    assert!(elapsed < Duration::from_secs(5), "the drain took {elapsed:?}");
    drop((pipelined, single));
}
