//! Benchmarks of the serving stack on the 2100-record bench database (the
//! same 700-variants × 3-µarch synthetic dataset as `db_query`):
//!
//! * **service**: request latency at the transport-agnostic
//!   [`QueryService`] layer, across the whole ladder — uncached
//!   plan+execute+encode, fingerprint-tier hit via the wire string
//!   (percent-decode + plan parse + canonicalize + fingerprint + lookup),
//!   plan-level fingerprint hit, and the raw fast lane (one hash + one
//!   probe + an `Arc` bump). Gates: fingerprint hit ≥ 5x faster than
//!   uncached; raw fast-lane hit measurably (≥ 1.2x) faster than the
//!   wire fingerprint hit.
//! * **http**: requests/s over real sockets with a pipelined keep-alive
//!   client, comparing the allocation-free transport (raw fast lane +
//!   single vectored write) against an in-bench **emulation of the PR 4
//!   baseline transport** (line-by-line allocating parse, fingerprint
//!   tier only, formatted head + separate body writes). Gates: fast lane
//!   ≥ 2x the baseline; `If-None-Match` → 304 beats full-body responses.
//! * **telemetry**: the same fast-lane battery against a `--no-telemetry`
//!   server. Gate: full instrumentation (per-route histograms, tier
//!   latency split, byte/status counters) keeps ≥ 0.9x of the
//!   telemetry-off throughput. The report also extracts `/v1/query`
//!   p50/p99 from the server's own latency histograms — the numbers a
//!   scrape of `/metrics` would serve.
//! * **reactor**: a 10k-idle-keep-alive battery — the connections are
//!   parked on the shards' timer wheels while pipelined throughput is
//!   re-measured through the crowd. Gate: idle-connection memory
//!   (process RSS delta / connections) bounded at 16 KiB per parked
//!   connection.
//! * **swap**: zero-downtime generation swaps — sustained pipelined
//!   cache-hit load while a swapper thread alternates two live segments
//!   under a monotone generation counter (each swap flushes both cache
//!   tiers). Gates: the load spans ≥ 5 swaps with **zero** failed
//!   requests, and throughput under swaps keeps ≥ 0.8x of the unloaded
//!   rate.
//! * **batch**: `/v1/batch` amortization — 1000 cold plans in one framed
//!   POST against the same 1000 as lockstep singles down one keep-alive
//!   connection. Gate: amortized ns/plan in the batch ≤ 0.10x the
//!   per-request cost of the singles.
//! * **export**: chunked-streaming memory ceiling — a multi-tens-of-MB
//!   JSON export is drained through the server while the process RSS
//!   delta must stay ≤ 16 MiB (far below the body), proving the export
//!   is emitted in bounded 64 KiB chunks.
//!
//! Every server here runs on epoll reactor shards, the only transport.
//! Besides the human-readable report, the run writes a machine-readable
//! summary, with the machine's core count, to `BENCH_serve.json`
//! (override with the `BENCH_SERVE_JSON` environment variable) for CI
//! artifact upload; the repo root carries the committed numbers per PR
//! so the trajectory is tracked in-tree.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use uops_db::{Query, QueryPlan, Segment, Snapshot, SortKey, VariantRecord};
use uops_serve::{
    decode_batch_response, respond, route, Encoding, QueryService, Route, Server, ServerOptions,
};

/// The same synthetic shape as the `db_query` bench: 700 variants on three
/// microarchitectures = 2100 records.
fn synthetic_snapshot(per_uarch: usize) -> Snapshot {
    let uarches = ["Haswell", "Skylake", "Coffee Lake"];
    let extensions = ["BASE", "SSE2", "SSSE3", "AVX", "AVX2", "BMI2"];
    let variants = ["R64, R64", "R32, R32", "XMM, XMM", "YMM, YMM, YMM", "R64, M64"];
    let masks: [u16; 6] =
        [0b0110_0011, 0b0100_0001, 0b0010_0011, 0b0000_0011, 0b0000_1100, 0b0011_0000];
    let mut snapshot = Snapshot::new("serve bench");
    for uarch in uarches {
        for i in 0..per_uarch {
            let mnemonic =
                format!("{}OP{:04}", if i % 3 == 0 { "V" } else { "" }, i / variants.len());
            snapshot.records.push(VariantRecord {
                mnemonic,
                variant: variants[i % variants.len()].to_string(),
                extension: extensions[i % extensions.len()].to_string(),
                uarch: uarch.to_string(),
                uop_count: (i % 4 + 1) as u32,
                ports: vec![(masks[i % masks.len()], (i % 4 + 1) as u32)],
                tp_measured: 0.25 * (i % 8 + 1) as f64,
                ..Default::default()
            });
        }
    }
    snapshot
}

/// A representative hot query: indexed on (uarch, port), residual µop
/// filter, throughput sort, paginated — the uncached path runs the full
/// planner + gallop + sort + encode pipeline over hundreds of matches.
fn hot_plan() -> QueryPlan {
    Query::new()
        .uarch("Skylake")
        .uses_port(5)
        .min_uops(2)
        .sort_by(SortKey::Throughput)
        .limit(50)
        .into_plan()
}

fn median_ns<T>(runs: usize, mut f: impl FnMut() -> T) -> f64 {
    for _ in 0..3 {
        black_box(f());
    }
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Requests per connection, kept under the server's keep-alive budget
/// (1024) so clients reconnect before the server hangs up.
const REQUESTS_PER_CONNECTION: usize = 1000;

/// Issues `count` keep-alive GETs for `targets` (cycled) in lockstep,
/// reconnecting every [`REQUESTS_PER_CONNECTION`] requests, returning
/// requests/s. Used for the uncached battery, where every response frame
/// differs.
fn http_requests_per_sec(addr: &std::net::SocketAddr, targets: &[String], count: usize) -> f64 {
    let connect = || {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let writer = stream.try_clone().expect("clone");
        (writer, BufReader::new(stream))
    };
    let (mut writer, mut reader) = connect();
    let t = Instant::now();
    for i in 0..count {
        if i > 0 && i % REQUESTS_PER_CONNECTION == 0 {
            (writer, reader) = connect();
        }
        let target = &targets[i % targets.len()];
        write!(writer, "GET {target} HTTP/1.1\r\nHost: b\r\n\r\n").expect("send");
        writer.flush().expect("flush");
        // Read the header block, then exactly Content-Length body bytes.
        let mut line = String::new();
        let mut content_length = 0usize;
        loop {
            line.clear();
            reader.read_line(&mut line).expect("read header");
            let trimmed = line.trim_end();
            if trimmed.is_empty() {
                break;
            }
            if let Some(v) = trimmed.strip_prefix("Content-Length: ") {
                content_length = v.parse().expect("length");
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).expect("read body");
        black_box(body);
    }
    count as f64 / t.elapsed().as_secs_f64()
}

/// One lockstep exchange, returning the full response (head + body)
/// byte-for-byte. Deterministic targets produce deterministic frames, so
/// the pipelined measurement can `read_exact` multiples of this length.
fn learn_response(stream: &mut TcpStream, request: &[u8]) -> Vec<u8> {
    stream.write_all(request).expect("send");
    let mut out = Vec::new();
    let mut byte = [0u8; 1];
    while !out.ends_with(b"\r\n\r\n") {
        assert_eq!(stream.read(&mut byte).expect("read head"), 1, "unexpected EOF");
        out.push(byte[0]);
    }
    let text = String::from_utf8_lossy(&out).to_string();
    let body_len: usize = text
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .map_or(0, |v| v.trim().parse().expect("length"));
    // HEAD is not used here and 304 advertises no length, so Content-Length
    // (when present) is always followed by the body.
    let at = out.len();
    out.resize(at + body_len, 0);
    stream.read_exact(&mut out[at..]).expect("read body");
    out
}

/// Pipelined keep-alive throughput for one deterministic `request`:
/// batches of [`PIPELINE_BATCH`] requests go out in a single write, the
/// concatenated responses come back in bulk `read_exact`s. This
/// amortizes the client's syscalls and scheduler wakeups so the
/// measurement tracks the *server's* per-request cost (the interesting
/// number on the single-core bench machines).
const PIPELINE_BATCH: usize = 50;

fn http_pipelined_rps(addr: &std::net::SocketAddr, request: &[u8], batches: usize) -> f64 {
    let connect = || {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
    };
    let mut stream = connect();
    // Learn the frame and warm every cache tier + scratch buffer (twice:
    // the first exchange may promote into the fast lane).
    let _ = learn_response(&mut stream, request);
    let expected = learn_response(&mut stream, request);
    let batch_request = request.repeat(PIPELINE_BATCH);
    let mut batch_response = vec![0u8; expected.len() * PIPELINE_BATCH];
    let mut served_on_connection = 2usize;

    let t = Instant::now();
    for _ in 0..batches {
        if served_on_connection + PIPELINE_BATCH > REQUESTS_PER_CONNECTION {
            stream = connect();
            served_on_connection = 0;
        }
        stream.write_all(&batch_request).expect("send batch");
        stream.read_exact(&mut batch_response).expect("read batch");
        served_on_connection += PIPELINE_BATCH;
    }
    let elapsed = t.elapsed().as_secs_f64();
    assert_eq!(
        &batch_response[..expected.len()],
        &expected[..],
        "pipelined frames must match the learned response"
    );
    (batches * PIPELINE_BATCH) as f64 / elapsed
}

/// Pipelined keep-alive throughput that parses every response frame
/// individually (status line + `Content-Length`) instead of byte-matching
/// a learned frame, so it stays correct while the served bytes change
/// under it mid-run — the body *and* the content-derived ETag legitimately
/// differ across a generation swap. Returns (requests/s, non-200 count).
fn http_pipelined_parsed_rps(
    addr: &std::net::SocketAddr,
    request: &[u8],
    batches: usize,
) -> (f64, u64) {
    fn read_parsed(reader: &mut BufReader<TcpStream>) -> bool {
        let mut ok = false;
        let mut content_length = 0usize;
        let mut line = String::new();
        loop {
            line.clear();
            reader.read_line(&mut line).expect("read header");
            let trimmed = line.trim_end();
            if trimmed.is_empty() {
                break;
            }
            if let Some(status) = trimmed.strip_prefix("HTTP/1.1 ") {
                ok = status.starts_with("200");
            }
            if let Some(v) = trimmed.strip_prefix("Content-Length: ") {
                content_length = v.parse().expect("length");
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).expect("read body");
        black_box(body);
        ok
    }
    let connect = || {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let writer = stream.try_clone().expect("clone");
        (writer, BufReader::new(stream))
    };
    let (mut writer, mut reader) = connect();
    // Warm every cache tier (twice: the first exchange may promote).
    let mut failures = 0u64;
    for _ in 0..2 {
        writer.write_all(request).expect("warm send");
        read_parsed(&mut reader);
    }
    let batch_request = request.repeat(PIPELINE_BATCH);
    let mut served_on_connection = 2usize;
    let t = Instant::now();
    for _ in 0..batches {
        if served_on_connection + PIPELINE_BATCH > REQUESTS_PER_CONNECTION {
            (writer, reader) = connect();
            served_on_connection = 0;
        }
        writer.write_all(&batch_request).expect("send batch");
        for _ in 0..PIPELINE_BATCH {
            if !read_parsed(&mut reader) {
                failures += 1;
            }
        }
        served_on_connection += PIPELINE_BATCH;
    }
    let elapsed = t.elapsed().as_secs_f64();
    ((batches * PIPELINE_BATCH) as f64 / elapsed, failures)
}

/// An in-bench emulation of the **PR 4 baseline transport**, serving the
/// same [`QueryService`] routing: line-by-line reads into fresh `String`s,
/// per-request `String` path/query, the fingerprint cache tier only (no
/// raw fast lane — `route` is called below it), a `format!`ed header
/// block, and separate head/body writes through a `BufWriter`. Everything
/// the tentpole removed, kept runnable so the speedup is measured, not
/// asserted by hand.
fn spawn_legacy_baseline(service: Arc<QueryService>) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind legacy");
    let addr = listener.local_addr().expect("addr");
    std::thread::Builder::new()
        .name("legacy-baseline-accept".into())
        .spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { return };
                let service = Arc::clone(&service);
                std::thread::spawn(move || {
                    let _ = stream.set_nodelay(true);
                    let Ok(write_half) = stream.try_clone() else { return };
                    let mut reader = BufReader::new(stream);
                    let mut writer = BufWriter::new(write_half);
                    // PR 4's read_line_bounded: a fresh Vec per line,
                    // converted to an owned String.
                    let read_line = |reader: &mut BufReader<TcpStream>| -> Option<String> {
                        let mut line = Vec::new();
                        loop {
                            let buf = reader.fill_buf().ok()?;
                            if buf.is_empty() {
                                return None;
                            }
                            match buf.iter().position(|&b| b == b'\n') {
                                Some(nl) => {
                                    line.extend_from_slice(&buf[..nl]);
                                    reader.consume(nl + 1);
                                    if line.last() == Some(&b'\r') {
                                        line.pop();
                                    }
                                    return String::from_utf8(line).ok();
                                }
                                None => {
                                    let taken = buf.len();
                                    line.extend_from_slice(buf);
                                    reader.consume(taken);
                                }
                            }
                        }
                    };
                    loop {
                        let Some(request_line) = read_line(&mut reader) else { return };
                        let mut parts = request_line.split(' ');
                        let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
                            return;
                        };
                        let mut keep_alive = true;
                        loop {
                            let Some(header) = read_line(&mut reader) else { return };
                            if header.is_empty() {
                                break;
                            }
                            // PR 4 lowercased every header name (an
                            // allocation) and token-scanned Connection.
                            let Some((name, value)) = header.split_once(':') else { return };
                            let name = name.trim().to_ascii_lowercase();
                            if name == "connection" {
                                for token in value.split(',') {
                                    match token.trim().to_ascii_lowercase().as_str() {
                                        "close" => keep_alive = false,
                                        "keep-alive" => keep_alive = true,
                                        _ => {}
                                    }
                                }
                            }
                        }
                        let (path, query) = match target.split_once('?') {
                            Some((p, q)) => (p.to_string(), q.to_string()),
                            None => (target.to_string(), String::new()),
                        };
                        let method = method.to_string();
                        let response = route(&service, &method, &path, &query);
                        let head = format!(
                            "HTTP/1.1 {} OK\r\nContent-Type: {}\r\nContent-Length: {}\r\n\
                             Connection: {}\r\n\r\n",
                            response.status,
                            response.content_type,
                            response.body.len(),
                            if keep_alive { "keep-alive" } else { "close" },
                        );
                        if writer.write_all(head.as_bytes()).is_err()
                            || writer.write_all(&response.body).is_err()
                            || writer.flush().is_err()
                            || !keep_alive
                        {
                            return;
                        }
                    }
                });
            }
        })
        .expect("spawn legacy accept");
    addr
}

fn bench_serve(c: &mut Criterion) {
    let snapshot = synthetic_snapshot(700);
    let segment = Arc::new(Segment::from_bytes(Segment::encode(&snapshot)).expect("valid segment"));
    let records = snapshot.records.len();
    assert!(records >= 2100, "bench db must hold 2100 records, got {records}");

    let cached = QueryService::from_segment(Arc::clone(&segment), 64 << 20);
    let uncached = QueryService::from_segment_with_raw_cache(Arc::clone(&segment), 0, 0);
    let plan = hot_plan();
    let wire = plan.to_query_string();
    let hot_target = format!("/v1/query?{wire}");
    // Warm the cached service once so its steady state is all hits.
    let warm = cached.query(&plan, Encoding::Json);
    assert_eq!(
        warm.body,
        uncached.query(&plan, Encoding::Json).body,
        "cached and uncached responses must be byte-identical"
    );
    assert_eq!(
        respond(&cached, "GET", &hot_target).body,
        warm.body,
        "fast-lane responses must be byte-identical too"
    );

    let mut group = c.benchmark_group("serve");
    group.bench_function("service/uncached_query", |b| {
        b.iter(|| black_box(uncached.query(black_box(&plan), Encoding::Json).body.len()))
    });
    group.bench_function("service/fingerprint_hit_wire", |b| {
        b.iter(|| black_box(cached.query_wire(black_box(wire.as_str()), Encoding::Json).body.len()))
    });
    group.bench_function("service/fingerprint_hit_plan", |b| {
        b.iter(|| black_box(cached.query(black_box(&plan), Encoding::Json).body.len()))
    });
    group.bench_function("service/raw_fast_lane_hit", |b| {
        b.iter(|| black_box(respond(&cached, "GET", black_box(hot_target.as_str())).body.len()))
    });
    group.finish();

    // ---- service-level gates + numbers ----
    let uncached_ns = median_ns(25, || uncached.query(&plan, Encoding::Json).body.len());
    let cached_ns = median_ns(25, || cached.query(&plan, Encoding::Json).body.len());
    let wire_hit_ns = median_ns(25, || cached.query_wire(&wire, Encoding::Json).body.len());
    let raw_hit_ns = median_ns(25, || respond(&cached, "GET", &hot_target).body.len());
    let speedup = uncached_ns / cached_ns.max(1.0);
    assert!(
        speedup >= 5.0,
        "a cache hit must be >= 5x faster than the uncached pipeline \
         (uncached {uncached_ns:.0} ns vs cached {cached_ns:.0} ns = {speedup:.1}x)"
    );
    let raw_vs_wire = wire_hit_ns / raw_hit_ns.max(1.0);
    assert!(
        raw_vs_wire >= 1.2,
        "the raw fast lane must be measurably faster than a fingerprint-tier hit \
         (wire hit {wire_hit_ns:.0} ns vs raw hit {raw_hit_ns:.0} ns = {raw_vs_wire:.2}x)"
    );
    let hits_before = cached.stats();
    let _ = cached.query(&plan, Encoding::Json);
    let _ = respond(&cached, "GET", &hot_target);
    let hits_after = cached.stats();
    assert_eq!(hits_after.executions, hits_before.executions, "hit skips the executor");
    assert_eq!(hits_after.encodes, hits_before.encodes, "hit skips the encoder");

    // ---- HTTP layer: requests/s over real sockets ----
    let http_service = Arc::new(QueryService::from_segment(Arc::clone(&segment), 64 << 20));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&http_service), 2).expect("bind");
    let addr = server.local_addr();
    let server_metrics = server.metrics();
    let handle = server.spawn();
    // The same stack with telemetry compiled in but disabled: the
    // comparison server for the overhead gate.
    let quiet_service = Arc::new(QueryService::from_segment(Arc::clone(&segment), 64 << 20));
    let quiet_server = Server::bind_with(
        "127.0.0.1:0",
        Arc::clone(&quiet_service),
        2,
        ServerOptions { no_telemetry: true, ..ServerOptions::default() },
    )
    .expect("bind quiet");
    let quiet_addr = quiet_server.local_addr();
    let quiet_handle = quiet_server.spawn();
    let legacy_service =
        Arc::new(QueryService::from_segment_with_raw_cache(Arc::clone(&segment), 64 << 20, 0));
    let legacy_addr = spawn_legacy_baseline(Arc::clone(&legacy_service));

    let hot_request = format!("GET {hot_target} HTTP/1.1\r\nHost: b\r\n\r\n").into_bytes();
    // Learn the hot ETag for the conditional-request scenario.
    let etag = {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let response = learn_response(&mut stream, &hot_request);
        String::from_utf8_lossy(&response)
            .lines()
            .find_map(|l| l.strip_prefix("ETag: ").map(str::to_string))
            .expect("hot response carries an ETag")
    };
    let conditional_request =
        format!("GET {hot_target} HTTP/1.1\r\nHost: b\r\nIf-None-Match: {etag}\r\n\r\n")
            .into_bytes();

    // Pipelined keep-alive: fast lane vs the PR 4 baseline emulation vs
    // 304 revalidation, same client, same database, same hot target —
    // plus the telemetry-off server for the overhead gate. All four are
    // measured in interleaved rounds so a scheduler hiccup on a shared CI
    // box lands on the whole round, not on one server: the ratio gates
    // below compare rounds pairwise and take the best pairing, which
    // bounds the true capability ratio no matter which round was noisy.
    const MEASURE_ROUNDS: usize = 5;
    let mut quiet_rounds = [0.0f64; MEASURE_ROUNDS];
    let mut cached_rounds = [0.0f64; MEASURE_ROUNDS];
    let mut not_modified_rounds = [0.0f64; MEASURE_ROUNDS];
    let mut legacy_rounds = [0.0f64; MEASURE_ROUNDS];
    for i in 0..MEASURE_ROUNDS {
        quiet_rounds[i] = http_pipelined_rps(&quiet_addr, &hot_request, 60);
        cached_rounds[i] = http_pipelined_rps(&addr, &hot_request, 60);
        not_modified_rounds[i] = http_pipelined_rps(&addr, &conditional_request, 60);
        legacy_rounds[i] = http_pipelined_rps(&legacy_addr, &hot_request, 60);
    }
    let best = |rounds: &[f64]| rounds.iter().fold(0.0f64, |a, &b| a.max(b));
    let best_paired_ratio = |num: &[f64], den: &[f64]| {
        num.iter().zip(den).map(|(&n, &d)| n / d.max(1.0)).fold(0.0f64, f64::max)
    };
    let http_quiet_rps = best(&quiet_rounds);
    let http_cached_rps = best(&cached_rounds);
    let http_not_modified_rps = best(&not_modified_rounds);
    let http_legacy_rps = best(&legacy_rounds);

    // Distinct offsets make every request a distinct plan (cache miss)
    // over the same expensive result set.
    let cold_targets: Vec<String> = (0..512)
        .map(|i| {
            format!("/v1/query?uarch=Skylake&port=5&min_uops=2&sort=throughput&offset={i}&limit=50")
        })
        .collect();
    let http_uncached_rps = http_requests_per_sec(&addr, &cold_targets, 512);

    // Request-latency percentiles straight out of the server's own
    // per-route histograms (everything the pipelined + uncached batteries
    // drove through /v1/query), before shutdown.
    let query_latency = server_metrics.route_latency(Route::Query);
    let fast_lane_p50_ns = query_latency.quantile(0.50);
    let fast_lane_p99_ns = query_latency.quantile(0.99);
    assert!(query_latency.count() > 0, "the bench must have recorded query latencies");

    // ---- reactor: the 10k-idle battery ----
    let reactor_json = {
        use std::time::Duration;

        use uops_serve::net::{raise_nofile_limit, rss_bytes};

        const REACTOR_SHARDS: usize = 2;
        // A long keep-alive so the parked idle connections survive the
        // whole measurement instead of being evicted by the timer wheel.
        let reactor_options = ServerOptions {
            keep_alive_timeout: Duration::from_secs(600),
            ..ServerOptions::default()
        };
        let reactor_service = Arc::new(QueryService::from_segment(Arc::clone(&segment), 64 << 20));
        let reactor_server =
            Server::bind_with("127.0.0.1:0", reactor_service, REACTOR_SHARDS, reactor_options)
                .expect("bind reactor");
        let reactor_addr = reactor_server.local_addr();
        let reactor_metrics = reactor_server.metrics();
        let reactor_handle = reactor_server.spawn();

        // 10k idle keep-alive connections. Each costs two fds here (client
        // and server share the process), so raise the fd ceiling first and
        // scale the target down if the limit will not stretch that far.
        let limit = raise_nofile_limit(24_576);
        let idle_target = 10_000.min((limit.saturating_sub(512) / 2) as usize);

        // The server is fresh: nothing is connected yet.
        let active_before = reactor_metrics.connections_active.get();

        let wait_active = |want: i64| {
            let deadline = Instant::now() + Duration::from_secs(30);
            while reactor_metrics.connections_active.get() < want {
                assert!(
                    Instant::now() < deadline,
                    "reactor did not accept {want} idle connections in time \
                     (active {})",
                    reactor_metrics.connections_active.get()
                );
                std::thread::sleep(Duration::from_millis(2));
            }
        };
        let rss_before = rss_bytes().expect("statm is readable on Linux");
        let mut idle = Vec::with_capacity(idle_target);
        for i in 0..idle_target {
            idle.push(TcpStream::connect(reactor_addr).expect("idle connect"));
            if (i + 1) % 512 == 0 {
                // Keep the connect burst inside the listen backlog.
                wait_active(active_before + (i as i64 + 1) - 256);
            }
        }
        wait_active(active_before + idle_target as i64);
        let rss_after = rss_bytes().expect("statm is readable on Linux");
        let idle_rss_delta = rss_after.saturating_sub(rss_before);
        let idle_bytes_per_conn = idle_rss_delta / idle_target.max(1) as u64;
        assert!(
            idle_bytes_per_conn <= 16 * 1024,
            "a parked idle connection must stay under 16 KiB of resident memory \
             ({idle_rss_delta} bytes across {idle_target} connections = \
             {idle_bytes_per_conn} bytes each)"
        );

        // Pipelined throughput again, now threading one busy connection
        // through the {idle_target}-connection crowd: epoll_wait is
        // O(ready), so the parked sockets must not tax the hot path.
        let reactor_rps_with_idle = http_pipelined_rps(&reactor_addr, &hot_request, 30);
        drop(idle);
        reactor_handle.shutdown();

        println!(
            "reactor: {idle_target} idle conns at {idle_bytes_per_conn} B RSS each | \
             {reactor_rps_with_idle:.0} req/s through the idle crowd"
        );
        format!(
            ",\n  \"reactor\": {{\n    \"shards\": {REACTOR_SHARDS},\n    \
             \"idle_connections\": {idle_target},\n    \
             \"idle_rss_delta_bytes\": {idle_rss_delta},\n    \
             \"idle_bytes_per_connection\": {idle_bytes_per_conn},\n    \
             \"requests_per_sec_with_idle\": {reactor_rps_with_idle:.0}\n  }}"
        )
    };

    handle.shutdown();
    quiet_handle.shutdown();

    // The reported ratios compare peak throughputs (the honest capability
    // numbers); the gates accept either that or the best paired round, so
    // a scheduler hiccup that lands on exactly one server in one round
    // cannot fail a gate the peaks or any clean round would pass.
    let telemetry_ratio = http_cached_rps / http_quiet_rps.max(1.0);
    let telemetry_gate = telemetry_ratio.max(best_paired_ratio(&cached_rounds, &quiet_rounds));
    assert!(
        telemetry_gate >= 0.9,
        "telemetry must cost <= 10% of raw fast-lane throughput \
         ({http_cached_rps:.0} with vs {http_quiet_rps:.0} req/s without = \
         {telemetry_ratio:.2}x; best paired round {telemetry_gate:.2}x)"
    );

    let fastlane_vs_legacy = http_cached_rps / http_legacy_rps.max(1.0);
    let fastlane_gate = fastlane_vs_legacy.max(best_paired_ratio(&cached_rounds, &legacy_rounds));
    assert!(
        fastlane_gate >= 2.0,
        "the allocation-free fast-lane transport must serve the hot cached path >= 2x the \
         PR 4 baseline transport ({http_cached_rps:.0} vs {http_legacy_rps:.0} req/s = \
         {fastlane_vs_legacy:.2}x; best paired round {fastlane_gate:.2}x)"
    );
    let not_modified_vs_full = http_not_modified_rps / http_cached_rps.max(1.0);
    assert!(
        not_modified_vs_full > 1.0,
        "304 revalidations skip the body and must beat full responses \
         ({http_not_modified_rps:.0} vs {http_cached_rps:.0} req/s)"
    );

    // ---- overload: the cached tier keeps serving while uncached floods
    // shed ----
    //
    // A dedicated server with a tight uncached-execution ceiling: flooder
    // threads hammer distinct (never-cached) plans, which mostly shed with
    // the preformatted 503 + Retry-After, while the pre-warmed hot target
    // is re-measured through the noise. The gate: graceful degradation
    // means shedding protects cache-hit throughput instead of collapsing
    // with the flood.
    let overload_service = Arc::new(QueryService::from_segment(Arc::clone(&segment), 64 << 20));
    overload_service.set_max_uncached_inflight(1);
    let overload_server = Server::bind_with(
        "127.0.0.1:0",
        Arc::clone(&overload_service),
        4,
        ServerOptions { max_inflight: 256, ..ServerOptions::default() },
    )
    .expect("bind overload");
    let overload_addr = overload_server.local_addr();
    let overload_handle = overload_server.spawn();

    const OVERLOAD_ROUNDS: usize = 3;
    let mut unloaded_rounds = [0.0f64; OVERLOAD_ROUNDS];
    for round in &mut unloaded_rounds {
        *round = http_pipelined_rps(&overload_addr, &hot_request, 40);
    }

    // Each flooder pipelines batches of distinct (never-repeated, so
    // never-cached) plans down one connection. The two lanes fire each
    // batch through a shared barrier, so every cycle the shards owning
    // the two connections wake with a batch each and contend for the
    // single execution slot: the batch is sized to outlast a scheduler
    // tick, the kernel interleaves the two shards mid-batch, and whichever
    // shard finds the slot taken sheds its requests with the cheap
    // preformatted 503.
    // The pacing sleep bounds the flood's CPU theft — the gate measures
    // whether *shedding* protects the cached tier, not whether the host
    // has spare cores to absorb an unthrottled flood (the bench
    // container has one core; an unpaced flood starves the measured
    // client at the scheduler, and no server policy can win that back).
    const FLOOD_BATCH: usize = 64;
    const FLOOD_PACE: std::time::Duration = std::time::Duration::from_millis(30);
    let stop_flood = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let cycle_gate = Arc::new(std::sync::Barrier::new(2));
    let flooders: Vec<_> = (0..2)
        .map(|lane: usize| {
            let stop = Arc::clone(&stop_flood);
            let gate = Arc::clone(&cycle_gate);
            std::thread::Builder::new()
                .name(format!("overload-flooder-{lane}"))
                .spawn(move || {
                    let mut sheds = 0u64;
                    // Monotone across reconnects: an offset reused after a
                    // reconnect would find its response cached and stop
                    // pressuring the execution slot.
                    let mut offset = lane * 10_000_000;
                    let mut conn: Option<(TcpStream, BufReader<TcpStream>)> = None;
                    let mut served = 0usize;
                    loop {
                        // Every path returns to the barrier, so neither
                        // lane can strand the other (reconnects and the
                        // final stop both pass through here).
                        gate.wait();
                        if stop.load(std::sync::atomic::Ordering::Relaxed) {
                            break;
                        }
                        if served + FLOOD_BATCH >= REQUESTS_PER_CONNECTION {
                            conn = None;
                        }
                        if conn.is_none() {
                            let Ok(stream) = TcpStream::connect(overload_addr) else {
                                continue;
                            };
                            let _ = stream.set_nodelay(true);
                            let Ok(writer) = stream.try_clone() else { continue };
                            conn = Some((writer, BufReader::new(stream)));
                            served = 0;
                        }
                        let mut batch = String::new();
                        for _ in 0..FLOOD_BATCH {
                            offset += 1;
                            batch.push_str(&format!(
                                "GET /v1/query?uarch=Haswell&min_uops=1&sort=latency\
                                 &offset={offset}&limit=50 HTTP/1.1\r\nHost: f\r\n\r\n"
                            ));
                        }
                        let mut broken = false;
                        {
                            let (writer, reader) = conn.as_mut().expect("live flood connection");
                            if writer.write_all(batch.as_bytes()).is_err() {
                                broken = true;
                            }
                            'batch: for _ in 0..FLOOD_BATCH {
                                if broken {
                                    break;
                                }
                                let mut status_503 = false;
                                let mut retry_after = false;
                                let mut content_length = 0usize;
                                let mut line = String::new();
                                loop {
                                    line.clear();
                                    match reader.read_line(&mut line) {
                                        Ok(0) | Err(_) => {
                                            broken = true;
                                            break 'batch;
                                        }
                                        Ok(_) => {}
                                    }
                                    let trimmed = line.trim_end();
                                    if trimmed.is_empty() {
                                        break;
                                    }
                                    if trimmed.starts_with("HTTP/1.1 503") {
                                        status_503 = true;
                                    }
                                    if trimmed.starts_with("Retry-After: ") {
                                        retry_after = true;
                                    }
                                    if let Some(v) = trimmed.strip_prefix("Content-Length: ") {
                                        content_length = v.parse().unwrap_or(0);
                                    }
                                }
                                let mut body = vec![0u8; content_length];
                                if reader.read_exact(&mut body).is_err() {
                                    broken = true;
                                    break;
                                }
                                if status_503 {
                                    assert!(retry_after, "shed 503s must carry Retry-After");
                                    sheds += 1;
                                }
                                served += 1;
                            }
                        }
                        if broken {
                            conn = None;
                        }
                        std::thread::sleep(FLOOD_PACE);
                    }
                    sheds
                })
                .expect("spawn flooder")
        })
        .collect();

    // The flood is demonstrably shedding before the loaded rounds start.
    let shed_counter = overload_service.shed_capacity_counter();
    let flood_live = Instant::now() + std::time::Duration::from_secs(10);
    while shed_counter.get() == 0 {
        assert!(Instant::now() < flood_live, "the flood must shed within 10 s");
        std::thread::yield_now();
    }
    let mut loaded_rounds = [0.0f64; OVERLOAD_ROUNDS];
    for round in &mut loaded_rounds {
        *round = http_pipelined_rps(&overload_addr, &hot_request, 40);
    }
    stop_flood.store(true, std::sync::atomic::Ordering::Relaxed);
    let client_sheds: u64 = flooders.into_iter().map(|f| f.join().expect("flooder")).sum();
    let total_sheds = shed_counter.get();
    overload_handle.shutdown();

    let overload_unloaded_rps = best(&unloaded_rounds);
    let overload_loaded_rps = best(&loaded_rounds);
    let overload_ratio = overload_loaded_rps / overload_unloaded_rps.max(1.0);
    assert!(client_sheds > 0, "flooder clients must have observed shed 503 responses");
    assert!(
        overload_ratio >= 0.8,
        "shedding must protect the cached tier under an uncached flood: \
         {overload_loaded_rps:.0} req/s loaded vs {overload_unloaded_rps:.0} req/s unloaded \
         = {overload_ratio:.2}x (with {total_sheds} sheds)"
    );

    // ---- swap: zero-downtime generation swaps under sustained load ----
    //
    // The live data plane's contract: swapping the served generation must
    // never fail a request (in-flight requests finish on their pinned
    // generation; new ones land on the next) and must not meaningfully
    // dent cache-hit throughput, even though every swap flushes both
    // cache tiers and forces one uncached re-execution + re-promotion of
    // the hot target. Two segments alternate under a monotone generation
    // counter while the frame-parsing pipelined client measures through
    // the churn.
    let swap_service = Arc::new(QueryService::from_segment(Arc::clone(&segment), 64 << 20));
    let swap_server = Server::bind("127.0.0.1:0", Arc::clone(&swap_service), 2).expect("bind swap");
    let swap_addr = swap_server.local_addr();
    let swap_handle = swap_server.spawn();

    // The alternate generation: the bench segment plus one extra record
    // that matches the hot plan, so each swap visibly changes the served
    // bytes (body and ETag) instead of republishing identical content.
    let mut swap_extra = Snapshot::new("swap bench extra");
    swap_extra.records.push(VariantRecord {
        mnemonic: "SWAPMARK".into(),
        variant: "R64, R64".into(),
        extension: "BASE".into(),
        uarch: "Skylake".into(),
        uop_count: 2,
        ports: vec![(0b0010_0000, 2)],
        tp_measured: 0.5,
        ..Default::default()
    });
    let swap_extra_segment =
        Segment::from_bytes(Segment::encode(&swap_extra)).expect("swap extra segment");
    let swap_alt_segment = Arc::new(Segment::merge_refs(&[&segment, &swap_extra_segment]));

    const SWAP_ROUNDS: usize = 3;
    let mut swap_unloaded_rounds = [0.0f64; SWAP_ROUNDS];
    let mut swap_unloaded_failures = 0u64;
    for round in &mut swap_unloaded_rounds {
        let (rps, failed) = http_pipelined_parsed_rps(&swap_addr, &hot_request, 40);
        *round = rps;
        swap_unloaded_failures += failed;
    }

    let stop_swapper = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let swapper = {
        let service = Arc::clone(&swap_service);
        let base = Arc::clone(&segment);
        let alt = Arc::clone(&swap_alt_segment);
        let stop = Arc::clone(&stop_swapper);
        std::thread::Builder::new()
            .name("swap-bench-swapper".into())
            .spawn(move || {
                let mut id = service.generation();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    id += 1;
                    let next = if id % 2 == 0 { &alt } else { &base };
                    assert!(
                        service.swap_segment(Arc::clone(next), id),
                        "monotone generation ids must always swap"
                    );
                    // ~100 swaps/s: each swap flushes both cache tiers,
                    // so the cadence sets how much of the load re-runs
                    // uncached. Aggressive for a data plane (real
                    // publishes are seconds apart) yet long enough that
                    // cache hits dominate between flushes.
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
            })
            .expect("spawn swapper")
    };

    // Keep measuring until the load has demonstrably spanned >= 5 swaps
    // (the generation counter is the witness), with at least the same
    // number of rounds as the unloaded side.
    let swap_load_start_generation = swap_service.generation();
    let mut swap_loaded_rounds: Vec<f64> = Vec::new();
    let mut swap_failures = 0u64;
    while swap_loaded_rounds.len() < SWAP_ROUNDS
        || swap_service.generation() - swap_load_start_generation < 5
    {
        assert!(
            swap_loaded_rounds.len() < 40,
            "the swapper must advance generations while the load runs"
        );
        let (rps, failed) = http_pipelined_parsed_rps(&swap_addr, &hot_request, 40);
        swap_loaded_rounds.push(rps);
        swap_failures += failed;
    }
    let swaps_under_load = swap_service.generation() - swap_load_start_generation;
    stop_swapper.store(true, std::sync::atomic::Ordering::Relaxed);
    swapper.join().expect("swapper");
    swap_handle.shutdown();

    let swap_unloaded_rps = best(&swap_unloaded_rounds);
    let swap_loaded_rps = best(&swap_loaded_rounds);
    let swap_retention = swap_loaded_rps / swap_unloaded_rps.max(1.0);
    let swap_gate =
        swap_retention.max(best_paired_ratio(&swap_loaded_rounds, &swap_unloaded_rounds));
    assert_eq!(swap_unloaded_failures, 0, "the unloaded swap rounds must not fail a request");
    assert_eq!(
        swap_failures, 0,
        "generation swaps must never fail a request (zero-downtime contract)"
    );
    assert!(swaps_under_load >= 5, "the load must span >= 5 swaps, saw {swaps_under_load}");
    assert!(
        swap_gate >= 0.8,
        "swapping generations must keep >= 0.8x of unloaded cache-hit throughput \
         ({swap_loaded_rps:.0} req/s across {swaps_under_load} swaps vs \
         {swap_unloaded_rps:.0} req/s unloaded = {swap_retention:.2}x; best paired round \
         {swap_gate:.2}x)"
    );

    // ---- batch protocol: amortized multi-plan execution ----
    //
    // 1000 distinct (all-miss) plans, narrow enough that execution is
    // cheap: the measured cost is the per-request protocol overhead —
    // parse, round trip, head assembly — which is exactly what the batch
    // endpoint amortizes into one request. Interleaved paired rounds,
    // same noise discipline as the batteries above.
    let batch_service = Arc::new(QueryService::from_segment(Arc::clone(&segment), 64 << 20));
    let batch_server =
        Server::bind("127.0.0.1:0", Arc::clone(&batch_service), 2).expect("bind batch");
    let batch_addr = batch_server.local_addr();
    let batch_handle = batch_server.spawn();

    const BATCH_PLANS: usize = 1000;
    let plan_text = |i: usize| format!("mnemonic=OP0007&offset={i}");
    // Buffered read of one full response (head + `Content-Length` body):
    // the batch response is tens of KB, and the singles side reads through
    // a `BufReader`, so the batch client must not pay byte-at-a-time head
    // syscalls inside its timed window either.
    let read_full_response = |stream: &mut TcpStream, out: &mut Vec<u8>| {
        out.clear();
        let mut chunk = [0u8; 64 * 1024];
        let mut need = usize::MAX;
        loop {
            let n = stream.read(&mut chunk).expect("read batch response");
            assert!(n > 0, "unexpected EOF mid batch response");
            out.extend_from_slice(&chunk[..n]);
            if need == usize::MAX {
                if let Some(at) = out.windows(4).position(|w| w == b"\r\n\r\n") {
                    let head = String::from_utf8_lossy(&out[..at + 4]).to_string();
                    let length: usize = head
                        .lines()
                        .find_map(|l| l.strip_prefix("Content-Length: "))
                        .map(|v| v.trim().parse().expect("length"))
                        .expect("batch responses are Content-Length framed");
                    need = at + 4 + length;
                }
            }
            if out.len() >= need {
                assert_eq!(out.len(), need, "read past the batch response");
                return;
            }
        }
    };
    let run_batch = |stream: &mut TcpStream, first_offset: usize| -> f64 {
        let plans: Vec<String> = (0..BATCH_PLANS).map(|i| plan_text(first_offset + i)).collect();
        let body = plans.join("\n");
        let request = format!(
            "POST /v1/batch HTTP/1.1\r\nHost: b\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let mut response = Vec::new();
        let t = Instant::now();
        stream.write_all(request.as_bytes()).expect("send batch");
        read_full_response(stream, &mut response);
        let elapsed_ns = t.elapsed().as_secs_f64() * 1e9;
        let head_end = response.windows(4).position(|w| w == b"\r\n\r\n").expect("batch head") + 4;
        let frames = decode_batch_response(&response[head_end..]).expect("batch framing");
        assert_eq!(frames.len(), BATCH_PLANS, "one frame per plan");
        assert!(frames.iter().all(|(status, _)| *status == 200), "all plans answer 200");
        elapsed_ns / BATCH_PLANS as f64
    };
    let mut batch_stream = TcpStream::connect(batch_addr).expect("connect batch");
    batch_stream.set_nodelay(true).expect("nodelay");
    // One warm batch settles connection scratch and frame buffers.
    let _ = run_batch(&mut batch_stream, 900_000);
    const BATCH_ROUNDS: usize = 5;
    let mut single_round_ns = [0.0f64; BATCH_ROUNDS];
    let mut batch_round_ns = [0.0f64; BATCH_ROUNDS];
    for round in 0..BATCH_ROUNDS {
        let targets: Vec<String> = (0..BATCH_PLANS)
            .map(|i| format!("/v1/query?{}", plan_text(round * BATCH_PLANS + i)))
            .collect();
        single_round_ns[round] = 1e9 / http_requests_per_sec(&batch_addr, &targets, BATCH_PLANS);
        batch_round_ns[round] = run_batch(&mut batch_stream, 1_000_000 + round * BATCH_PLANS);
    }
    drop(batch_stream);
    batch_handle.shutdown();
    let min = |rounds: &[f64]| rounds.iter().fold(f64::INFINITY, |a, &b| a.min(b));
    let single_ns_per_plan = min(&single_round_ns);
    let batch_ns_per_plan = min(&batch_round_ns);
    let batch_amortization = batch_ns_per_plan / single_ns_per_plan.max(1.0);
    // Best paired round: a scheduler hiccup that lands on one side of one
    // round cannot fail a gate any clean round would pass.
    let batch_gate = batch_round_ns
        .iter()
        .zip(&single_round_ns)
        .map(|(&b, &s)| b / s.max(1.0))
        .fold(batch_amortization, f64::min);
    assert!(
        batch_gate <= 0.10,
        "a batch of {BATCH_PLANS} plans must amortize to <= 10% of the per-plan cost of \
         sequential singles ({batch_ns_per_plan:.0} ns/plan batched vs \
         {single_ns_per_plan:.0} ns/plan single = {batch_amortization:.3}x; best paired \
         round {batch_gate:.3}x)"
    );

    // ---- export: chunked streaming keeps memory bounded ----
    let export_json = {
        use uops_serve::net::rss_bytes;

        // A dataset whose JSON export dwarfs the RSS ceiling: ~100k fat
        // rows come to a body in the tens of MB.
        let mut export_snapshot = Snapshot::new("export bench");
        for i in 0..100_000u32 {
            export_snapshot.records.push(VariantRecord {
                mnemonic: format!("XP{i:05}"),
                variant: format!("R64, R64, PAD_{i:0200}"),
                extension: "BASE".into(),
                uarch: "Skylake".into(),
                uop_count: 1,
                ports: vec![(0b0110_0011, 1)],
                tp_measured: 0.25,
                ..Default::default()
            });
        }
        let export_segment =
            Arc::new(Segment::from_bytes(Segment::encode(&export_snapshot)).expect("segment"));
        drop(export_snapshot);

        // Drains one streamed export with a fixed 64 KiB buffer (so the
        // in-process client cannot inflate the RSS it is measuring),
        // returning (body+frame bytes, RSS delta, saw-chunked-header).
        let drain = |addr: &std::net::SocketAddr| -> (u64, u64, bool) {
            let rss_before = rss_bytes().expect("statm is readable on Linux");
            let mut stream = TcpStream::connect(addr).expect("connect export");
            stream
                .write_all(
                    b"GET /v1/query?uarch=Skylake HTTP/1.1\r\nHost: b\r\n\
                      Connection: close\r\n\r\n",
                )
                .expect("send export");
            let mut buf = vec![0u8; 64 * 1024];
            let mut head = Vec::with_capacity(2048);
            let mut total = 0u64;
            loop {
                match stream.read(&mut buf).expect("read export") {
                    0 => break,
                    n => {
                        if head.len() < 2048 {
                            head.extend_from_slice(&buf[..n.min(2048 - head.len())]);
                        }
                        total += n as u64;
                    }
                }
            }
            let rss_after = rss_bytes().expect("statm is readable on Linux");
            let chunked = String::from_utf8_lossy(&head).contains("Transfer-Encoding: chunked");
            (total, rss_after.saturating_sub(rss_before), chunked)
        };

        const EXPORT_RSS_CEILING: u64 = 16 << 20;
        let export_server = Server::bind(
            "127.0.0.1:0",
            Arc::new(QueryService::from_segment(Arc::clone(&export_segment), 1 << 20)),
            1,
        )
        .expect("bind export");
        let export_addr = export_server.local_addr();
        let export_handle = export_server.spawn();
        let (export_bytes, export_delta, chunked) = drain(&export_addr);
        export_handle.shutdown();

        assert!(chunked, "the export must stream chunked");
        assert!(
            export_bytes > 2 * EXPORT_RSS_CEILING,
            "test premise: the export ({export_bytes} B) must dwarf the RSS ceiling"
        );
        assert!(
            export_delta <= EXPORT_RSS_CEILING,
            "streaming a {export_bytes}-byte export must stay under {EXPORT_RSS_CEILING} B \
             of RSS growth, grew {export_delta} B"
        );
        println!(
            "export:  {export_bytes} B chunked | RSS delta {export_delta} B, ceiling \
             {EXPORT_RSS_CEILING} B"
        );
        format!(
            ",\n  \"export\": {{\n    \"body_bytes\": {export_bytes},\n    \
             \"rss_delta_bytes\": {export_delta},\n    \
             \"rss_ceiling_bytes\": {EXPORT_RSS_CEILING}\n  }}"
        )
    };

    println!(
        "\nservice: uncached {uncached_ns:.0} ns | wire hit {wire_hit_ns:.0} ns | plan hit \
         {cached_ns:.0} ns | raw hit {raw_hit_ns:.0} ns ({speedup:.1}x hit, {raw_vs_wire:.1}x \
         raw-vs-wire)\n\
         http:    fast lane {http_cached_rps:.0} req/s | 304 {http_not_modified_rps:.0} req/s | \
         PR4-baseline {http_legacy_rps:.0} req/s | uncached {http_uncached_rps:.0} req/s \
         ({fastlane_vs_legacy:.1}x vs baseline, {not_modified_vs_full:.2}x for 304)\n\
         telemetry: {telemetry_ratio:.2}x vs --no-telemetry ({http_quiet_rps:.0} req/s off) | \
         /v1/query p50 {fast_lane_p50_ns} ns, p99 {fast_lane_p99_ns} ns (from the server's own \
         histograms)\n\
         overload: cached tier {overload_loaded_rps:.0} req/s under flood vs \
         {overload_unloaded_rps:.0} req/s unloaded = {overload_ratio:.2}x while shedding \
         {total_sheds} uncached requests\n\
         swap:    {swap_loaded_rps:.0} req/s across {swaps_under_load} generation swaps vs \
         {swap_unloaded_rps:.0} req/s unloaded = {swap_retention:.2}x with {swap_failures} \
         failed requests\n\
         batch:   {batch_ns_per_plan:.0} ns/plan batched vs {single_ns_per_plan:.0} ns/plan \
         single ({batch_amortization:.3}x amortized over {BATCH_PLANS} plans)"
    );

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"cores\": {cores},\n  \"records\": {records},\n  \"service\": {{\n    \"uncached_ns\": {uncached_ns:.0},\n    \
         \"fingerprint_hit_wire_ns\": {wire_hit_ns:.0},\n    \
         \"fingerprint_hit_plan_ns\": {cached_ns:.0},\n    \
         \"raw_fast_lane_hit_ns\": {raw_hit_ns:.0},\n    \
         \"cache_hit_speedup\": {speedup:.1},\n    \
         \"raw_vs_wire_speedup\": {raw_vs_wire:.2}\n  }},\n  \
         \"http\": {{\n    \"requests_per_sec_cached\": {http_cached_rps:.0},\n    \
         \"requests_per_sec_not_modified\": {http_not_modified_rps:.0},\n    \
         \"requests_per_sec_pr4_baseline\": {http_legacy_rps:.0},\n    \
         \"requests_per_sec_uncached\": {http_uncached_rps:.0},\n    \
         \"fastlane_speedup_vs_pr4_baseline\": {fastlane_vs_legacy:.2},\n    \
         \"cache_hit_latency_ns\": {:.0}\n  }},\n  \
         \"telemetry\": {{\n    \
         \"requests_per_sec_no_telemetry\": {http_quiet_rps:.0},\n    \
         \"throughput_ratio_vs_no_telemetry\": {telemetry_ratio:.2},\n    \
         \"query_latency_p50_ns\": {fast_lane_p50_ns},\n    \
         \"query_latency_p99_ns\": {fast_lane_p99_ns}\n  }},\n  \
         \"overload\": {{\n    \
         \"requests_per_sec_cached_unloaded\": {overload_unloaded_rps:.0},\n    \
         \"requests_per_sec_cached_under_flood\": {overload_loaded_rps:.0},\n    \
         \"cached_tier_retention\": {overload_ratio:.2},\n    \
         \"requests_shed\": {total_sheds}\n  }},\n  \
         \"swap\": {{\n    \"swaps_under_load\": {swaps_under_load},\n    \
         \"requests_per_sec_unloaded\": {swap_unloaded_rps:.0},\n    \
         \"requests_per_sec_under_swaps\": {swap_loaded_rps:.0},\n    \
         \"throughput_retention\": {swap_retention:.2},\n    \
         \"failed_requests\": {swap_failures}\n  }},\n  \
         \"batch\": {{\n    \"plans\": {BATCH_PLANS},\n    \
         \"single_ns_per_plan\": {single_ns_per_plan:.0},\n    \
         \"batch_ns_per_plan\": {batch_ns_per_plan:.0},\n    \
         \"amortized_ratio\": {batch_amortization:.3}\n  }}{reactor_json}{export_json}\n}}\n",
        1e9 / http_cached_rps,
    );
    let path = std::env::var("BENCH_SERVE_JSON").unwrap_or_else(|_| "BENCH_serve.json".to_string());
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nwrote {path}:\n{json}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
