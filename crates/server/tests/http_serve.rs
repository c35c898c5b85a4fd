//! Integration tests driving the **real `serve` binary**: boot it over a
//! segment file, talk HTTP/1.1 to it over a TCP socket, and assert that
//! every payload is byte-identical to an in-process `QueryExec` + encoder
//! run over the same segment — plus the CLI contract (unknown flags exit
//! non-zero with usage) and the counter-asserted cache behavior.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

use uops_db::{
    BinaryEncoder, JsonEncoder, Query, QueryExec, QueryPlan, ResultEncoder, Segment, Snapshot,
    SortKey, VariantRecord,
};

fn sample_snapshot() -> Snapshot {
    let mut s = Snapshot::new("http_serve test");
    let mut add = |m: &str, uarch: &str, uops: u32, mask: u16, tp: f64| {
        s.records.push(VariantRecord {
            mnemonic: m.into(),
            variant: "R64, R64".into(),
            extension: "BASE".into(),
            uarch: uarch.into(),
            uop_count: uops,
            ports: vec![(mask, uops)],
            tp_measured: tp,
            ..Default::default()
        });
    };
    add("ADD", "Skylake", 1, 0b0110_0011, 0.25);
    add("ADC", "Skylake", 1, 0b0100_0001, 0.5);
    add("ADC", "Haswell", 2, 0b0100_0001, 1.0);
    add("DIV", "Skylake", 10, 0b0000_0001, 6.0);
    add("SHLD", "Haswell", 4, 0b0000_0010, 1.5);
    s
}

/// The spawned server plus its segment file; both cleaned up on drop so a
/// failing assertion never leaks a process or a temp file.
struct ServeGuard {
    child: Child,
    addr: String,
    segment_path: PathBuf,
}

impl Drop for ServeGuard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.segment_path);
    }
}

fn boot_server(extra_args: &[&str]) -> (ServeGuard, Segment) {
    // Unique per call: the default test harness runs these tests
    // concurrently in one process, so a pid-only name would have them
    // truncating each other's segment files mid-open.
    static BOOTS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let boot = BOOTS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let snapshot = sample_snapshot();
    let segment_path =
        std::env::temp_dir().join(format!("uops_http_serve_{}_{boot}.seg", std::process::id()));
    let segment = Segment::write(&snapshot, &segment_path).expect("write segment");

    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .arg("--segment")
        .arg(&segment_path)
        .args(["--addr", "127.0.0.1:0", "--threads", "2"])
        .args(extra_args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");

    // The first stdout line announces the bound address.
    let stdout = child.stdout.take().expect("stdout piped");
    let mut first_line = String::new();
    BufReader::new(stdout).read_line(&mut first_line).expect("read announce line");
    let addr = first_line
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in {first_line:?}"))
        .to_string();
    (ServeGuard { child, addr, segment_path }, segment)
}

/// One full HTTP/1.1 exchange on a fresh connection; returns (status,
/// body bytes).
fn http_get(addr: &str, target: &str) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").expect("send");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read");
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .unwrap_or_else(|| panic!("no header terminator in {:?}", String::from_utf8_lossy(&raw)));
    let head = String::from_utf8_lossy(&raw[..head_end]).to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {head}"));
    (status, raw[head_end + 4..].to_vec())
}

/// Reads `field` out of the named cache-tier object (`"cache"` = the
/// fingerprint tier, `"raw"` = the fast lane) or, for `tier = ""`, a
/// top-level field of the `/v1/stats` payload.
fn stats_field(addr: &str, tier: &str, field: &str) -> u64 {
    let (status, body) = http_get(addr, "/v1/stats");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).expect("stats is UTF-8");
    let scope = if tier.is_empty() {
        text.as_str()
    } else {
        text.split(&format!("\"{tier}\": "))
            .nth(1)
            .and_then(|rest| rest.split('}').next())
            .unwrap_or_else(|| panic!("tier {tier} not in {text}"))
    };
    scope
        .split(&format!("\"{field}\": "))
        .nth(1)
        .and_then(|rest| {
            rest.split(|c: char| !c.is_ascii_digit()).next().and_then(|n| n.parse().ok())
        })
        .unwrap_or_else(|| panic!("field {field} not in {scope}"))
}

#[test]
fn http_responses_are_byte_identical_to_in_process_exec() {
    let (server, segment) = boot_server(&["--cache-mb", "8"]);
    let segment = Arc::new(segment);

    let cases = [
        "",
        "uarch=Skylake",
        "uarch=Skylake&port=5",
        "uarch=Skylake&sort=latency&desc=1&limit=2",
        "mnemonic=ADC&sort=throughput",
        "prefix=S&min_uops=2",
        "uarch=Coffee%20Lake",
    ];
    for query_string in cases {
        let plan = QueryPlan::parse(query_string).expect("plan");
        let db = segment.db();
        let expected_json = JsonEncoder.encode_result(&QueryExec::new().run(&plan, &db));
        let expected_binary = BinaryEncoder.encode_result(&QueryExec::new().run(&plan, &db));

        let target = if query_string.is_empty() {
            "/v1/query".to_string()
        } else {
            format!("/v1/query?{query_string}")
        };
        let (status, body) = http_get(&server.addr, &target);
        assert_eq!(status, 200, "{target}");
        assert_eq!(body, expected_json, "JSON parity for {target}");

        let sep = if query_string.is_empty() { "?" } else { "&" };
        let (status, body) = http_get(&server.addr, &format!("{target}{sep}format=binary"));
        assert_eq!(status, 200);
        assert_eq!(body, expected_binary, "binary parity for {target}");
    }

    // /v1/record/{name} parity: same pipeline as a mnemonic query.
    let db = segment.db();
    let plan = Query::new().mnemonic("ADC").into_plan();
    let expected = JsonEncoder.encode_result(&QueryExec::new().run(&plan, &db));
    let (status, body) = http_get(&server.addr, "/v1/record/ADC");
    assert_eq!(status, 200);
    assert_eq!(body, expected, "record endpoint parity");

    // /v1/diff works over HTTP and is deterministic.
    let (status, diff1) = http_get(&server.addr, "/v1/diff?base=Haswell&other=Skylake");
    assert_eq!(status, 200);
    let (_, diff2) = http_get(&server.addr, "/v1/diff?base=Haswell&other=Skylake");
    assert_eq!(diff1, diff2);
    assert!(String::from_utf8_lossy(&diff1).contains("\"base\": \"Haswell\""));
}

#[test]
fn cache_hits_skip_planner_and_encoder_counters() {
    let (server, _segment) = boot_server(&["--cache-mb", "4"]);

    let (status, first) = http_get(&server.addr, "/v1/query?uarch=Skylake&port=5");
    assert_eq!(status, 200);
    let executions_cold = stats_field(&server.addr, "", "executions");
    let encodes_cold = stats_field(&server.addr, "", "encodes");
    assert_eq!(executions_cold, 1);

    let (_, second) = http_get(&server.addr, "/v1/query?uarch=Skylake&port=5");
    assert_eq!(first, second, "cached response must be byte-identical");
    assert_eq!(
        stats_field(&server.addr, "", "executions"),
        executions_cold,
        "a cache hit must not invoke the planner/executor"
    );
    assert_eq!(
        stats_field(&server.addr, "", "encodes"),
        encodes_cold,
        "a cache hit must not invoke the encoder"
    );
    // The verbatim repeat is a raw fast-lane hit; the fingerprint tier is
    // never even probed.
    assert_eq!(stats_field(&server.addr, "raw", "hits"), 1);
    assert_eq!(stats_field(&server.addr, "cache", "hits"), 0);

    // A different spelling of the same plan misses the fast lane but hits
    // the fingerprint tier: still no execution.
    let (_, respelled) = http_get(&server.addr, "/v1/query?port=5&uarch=Skylake");
    assert_eq!(first, respelled, "respelled plan must return identical bytes");
    assert_eq!(stats_field(&server.addr, "cache", "hits"), 1);
    assert_eq!(stats_field(&server.addr, "", "executions"), executions_cold);

    // Differently spelled but semantically different request: a miss.
    let (_, _third) = http_get(&server.addr, "/v1/query?uarch=Haswell");
    assert_eq!(stats_field(&server.addr, "", "executions"), executions_cold + 1);
}

#[test]
fn error_statuses_over_http() {
    let (server, _segment) = boot_server(&[]);
    let (status, body) = http_get(&server.addr, "/v1/query?uarhc=Skylake");
    assert_eq!(status, 400);
    assert!(String::from_utf8_lossy(&body).contains("unknown query parameter"));
    let (status, _) = http_get(&server.addr, "/v1/nope");
    assert_eq!(status, 404);
    let (status, _) = http_get(&server.addr, "/v1/plan/0011223344556677");
    assert_eq!(status, 404);
    let (status, _) = http_get(&server.addr, "/v1/query?sort=size");
    assert_eq!(status, 400);

    // Unbounded-sort parity spot check stays 200 even with odd spellings.
    let (status, _) = http_get(&server.addr, "/v1/query?uarch=Skylake&sort=uops");
    assert_eq!(status, 200);
}

#[test]
fn threads_flag_sets_the_reactor_shard_count() {
    let (server, segment) = boot_server(&[]);
    let segment = Arc::new(segment);

    // `--threads 2` (boot_server's) runs two shards.
    assert_eq!(stats_field(&server.addr, "shards", "count"), 2);

    // Responses through the reactor are byte-identical to in-process
    // execution.
    let plan = QueryPlan::parse("uarch=Skylake").expect("plan");
    let expected = JsonEncoder.encode_result(&QueryExec::new().run(&plan, &segment.db()));
    let (status, body) = http_get(&server.addr, "/v1/query?uarch=Skylake");
    assert_eq!(status, 200);
    assert_eq!(body, expected, "reactor transport must frame identical bytes");

    // Telemetry is threaded through the reactor: the two requests above
    // show up in the exposition.
    let (status, metrics) = http_get(&server.addr, "/metrics");
    assert_eq!(status, 200);
    let text = String::from_utf8_lossy(&metrics).to_string();
    assert!(text.contains("uops_http_requests_total 2"), "{text}");
    assert!(text.contains("uops_http_accept_errors_total 0"), "{text}");
}
#[test]
fn unknown_flags_exit_nonzero_with_usage() {
    let output = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--segment", "x.seg", "--bogus-flag"])
        .output()
        .expect("run serve");
    assert_eq!(output.status.code(), Some(2), "unknown flag must exit 2");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown option: --bogus-flag"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");

    let output = Command::new(env!("CARGO_BIN_EXE_serve")).output().expect("run serve");
    assert_eq!(output.status.code(), Some(2), "--segment is required");
    assert!(String::from_utf8_lossy(&output.stderr).contains("--segment is required"));

    // Transport selection, queue sizing and file mapping are not options.
    for flag in ["--reactor", "--reactor=2", "--queue-depth", "--mmap"] {
        let output = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args(["--segment", "x.seg", flag])
            .output()
            .expect("run serve");
        assert_eq!(output.status.code(), Some(2), "{flag} must exit 2");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("unknown option"), "{flag}: {stderr}");
        assert!(stderr.contains("usage:"), "{flag}: {stderr}");
    }

    let output =
        Command::new(env!("CARGO_BIN_EXE_serve")).arg("--help").output().expect("run serve");
    assert_eq!(output.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&output.stdout).contains("usage:"));
}

/// One raw HTTP/1.1 exchange on a fresh connection; returns (status,
/// header block, body bytes).
fn http_raw(addr: &str, request: &str) -> (u16, String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request.as_bytes()).expect("send");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read");
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .unwrap_or_else(|| panic!("no header terminator in {:?}", String::from_utf8_lossy(&raw)));
    let head = String::from_utf8_lossy(&raw[..head_end]).to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {head}"));
    (status, head, raw[head_end + 4..].to_vec())
}

fn header_value<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.lines().find_map(|line| {
        let (n, v) = line.split_once(':')?;
        n.trim().eq_ignore_ascii_case(name).then(|| v.trim())
    })
}

#[test]
fn head_requests_return_get_headers_without_a_body() {
    let (server, _segment) = boot_server(&["--cache-mb", "4"]);
    let target = "/v1/query?uarch=Skylake";
    let (status, get_head, get_body) =
        http_raw(&server.addr, &format!("GET {target} HTTP/1.1\r\nConnection: close\r\n\r\n"));
    assert_eq!(status, 200);
    assert!(!get_body.is_empty());
    let (status, head_head, head_body) =
        http_raw(&server.addr, &format!("HEAD {target} HTTP/1.1\r\nConnection: close\r\n\r\n"));
    assert_eq!(status, 200);
    assert!(head_body.is_empty(), "HEAD must not carry a body");
    assert_eq!(get_head, head_head, "HEAD headers must be identical to GET's");
    assert_eq!(
        header_value(&head_head, "Content-Length").and_then(|v| v.parse::<usize>().ok()),
        Some(get_body.len()),
        "HEAD advertises the GET body length"
    );
    // HEAD shares GET's fast-lane entry.
    assert_eq!(stats_field(&server.addr, "raw", "hits"), 1);

    // Unsupported methods are still rejected.
    let (status, ..) =
        http_raw(&server.addr, "DELETE /v1/query HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert_eq!(status, 405);
}

#[test]
fn conditional_requests_revalidate_with_304() {
    let (server, _segment) = boot_server(&["--cache-mb", "4"]);
    let target = "/v1/query?uarch=Skylake&port=5";
    let (status, head, body) =
        http_raw(&server.addr, &format!("GET {target} HTTP/1.1\r\nConnection: close\r\n\r\n"));
    assert_eq!(status, 200);
    let etag = header_value(&head, "ETag").expect("200 carries an ETag").to_string();
    assert_eq!(etag.len(), 18, "strong quoted 64-bit tag: {etag}");

    // Matching If-None-Match: 304, no body, same ETag echoed.
    let (status, not_modified_head, not_modified_body) = http_raw(
        &server.addr,
        &format!("GET {target} HTTP/1.1\r\nIf-None-Match: {etag}\r\nConnection: close\r\n\r\n"),
    );
    assert_eq!(status, 304);
    assert!(not_modified_body.is_empty(), "304 must not carry a body");
    assert_eq!(header_value(&not_modified_head, "ETag"), Some(etag.as_str()));
    assert_eq!(header_value(&not_modified_head, "Content-Length"), None);

    // Stale tag: full 200 with the body again.
    let (status, _, full_body) = http_raw(
        &server.addr,
        &format!(
            "GET {target} HTTP/1.1\r\nIf-None-Match: \"0000000000000000\"\r\n\
             Connection: close\r\n\r\n"
        ),
    );
    assert_eq!(status, 200);
    assert_eq!(full_body, body);

    // The error and stats endpoints never offer revalidation.
    let (status, head, _) =
        http_raw(&server.addr, "GET /v1/stats HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert_eq!(status, 200);
    assert_eq!(header_value(&head, "ETag"), None, "stats must not be revalidatable");
    let (status, head, _) =
        http_raw(&server.addr, "GET /v1/query?bogus=1 HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert_eq!(status, 400);
    assert_eq!(header_value(&head, "ETag"), None, "errors must not be revalidatable");
}

#[test]
fn etag_tracks_the_served_content() {
    // Two servers over different data: same plan, different ETags.
    let (server_a, _seg_a) = boot_server(&[]);
    let etag_of = |addr: &str| {
        let (status, head, _) =
            http_raw(addr, "GET /v1/query?uarch=Skylake HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert_eq!(status, 200);
        header_value(&head, "ETag").expect("etag").to_string()
    };
    let a = etag_of(&server_a.addr);
    assert_eq!(a, etag_of(&server_a.addr), "ETag is stable for unchanged content");

    // Rewrite the segment with one record dropped and reboot.
    let mut snapshot = sample_snapshot();
    snapshot.records.pop();
    let boot = {
        let path = server_a.segment_path.clone();
        drop(server_a);
        Segment::write(&snapshot, &path).expect("rewrite segment");
        path
    };
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .arg("--segment")
        .arg(&boot)
        .args(["--addr", "127.0.0.1:0", "--threads", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut first_line = String::new();
    BufReader::new(stdout).read_line(&mut first_line).expect("read announce line");
    let addr = first_line
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .expect("address")
        .to_string();
    let b = etag_of(&addr);
    let _ = child.kill();
    let _ = child.wait();
    let _ = std::fs::remove_file(&boot);
    assert_ne!(a, b, "a changed segment content hash must change every ETag");
}

/// Reads one sample value out of a Prometheus text exposition;
/// `selector` is the full series name including any label set, e.g.
/// `uops_cache_hits_total{tier="raw"}`.
fn exposition_value(text: &str, selector: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(selector)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or_else(|| panic!("no sample {selector} in exposition:\n{text}"))
}

#[test]
fn metrics_exposition_parses_and_counts_requests() {
    let (server, _segment) = boot_server(&["--cache-mb", "4"]);

    // A mixed request battery: 3 queries (1 miss + 2 raw hits), a record
    // lookup, and a 404.
    for target in ["/v1/query?uarch=Skylake", "/v1/query?uarch=Skylake", "/v1/query?uarch=Skylake"]
    {
        assert_eq!(http_get(&server.addr, target).0, 200);
    }
    assert_eq!(http_get(&server.addr, "/v1/record/ADC").0, 200);
    assert_eq!(http_get(&server.addr, "/nope").0, 404);

    let (status, head, body) =
        http_raw(&server.addr, "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert_eq!(status, 200);
    assert!(header_value(&head, "Content-Type").unwrap_or("").starts_with("text/plain"), "{head}");
    let text = String::from_utf8(body).expect("exposition is UTF-8");

    // Every non-comment line is `name[{labels}] value` with a numeric
    // value, and every series is preceded by HELP/TYPE headers.
    let mut typed: Vec<&str> = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            typed.push(rest.split_whitespace().next().expect("type line"));
            continue;
        }
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("bad line {line}"));
        let name = series.split('{').next().expect("name");
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|base| typed.contains(base))
            .unwrap_or(name);
        assert!(typed.contains(&base), "series {name} has no TYPE header");
        assert!(value.parse::<f64>().is_ok() || value == "+Inf", "bad value in {line}");
    }

    // The battery above is fully accounted for: 5 requests, none of which
    // were /metrics (this scrape is only counted after it is written).
    assert_eq!(exposition_value(&text, "uops_http_requests_total"), 5);
    assert_eq!(exposition_value(&text, "uops_http_responses_total{class=\"2xx\"}"), 4);
    assert_eq!(exposition_value(&text, "uops_http_responses_total{class=\"4xx\"}"), 1);
    // Latency histogram counts match the requests served, per route.
    assert_eq!(
        exposition_value(&text, "uops_http_request_latency_nanoseconds_count{route=\"/v1/query\"}"),
        3
    );
    assert_eq!(
        exposition_value(
            &text,
            "uops_http_request_latency_nanoseconds_count{route=\"/v1/record\"}"
        ),
        1
    );
    assert_eq!(
        exposition_value(&text, "uops_http_request_latency_nanoseconds_count{route=\"other\"}"),
        1
    );
    // Tier attribution: 1 uncached execution, 2 raw fast-lane hits.
    assert_eq!(exposition_value(&text, "uops_service_latency_nanoseconds_count{tier=\"raw\"}"), 2);
    assert!(
        exposition_value(&text, "uops_service_latency_nanoseconds_count{tier=\"uncached\"}") >= 1
    );
    assert_eq!(exposition_value(&text, "uops_cache_hits_total{tier=\"raw\"}"), 2);
    // Executor stage histograms saw the uncached requests.
    assert!(exposition_value(&text, "uops_exec_stage_nanoseconds_count{stage=\"execute\"}") >= 2);
    // Every connection so far was accepted onto a shard: the five
    // requests' and this scrape's.
    assert_eq!(exposition_value(&text, "uops_http_connections_opened_total"), 6);

    // Counter monotonicity across scrapes: the scrape above is now also
    // counted, plus one more query.
    assert_eq!(http_get(&server.addr, "/v1/query?uarch=Skylake").0, 200);
    let (_, text2) = http_get(&server.addr, "/metrics");
    let text2 = String::from_utf8(text2).expect("utf-8");
    assert_eq!(exposition_value(&text2, "uops_http_requests_total"), 7);
    assert_eq!(
        exposition_value(&text2, "uops_http_request_latency_nanoseconds_count{route=\"/metrics\"}"),
        1
    );

    // The additive per-stage stats keys ride along in /v1/stats.
    let (_, stats_body) = http_get(&server.addr, "/v1/stats");
    let stats_text = String::from_utf8(stats_body).expect("utf-8");
    assert!(stats_text.contains("\"stages\""), "{stats_text}");
    assert!(stats_text.contains("\"p99_ns\""), "{stats_text}");
}

#[test]
fn metrics_is_always_fresh_and_never_cached() {
    let (server, _segment) = boot_server(&[]);
    assert_eq!(http_get(&server.addr, "/v1/query?uarch=Skylake").0, 200);

    let (status, head, first) =
        http_raw(&server.addr, "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert_eq!(status, 200);
    assert_eq!(header_value(&head, "ETag"), None, "/metrics must not be revalidatable");

    // An identical repeat must be freshly rendered, not a cache hit: the
    // request counter inside the payload has moved on.
    let (status, _, second) =
        http_raw(&server.addr, "GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert_eq!(status, 200);
    let first = String::from_utf8(first).expect("utf-8");
    let second = String::from_utf8(second).expect("utf-8");
    assert!(
        exposition_value(&second, "uops_http_requests_total")
            > exposition_value(&first, "uops_http_requests_total"),
        "repeated scrapes must re-render, never serve cached bytes"
    );
    // ...and neither scrape entered a cache tier.
    assert_eq!(stats_field(&server.addr, "raw", "entries"), 1, "only the query is cached");
    assert_eq!(stats_field(&server.addr, "raw", "hits"), 0);
    assert_eq!(stats_field(&server.addr, "cache", "entries"), 1);

    // Query parameters are rejected rather than ignored.
    let (status, _) = http_get(&server.addr, "/metrics?x=1");
    assert_eq!(status, 400);
}

#[test]
fn no_telemetry_flag_disables_metrics_but_not_serving() {
    let (server, _segment) = boot_server(&["--no-telemetry"]);
    assert_eq!(http_get(&server.addr, "/v1/query?uarch=Skylake").0, 200);
    let (status, body) = http_get(&server.addr, "/metrics");
    assert_eq!(status, 404, "metrics must 404 with telemetry disabled");
    assert!(String::from_utf8_lossy(&body).contains("telemetry is disabled"));
    assert_eq!(http_get(&server.addr, "/v1/stats").0, 200);
}

#[test]
fn access_log_writes_sampled_json_lines_to_stderr() {
    // boot_server nulls stderr, so spawn directly with it piped.
    let snapshot = sample_snapshot();
    let segment_path =
        std::env::temp_dir().join(format!("uops_http_serve_log_{}.seg", std::process::id()));
    Segment::write(&snapshot, &segment_path).expect("write segment");
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .arg("--segment")
        .arg(&segment_path)
        .args(["--addr", "127.0.0.1:0", "--threads", "1", "--access-log=2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut reader = BufReader::new(stdout);
    let mut first_line = String::new();
    reader.read_line(&mut first_line).expect("read announce line");
    let addr = first_line
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .expect("address")
        .to_string();
    let mut second_line = String::new();
    reader.read_line(&mut second_line).expect("read metrics line");
    assert!(second_line.contains("/metrics"), "telemetry announce: {second_line}");

    // Four requests with every-2 sampling: exactly two logged lines.
    for _ in 0..4 {
        assert_eq!(http_get(&addr, "/v1/query?uarch=Skylake").0, 200);
    }
    // Give the background writer a beat to drain and flush before the
    // process is killed.
    std::thread::sleep(std::time::Duration::from_millis(300));
    let _ = child.kill();
    let _ = child.wait();
    let mut stderr_text = String::new();
    child.stderr.take().expect("stderr piped").read_to_string(&mut stderr_text).expect("stderr");
    let _ = std::fs::remove_file(&segment_path);
    let lines: Vec<&str> = stderr_text.lines().filter(|l| l.starts_with('{')).collect();
    assert_eq!(lines.len(), 2, "every-2 sampling over 4 requests:\n{stderr_text}");
    for line in lines {
        assert!(line.contains("\"route\":\"/v1/query\""), "{line}");
        assert!(line.contains("\"status\":200"), "{line}");
        assert!(line.contains("\"tier\":"), "{line}");
        assert!(line.contains("\"total_us\":"), "{line}");
        assert!(line.ends_with('}'), "{line}");
    }
}

#[test]
fn sort_orders_survive_the_wire() {
    let (server, segment) = boot_server(&["--cache-mb", "1"]);
    let db = segment.db();
    for sort in [SortKey::Mnemonic, SortKey::Latency, SortKey::Throughput, SortKey::UopCount] {
        let plan = Query::new().uarch("Skylake").sort_by_desc(sort).into_plan();
        let expected = JsonEncoder.encode_result(&QueryExec::new().run(&plan, &db));
        let (status, body) =
            http_get(&server.addr, &format!("/v1/query?{}", plan.to_query_string()));
        assert_eq!(status, 200);
        assert_eq!(body, expected, "{sort:?}");
    }
}

/// `SIGTERM` triggers a graceful drain: the server stops accepting,
/// finishes what it has, and the process exits 0 (not killed-by-signal).
#[test]
fn sigterm_drains_gracefully_and_exits_zero() {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;

    let (mut server, _segment) = boot_server(&["--drain-timeout", "5"]);

    // A completed exchange proves the accept loop is live — and, since
    // the signal handler is installed before the accept loop spawns, that
    // the handler is in place before we send the signal.
    let (status, _) = http_get(&server.addr, "/v1/query?uarch=Skylake");
    assert_eq!(status, 200);

    assert_eq!(unsafe { kill(server.child.id() as i32, SIGTERM) }, 0, "signal delivery");

    // With no connections left open the drain completes quickly; a stuck
    // drain (or a death-by-signal) fails here rather than hanging.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let exit = loop {
        if let Some(exit) = server.child.try_wait().expect("try_wait") {
            break exit;
        }
        assert!(std::time::Instant::now() < deadline, "server did not drain within 10 s");
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    assert_eq!(exit.code(), Some(0), "graceful drain must exit 0, got {exit:?}");

    // New connections are refused (or reset) after the drain.
    match TcpStream::connect(&server.addr) {
        Ok(mut conn) => {
            let _ = write!(conn, "GET /v1/stats HTTP/1.1\r\nHost: t\r\n\r\n");
            let mut buf = [0u8; 1];
            assert_eq!(conn.read(&mut buf).unwrap_or(0), 0, "no server behind the socket");
        }
        Err(_) => {} // refused outright: the listener is gone
    }
}

/// One `POST` exchange with a (possibly binary) body on a fresh
/// connection; returns (status, header block, body bytes).
fn http_post(addr: &str, target: &str, body: &[u8]) -> (u16, String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST {target} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .expect("send head");
    stream.write_all(body).expect("send body");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read");
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .unwrap_or_else(|| panic!("no header terminator in {:?}", String::from_utf8_lossy(&raw)));
    let head = String::from_utf8_lossy(&raw[..head_end]).to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {head}"));
    (status, head, raw[head_end + 4..].to_vec())
}

/// Decodes a `Transfer-Encoding: chunked` body back into the payload
/// bytes, asserting the framing (hex sizes, per-chunk CRLFs, terminal
/// zero chunk) along the way.
fn decode_chunked(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut at = 0;
    loop {
        let line_end = at
            + body[at..]
                .windows(2)
                .position(|w| w == b"\r\n")
                .unwrap_or_else(|| panic!("no chunk-size line at offset {at}"));
        let size = std::str::from_utf8(&body[at..line_end])
            .ok()
            .and_then(|hex| usize::from_str_radix(hex.trim(), 16).ok())
            .unwrap_or_else(|| panic!("bad chunk size {:?}", &body[at..line_end]));
        at = line_end + 2;
        if size == 0 {
            assert_eq!(&body[at..], b"\r\n", "terminal chunk ends the stream");
            return out;
        }
        out.extend_from_slice(&body[at..at + size]);
        assert_eq!(&body[at + size..at + size + 2], b"\r\n", "chunk payload ends with CRLF");
        at += size + 2;
    }
}

#[test]
fn batch_endpoint_matches_singles_for_text_and_tlv() {
    let (server, _segment) = boot_server(&["--cache-mb", "4"]);
    let plans = ["uarch=Skylake", "mnemonic=ADC&sort=throughput", "uarch=Haswell&min_uops=2"];

    // Ground truth: the single-query endpoint, one request per plan.
    let singles: Vec<Vec<u8>> = plans
        .iter()
        .map(|plan| {
            let (status, body) = http_get(&server.addr, &format!("/v1/query?{plan}"));
            assert_eq!(status, 200, "{plan}");
            body
        })
        .collect();

    let text_body = plans.join("\n");
    let (status, head, body) = http_post(&server.addr, "/v1/batch", text_body.as_bytes());
    assert_eq!(status, 200);
    assert_eq!(
        header_value(&head, "Content-Type"),
        Some("application/x-uops-batch"),
        "batch responses use the framed media type"
    );
    let frames = uops_serve::decode_batch_response(&body).expect("response framing");
    assert_eq!(frames.len(), plans.len());
    for (((frame_status, frame), single), plan) in frames.iter().zip(&singles).zip(&plans) {
        assert_eq!(*frame_status, 200, "{plan}");
        assert_eq!(frame, single, "batch frame must be byte-identical to the single for {plan}");
    }

    // The TLV request encoding produces the identical response bytes.
    let tlv = uops_serve::encode_batch_request(&plans);
    let (status, _, tlv_body) = http_post(&server.addr, "/v1/batch", &tlv);
    assert_eq!(status, 200);
    assert_eq!(tlv_body, body, "TLV and newline batches must frame identical bytes");

    // A bad plan mid-batch gets its own 400 frame; its neighbors answer.
    let (status, _, body) =
        http_post(&server.addr, "/v1/batch", b"uarch=Skylake\nbogus=1\nmnemonic=ADC");
    assert_eq!(status, 200, "per-plan errors do not fail the envelope");
    let frames = uops_serve::decode_batch_response(&body).expect("response framing");
    let statuses: Vec<u16> = frames.iter().map(|(s, _)| *s).collect();
    assert_eq!(statuses, [200, 400, 200]);
    assert!(String::from_utf8_lossy(&frames[1].1).contains("unknown query parameter"));

    // An empty batch is an envelope-level 400.
    let (status, _, _) = http_post(&server.addr, "/v1/batch", b"");
    assert_eq!(status, 400);
}

#[test]
fn wrong_methods_get_405_with_an_allow_header() {
    let (server, _segment) = boot_server(&[]);
    let cases = [
        ("DELETE", "/v1/query?uarch=Skylake", "GET, HEAD"),
        ("POST", "/v1/query", "GET, HEAD"),
        ("PUT", "/v1/record/ADD", "GET, HEAD"),
        ("GET", "/v1/batch", "POST"),
        ("PUT", "/v1/batch", "POST"),
        ("POST", "/metrics", "GET, HEAD"),
        ("PATCH", "/v1/stats", "GET, HEAD"),
    ];
    for (method, target, allow) in cases {
        let (status, head, _) = http_raw(
            &server.addr,
            &format!("{method} {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
        );
        assert_eq!(status, 405, "{method} {target}");
        assert_eq!(header_value(&head, "Allow"), Some(allow), "{method} {target}");
    }
    // Allowed methods never carry the header.
    let (status, head, _) = http_raw(
        &server.addr,
        "GET /v1/query?uarch=Skylake HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    assert_eq!(header_value(&head, "Allow"), None, "200s must not advertise Allow");
}

#[test]
fn oversize_bodies_are_refused_with_413() {
    let (server, _segment) = boot_server(&["--max-body", "64"]);
    let oversize = vec![b'a'; 200];
    let (status, _, body) = http_post(&server.addr, "/v1/batch", &oversize);
    assert_eq!(status, 413, "declared length past --max-body is refused up front");
    assert!(String::from_utf8_lossy(&body).contains("limit"));

    // Within the limit the endpoint still works.
    let (status, _, body) = http_post(&server.addr, "/v1/batch", b"uarch=Skylake");
    assert_eq!(status, 200);
    let frames = uops_serve::decode_batch_response(&body).expect("response framing");
    assert_eq!(frames.len(), 1);
    assert_eq!(frames[0].0, 200);
}

#[test]
fn large_results_stream_chunked_with_byte_parity() {
    let (server, segment) = boot_server(&["--stream-threshold", "1", "--cache-mb", "4"]);
    let segment = Arc::new(segment);
    let db = segment.db();
    let plan = QueryPlan::parse("uarch=Skylake").expect("plan");

    // A 3-row result clears the forced 1-row threshold, so the response
    // arrives chunked — and its concatenated chunks are byte-identical to
    // the whole-body encoding.
    let expected_json = JsonEncoder.encode_result(&QueryExec::new().run(&plan, &db));
    let (status, head, body) = http_raw(
        &server.addr,
        "GET /v1/query?uarch=Skylake HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    assert_eq!(header_value(&head, "Transfer-Encoding"), Some("chunked"), "{head}");
    assert_eq!(header_value(&head, "Content-Length"), None, "chunked carries no length");
    assert_eq!(header_value(&head, "ETag"), None, "streams are not revalidatable");
    assert_eq!(decode_chunked(&body), expected_json, "chunks reassemble the exact encoding");

    let expected_binary = BinaryEncoder.encode_result(&QueryExec::new().run(&plan, &db));
    let (status, head, body) = http_raw(
        &server.addr,
        "GET /v1/query?uarch=Skylake&format=binary HTTP/1.1\r\nHost: t\r\n\
         Connection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    assert_eq!(header_value(&head, "Transfer-Encoding"), Some("chunked"), "{head}");
    assert_eq!(decode_chunked(&body), expected_binary, "binary chunks reassemble too");

    // HEAD of a streamed target: the chunked head, zero chunks.
    let (status, head, body) = http_raw(
        &server.addr,
        "HEAD /v1/query?uarch=Skylake HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    assert_eq!(header_value(&head, "Transfer-Encoding"), Some("chunked"), "{head}");
    assert!(body.is_empty(), "HEAD must not emit chunks");

    // XML always stays whole-body (its encoder needs the full document).
    let (status, head, _) = http_raw(
        &server.addr,
        "GET /v1/query?uarch=Skylake&format=xml HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    assert!(header_value(&head, "Content-Length").is_some(), "XML stays whole-body: {head}");

    // Sub-threshold results stay whole-body even with streaming armed.
    let (status, head, _) = http_raw(
        &server.addr,
        "GET /v1/record/DIV HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    assert!(header_value(&head, "Content-Length").is_some(), "1-row result: {head}");
}

#[test]
fn reactor_streams_batches_and_exposes_per_shard_metrics() {
    let (server, segment) = boot_server(&["--stream-threshold", "1"]);
    let segment = Arc::new(segment);

    // Chunked streaming over the reactor transport, byte-identical to the
    // in-process encoding.
    let plan = QueryPlan::parse("uarch=Skylake").expect("plan");
    let expected = JsonEncoder.encode_result(&QueryExec::new().run(&plan, &segment.db()));
    let (status, head, body) = http_raw(
        &server.addr,
        "GET /v1/query?uarch=Skylake HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 200);
    assert_eq!(header_value(&head, "Transfer-Encoding"), Some("chunked"), "{head}");
    assert_eq!(decode_chunked(&body), expected, "reactor chunks reassemble the encoding");

    // Batch POSTs (the reactor's body-read path) work end to end.
    let (status, _, body) = http_post(&server.addr, "/v1/batch", b"uarch=Skylake\nmnemonic=ADC");
    assert_eq!(status, 200);
    let frames = uops_serve::decode_batch_response(&body).expect("response framing");
    assert_eq!(frames.iter().map(|(s, _)| *s).collect::<Vec<_>>(), [200, 200]);

    // Per-shard accounting: both shards expose series, and every
    // connection so far was attributed to one of them. (Which shard the
    // kernel hands each connection to is its business, so only the sum is
    // asserted.)
    let (status, metrics) = http_get(&server.addr, "/metrics");
    assert_eq!(status, 200);
    let text = String::from_utf8(metrics).expect("exposition is UTF-8");
    for shard in ["0", "1"] {
        assert!(
            text.contains(&format!("uops_http_shard_connections{{shard=\"{shard}\"}}")),
            "shard {shard} gauge missing:\n{text}"
        );
    }
    let accepted: u64 = ["0", "1"]
        .iter()
        .map(|shard| {
            exposition_value(&text, &format!("uops_http_shard_accepted_total{{shard=\"{shard}\"}}"))
        })
        .sum();
    assert!(accepted >= 3, "3 prior connections must be attributed to shards, saw {accepted}");
}

/// The live data plane end-to-end against the real binary: boot with
/// `--data-dir`, ingest a segment image over `POST /v1/ingest`, and see
/// the merged generation swap in with the new record queryable and both
/// the stats generation and the record count advanced. Without
/// `--data-dir`, ingest answers 403.
#[test]
fn ingest_publishes_a_new_generation_and_swaps_it_live() {
    let data_dir =
        std::env::temp_dir().join(format!("uops_http_serve_ingest_{}.d", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let dir_arg = data_dir.to_str().expect("utf-8 temp dir").to_string();
    let (server, _segment) = boot_server(&["--data-dir", &dir_arg]);

    assert_eq!(stats_field(&server.addr, "", "generation"), 1, "fresh dir bootstraps gen 1");
    let records_before = stats_field(&server.addr, "", "records");
    let (_, before_body) = http_get(&server.addr, "/v1/record/XABC");

    // Ingest one new record as a raw segment image.
    let mut extra = Snapshot::new("ingest update");
    extra.records.push(VariantRecord {
        mnemonic: "XABC".into(),
        variant: "R64, R64".into(),
        extension: "BASE".into(),
        uarch: "Skylake".into(),
        uop_count: 2,
        ports: vec![(0b0000_0011, 2)],
        tp_measured: 1.0,
        ..Default::default()
    });
    let image = Segment::encode(&extra);
    let (status, _, body) = http_post(&server.addr, "/v1/ingest", &image);
    let body = String::from_utf8_lossy(&body).to_string();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"generation\": 2"), "{body}");
    assert!(body.contains("\"swapped\": true"), "{body}");

    assert_eq!(stats_field(&server.addr, "", "generation"), 2);
    assert_eq!(stats_field(&server.addr, "", "records"), records_before + 1);
    // Two swaps so far: boot (onto generation 1) and the ingest.
    assert_eq!(stats_field(&server.addr, "", "swaps"), 2);
    let (status, record) = http_get(&server.addr, "/v1/record/XABC");
    assert_eq!(status, 200, "the ingested record must be queryable");
    assert_ne!(record, before_body, "the ingested record must change the response");
    assert!(String::from_utf8_lossy(&record).contains("XABC"));

    // Garbage neither magic claims is rejected with no store effect.
    let (status, _, body) = http_post(&server.addr, "/v1/ingest", b"not a segment");
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));
    assert_eq!(stats_field(&server.addr, "", "generation"), 2);

    drop(server);
    let _ = std::fs::remove_dir_all(&data_dir);
}

/// `http_get` variant that tolerates non-200 statuses without panicking
/// in the helpers above.
fn http_get_status_body(addr: &str, target: &str) -> (u16, String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").expect("send");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read");
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .unwrap_or_else(|| panic!("no header terminator in {:?}", String::from_utf8_lossy(&raw)));
    let head = String::from_utf8_lossy(&raw[..head_end]).to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {head}"));
    (status, head, raw[head_end + 4..].to_vec())
}

/// Ingest without `--data-dir` is refused: the store is immutable.
#[test]
fn ingest_without_a_data_dir_answers_403() {
    let (server, _segment) = boot_server(&[]);
    let (status, _, body) = http_post(&server.addr, "/v1/ingest", b"anything");
    assert_eq!(status, 403, "{}", String::from_utf8_lossy(&body));
    let (status, _, _) = http_get_status_body(&server.addr, "/v1/ingest");
    assert_eq!(status, 405, "ingest is POST-only");
}
