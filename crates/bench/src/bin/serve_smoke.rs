//! `serve_smoke` — boots the serving stack over a segment (the `build_db`
//! output in CI), issues a battery of queries **over HTTP**, and asserts
//! every payload is byte-identical to an in-process `QueryExec` + encoder
//! run on the same segment, plus the cache-hit counter contract. Exits
//! non-zero on any mismatch, so CI can gate on it.
//!
//! Usage: `serve_smoke --segment PATH [--threads N]`

use std::io::{Read, Write as _};
use std::net::TcpStream;
use std::sync::Arc;

use uops_db::{
    BinaryEncoder, JsonEncoder, QueryExec, QueryPlan, ResultEncoder, Segment, XmlEncoder,
};
use uops_serve::args::CliSpec;
use uops_serve::{QueryService, Server};

const SPEC: CliSpec<'static> = CliSpec {
    name: "serve_smoke",
    usage: "serve_smoke --segment PATH [--threads N]",
    value_flags: &["--segment", "--threads"],
    bool_flags: &[],
    optional_value_flags: &[],
    max_positional: 0,
};

fn http_get(addr: &std::net::SocketAddr, target: &str) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(stream, "GET {target} HTTP/1.1\r\nHost: s\r\nConnection: close\r\n\r\n").expect("send");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read");
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n").expect("header terminator") + 4;
    let head = String::from_utf8_lossy(&raw[..head_end]);
    let status = head.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status");
    (status, raw[head_end..].to_vec())
}

fn main() {
    let args = SPEC.parse_or_exit();
    let Some(segment_path) = args.value("--segment") else {
        SPEC.exit_usage("--segment is required");
    };
    let threads = match args.parsed_value::<usize>("--threads") {
        Ok(n) => n.unwrap_or(4),
        Err(message) => SPEC.exit_usage(&message),
    };

    let segment = Arc::new(Segment::open(segment_path).expect("open segment"));
    let records = segment.db().len();
    let service = Arc::new(QueryService::from_segment(Arc::clone(&segment), 32 << 20));
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service), threads).expect("bind");
    let addr = server.local_addr();
    let handle = server.spawn();
    println!("serve_smoke: {records} records on http://{addr}");

    // Every query in three encodings, each twice (miss then hit), all
    // byte-compared against uncached in-process execution.
    let cases = [
        "",
        "uarch=Skylake",
        "uarch=Skylake&port=5",
        "uarch=Haswell&sort=latency&desc=1&limit=5",
        "mnemonic=ADD",
        "prefix=V&sort=throughput",
        "min_uops=2&max_uops=8",
        "uarch=Ice%20Lake",
    ];
    let mut checked = 0usize;
    for query_string in cases {
        let plan = QueryPlan::parse(query_string).expect("plan");
        let db = segment.db();
        let result = QueryExec::new().run(&plan, &db);
        for (format, expected) in [
            ("json", JsonEncoder.encode_result(&result)),
            ("binary", BinaryEncoder.encode_result(&result)),
            ("xml", XmlEncoder.encode_result(&result)),
        ] {
            let target = format!(
                "/v1/query?{query_string}{}format={format}",
                if query_string.is_empty() { "" } else { "&" }
            );
            for round in ["miss", "hit"] {
                let (status, body) = http_get(&addr, &target);
                assert_eq!(status, 200, "{target}");
                assert_eq!(
                    body, expected,
                    "HTTP bytes must equal in-process QueryExec bytes ({target}, {round})"
                );
                checked += 1;
            }
        }
    }

    let stats = service.stats();
    assert_eq!(
        stats.raw.hits + stats.raw.misses,
        checked as u64,
        "every request goes through the raw fast lane first"
    );
    assert_eq!(
        stats.raw.hits,
        (checked / 2) as u64,
        "second touch of each verbatim target must hit the fast lane"
    );
    assert_eq!(
        stats.cache.misses,
        (checked / 2) as u64,
        "only first touches reach the fingerprint tier"
    );
    assert_eq!(stats.cache.hits, 0, "fast-lane hits never probe the fingerprint tier");
    assert_eq!(
        stats.executions, stats.cache.misses,
        "cache hits must not invoke the planner/executor"
    );
    assert_eq!(stats.encodes, stats.cache.misses, "cache hits must not invoke the encoder");

    // Diff + record endpoints answer and are deterministic.
    let (status, d1) = http_get(&addr, "/v1/diff?base=Haswell&other=Skylake");
    assert_eq!(status, 200);
    let (_, d2) = http_get(&addr, "/v1/diff?base=Haswell&other=Skylake");
    assert_eq!(d1, d2, "diff responses must be deterministic");
    let (status, _) = http_get(&addr, "/v1/record/ADD?uarch=Skylake");
    assert_eq!(status, 200);

    // Conditional requests: revalidating with the served ETag is a 304
    // with no body; HEAD returns no body either.
    let etag_probe = {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET /v1/query?uarch=Skylake HTTP/1.1\r\nConnection: close\r\n\r\n")
            .expect("send");
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).expect("read");
        String::from_utf8_lossy(&raw)
            .lines()
            .find_map(|l| l.strip_prefix("ETag: ").map(str::to_string))
            .expect("200 carries an ETag")
    };
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "GET /v1/query?uarch=Skylake HTTP/1.1\r\nIf-None-Match: {etag_probe}\r\n\
         Connection: close\r\n\r\n"
    )
    .expect("send");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read");
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 304"), "matching If-None-Match must revalidate: {text}");
    assert!(text.ends_with("\r\n\r\n"), "304 must carry no body");

    handle.shutdown();
    println!(
        "serve_smoke OK: {checked} HTTP responses byte-identical to in-process execution \
         ({} fast-lane hits, {} fingerprint misses, {} executions)",
        stats.raw.hits, stats.cache.misses, stats.executions
    );
}
