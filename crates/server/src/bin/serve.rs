//! `serve` — boots the uops-serve HTTP server over a segment file.
//!
//! ```text
//! serve --segment uops.seg [--addr 127.0.0.1:8080] [--threads N] [--cache-mb 64]
//!       [--no-telemetry] [--access-log[=EVERY_N]] [--max-inflight N]
//!       [--deadline-ms MS] [--max-uncached N] [--drain-timeout SECS]
//!       [--max-body BYTES] [--stream-threshold ROWS] [--data-dir DIR]
//! ```
//!
//! The server runs `--threads N` epoll reactor shards (default: the CPU
//! count). Each shard is one thread with its own `SO_REUSEPORT` listener
//! and serves the connections the kernel hands it; a request — an
//! uncached query included — is answered inline on the shard that owns
//! its connection. Only an ingest's publish runs on a separate thread,
//! so reads keep flowing while it fsyncs. Linux only.
//!
//! `--data-dir DIR` turns on the live data plane: `DIR` holds a durable
//! generation store (`MANIFEST` + `gen-N.seg` images). If `DIR` already
//! holds a manifest, boot recovers the newest valid generation from it
//! (quarantining corrupt images) and serves *that* instead of
//! `--segment`; a fresh `DIR` is bootstrapped with the `--segment`
//! contents as generation 1. With a data dir configured,
//! `POST /v1/ingest` accepts segment images or TLV snapshots, merges
//! them with the live generation, durably publishes, and swaps with zero
//! downtime. Without the flag, ingest answers `403` and the store is
//! immutable.
//!
//! `--max-body BYTES` caps `POST` request bodies (`/v1/batch`,
//! `/v1/ingest`); oversize declarations are refused with `413` before a
//! body byte is read. The default is 1 MiB.
//!
//! `--stream-threshold ROWS` sets the result size above which query
//! responses switch from a single `Content-Length` body to
//! `Transfer-Encoding: chunked`, bounding server memory per export. The
//! default is 4096 rows; `0` disables streaming entirely.
//!
//! The first stdout line is always `listening on http://ADDR (...)`, so
//! scripts (and the integration tests) can bind port 0 and discover the
//! real address; with telemetry enabled (the default) the second line is
//! `metrics at http://ADDR/metrics`. Unknown flags exit with status 2 and
//! usage on stderr.
//!
//! `--access-log` writes one JSON line per request to stderr;
//! `--access-log=100` samples every 100th request.
//!
//! Overload controls (all off by default): `--max-inflight N` caps live
//! connections (rejects with a static `503` + `Retry-After` past it),
//! `--deadline-ms MS` arms a per-request budget that sheds *uncached*
//! work when exceeded (cache hits keep serving), and `--max-uncached N`
//! caps concurrent uncached executions the same way.
//!
//! `SIGTERM`/`SIGINT` trigger a graceful drain: stop accepting, finish
//! in-flight requests, exit 0. `--drain-timeout SECS` (default 5) bounds
//! the drain before a hard stop.

use std::io::Write as _;
use std::sync::Arc;

use uops_db::{GenerationStore, Segment};
use uops_pool::Parallelism;
use uops_serve::args::CliSpec;
use uops_serve::{AccessLog, QueryService, Server, ServerOptions};

const SPEC: CliSpec<'static> = CliSpec {
    name: "serve",
    usage: "serve --segment PATH [--addr HOST:PORT] [--threads N] [--cache-mb MB] \
            [--no-telemetry] [--access-log[=EVERY_N]] [--max-inflight N] [--deadline-ms MS] \
            [--max-uncached N] [--drain-timeout SECS] [--max-body BYTES] \
            [--stream-threshold ROWS] [--data-dir DIR]",
    value_flags: &[
        "--segment",
        "--addr",
        "--threads",
        "--cache-mb",
        "--max-inflight",
        "--deadline-ms",
        "--max-uncached",
        "--drain-timeout",
        "--max-body",
        "--stream-threshold",
        "--data-dir",
    ],
    bool_flags: &["--no-telemetry"],
    optional_value_flags: &["--access-log"],
    max_positional: 0,
};

fn main() {
    let args = SPEC.parse_or_exit();
    let Some(segment_path) = args.value("--segment") else {
        SPEC.exit_usage("--segment is required");
    };
    let addr = args.value("--addr").unwrap_or("127.0.0.1:8080");
    let threads = match args.parsed_value::<usize>("--threads") {
        Ok(n) => n.unwrap_or_else(|| Parallelism::Auto.thread_count()).max(1),
        Err(message) => SPEC.exit_usage(&message),
    };
    let cache_mb = match args.parsed_value::<usize>("--cache-mb") {
        Ok(mb) => mb.unwrap_or(64),
        Err(message) => SPEC.exit_usage(&message),
    };

    let segment = match Segment::open(segment_path) {
        Ok(segment) => Arc::new(segment),
        Err(e) => {
            eprintln!("serve: cannot open segment {segment_path}: {e}");
            std::process::exit(1);
        }
    };
    let no_telemetry = args.flag("--no-telemetry");
    let access_log = if args.flag("--access-log") {
        let every = match args.parsed_value::<u64>("--access-log") {
            Ok(every) => every.unwrap_or(1),
            Err(message) => SPEC.exit_usage(&message),
        };
        if every == 0 {
            SPEC.exit_usage("--access-log sampling period must be at least 1");
        }
        Some(AccessLog::to_stderr(every))
    } else {
        None
    };

    let max_inflight = match args.parsed_value::<usize>("--max-inflight") {
        Ok(n) => n.unwrap_or(0),
        Err(message) => SPEC.exit_usage(&message),
    };
    let request_deadline = match args.parsed_value::<u64>("--deadline-ms") {
        Ok(ms) => ms.map(std::time::Duration::from_millis),
        Err(message) => SPEC.exit_usage(&message),
    };
    let max_uncached = match args.parsed_value::<usize>("--max-uncached") {
        Ok(n) => n.unwrap_or(0),
        Err(message) => SPEC.exit_usage(&message),
    };
    let drain_timeout = match args.parsed_value::<u64>("--drain-timeout") {
        Ok(secs) => std::time::Duration::from_secs(secs.unwrap_or(5)),
        Err(message) => SPEC.exit_usage(&message),
    };
    let max_body = match args.parsed_value::<usize>("--max-body") {
        Ok(n) => n.unwrap_or(0), // 0 = the 1 MiB default
        Err(message) => SPEC.exit_usage(&message),
    };
    let stream_threshold = match args.parsed_value::<usize>("--stream-threshold") {
        Ok(rows) => rows,
        Err(message) => SPEC.exit_usage(&message),
    };

    let mut records = segment.db().len();
    let service = Arc::new(QueryService::from_segment(Arc::clone(&segment), cache_mb << 20));
    service.set_max_uncached_inflight(max_uncached);
    if let Some(rows) = stream_threshold {
        service.set_stream_threshold(rows);
    }

    // Scripted filesystem faults for chaos testing (fault-injection
    // builds only): UOPS_FAULT_FS=op:action,... arms the publish path
    // before the store touches disk.
    #[cfg(feature = "fault-injection")]
    if let Ok(spec) = std::env::var("UOPS_FAULT_FS") {
        uops_serve::fault::inject_fs_from_env(&spec);
    }

    let ingest_store = match args.value("--data-dir") {
        None => None,
        Some(dir) => {
            let store = match GenerationStore::open(dir) {
                Ok(Some(recovered)) => {
                    service.note_quarantined(recovered.quarantined);
                    if recovered.quarantined > 0 {
                        eprintln!(
                            "serve: quarantined {} invalid segment image(s) in {dir}",
                            recovered.quarantined
                        );
                    }
                    recovered.store
                }
                Ok(None) => {
                    match GenerationStore::bootstrap(
                        dir,
                        Arc::clone(&segment),
                        uops_serve::fault::store_io(),
                    ) {
                        Ok(store) => store,
                        Err(e) => {
                            eprintln!("serve: cannot bootstrap data dir {dir}: {e}");
                            std::process::exit(1);
                        }
                    }
                }
                Err(e) => {
                    eprintln!("serve: cannot open data dir {dir}: {e}");
                    std::process::exit(1);
                }
            };
            let generation = store.current();
            // Serve the recovered (or freshly bootstrapped) generation,
            // not the raw --segment bytes: after a crash the data dir is
            // the durable truth.
            service.swap_segment(Arc::clone(&generation.segment), generation.id);
            records = generation.segment.len();
            Some(Arc::new(store))
        }
    };
    let boot_generation = service.generation();

    let options = ServerOptions {
        no_telemetry,
        access_log,
        max_inflight,
        request_deadline,
        max_body,
        ingest_store,
        ..ServerOptions::default()
    };
    let server = match Server::bind_with(addr, service, threads, options) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("serve: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    // Announce via explicit writes, ignoring errors: scripts commonly read
    // the first line and close the pipe, and an EPIPE here must not take
    // the server down before it serves a single request.
    let mut stdout = std::io::stdout();
    let _ = writeln!(
        stdout,
        "listening on http://{} ({records} records, {threads} shards, {cache_mb} MiB cache)",
        server.local_addr()
    );
    if server.telemetry_enabled() {
        let _ = writeln!(stdout, "metrics at http://{}/metrics", server.local_addr());
    }
    if let Some(dir) = args.value("--data-dir") {
        let _ = writeln!(stdout, "data plane at {dir} (generation {boot_generation})");
    }
    let _ = stdout.flush();
    run_until_signalled(server, drain_timeout);
}

/// Runs the server, draining gracefully on `SIGTERM`/`SIGINT`: the
/// shards move to background threads while main blocks on the
/// self-pipe; on signal, stop accepting, finish in-flight requests up to
/// `drain_timeout`, exit 0.
fn run_until_signalled(server: Server, drain_timeout: std::time::Duration) {
    use uops_serve::net::{SignalPipe, SIGINT, SIGTERM};
    let mut pipe = match SignalPipe::install() {
        Ok(pipe) => pipe,
        Err(e) => {
            eprintln!("serve: no signal handling ({e}); running without graceful drain");
            server.run();
            return;
        }
    };
    let handle = server.spawn();
    let name = match pipe.wait() {
        SIGTERM => "SIGTERM",
        SIGINT => "SIGINT",
        _ => "signal",
    };
    eprintln!("serve: {name} received, draining (up to {} s)", drain_timeout.as_secs());
    handle.shutdown_graceful(drain_timeout);
}
