//! # uops-serve
//!
//! The serving stack of the uops.info reproduction: the paper's artifact
//! is consumed as a *queried web resource* (downstream tools like uiCA hit
//! per-instruction lookup endpoints at high volume), and this crate serves
//! a characterization database to that kind of traffic. It is the top of a
//! three-layer split:
//!
//! 1. **db** (`uops-db`): the canonical [`QueryPlan`] (cache key + wire
//!    request), the [`uops_db::QueryExec`] executor, and deterministic
//!    [`uops_db::ResultEncoder`]s;
//! 2. **service** ([`QueryService`]): transport-agnostic — owns an `Arc`
//!    of a segment-backed database and **two cache tiers** of encoded
//!    bytes. The *fingerprint tier* (a sharded LRU [`ResponseCache`]
//!    keyed by the canonical plan fingerprint) makes a hit skip planning,
//!    execution, and encoding; the *raw fast lane* (a second tier keyed
//!    by the **verbatim request target**) additionally skips
//!    percent-decoding, plan parsing, canonicalization, and
//!    fingerprinting — a hot URL collapses to one hash, one map probe,
//!    and an `Arc` bump. Both tiers verify the full request string on
//!    hit, so a 64-bit collision is a miss, never a wrong answer.
//!    Every cacheable response carries a strong **ETag** (plan
//!    fingerprint ⊕ store content hash); `If-None-Match` revalidations
//!    answer `304 Not Modified` with no body at all.
//! 3. **transport** ([`Server`]): a dependency-free HTTP/1.1 server on
//!    epoll reactor shards ([`net`]), routing `GET` and `HEAD` on
//!    `/v1/query`, `/v1/record/{mnemonic}`, `/v1/diff`, and `/v1/stats`.
//!    Each shard is one thread running an edge-triggered event loop over
//!    its own `SO_REUSEPORT` listener. The hot path is
//!    **allocation-free and syscall-minimal**: requests parse in place out
//!    of a reusable per-connection buffer, responses assemble in a
//!    reusable scratch from precomputed header fragments, and head + body
//!    leave in a single vectored write (verified by a
//!    counting-global-allocator integration test driving real sockets).
//!    A request is answered on the shard that owns its connection, so an
//!    uncached query runs inline there (a connection with more requests
//!    buffered then yields to the shard's other connections); only an
//!    ingest's publish (fsyncs and renames) is handed to a separate
//!    thread, so readers never wait behind it.
//!
//! The crate is Linux-only: the transport is built on `epoll`,
//! `eventfd` and `SO_REUSEPORT`.
//!
//! Responses over HTTP are byte-identical to in-process
//! `QueryExec` + encoder output for the same database — the transport adds
//! framing, never content — which is asserted end-to-end in this crate's
//! integration tests and CI's `serve-smoke` job.
//!
//! Every read — in process through [`respond`] or over HTTP — runs one
//! pipeline: the raw fast lane, then dispatch by [`Route::of`], then the
//! service's fingerprint-tier probe, admission, execute, encode and
//! insert, then promotion of a tagged 200 into the raw fast lane.
//! Streaming is a branch of it, not a second path: over HTTP, a
//! `/v1/query` page with more rows than
//! [`QueryService::set_stream_threshold`] leaves the pipeline after
//! execution as a chunked stream that enters neither cache tier.
//! [`respond`] never streams, so in-process callers time and check the
//! same code the transport serves.
//!
//! ## Quickstart
//!
//! ```no_run
//! use std::sync::Arc;
//! use uops_db::Segment;
//! use uops_serve::{QueryService, Server};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let segment = Arc::new(Segment::open("uops.seg")?);
//! let service = Arc::new(QueryService::from_segment(segment, 64 << 20));
//! let server = Server::bind("127.0.0.1:8080", service, 4)?; // 4 shards
//! println!("listening on http://{}", server.local_addr());
//! server.run(); // event loops; never return
//! # Ok(())
//! # }
//! ```
//!
//! Then: `curl 'http://127.0.0.1:8080/v1/query?uarch=Skylake&port=5'`.
//! Responses carry a strong `ETag`; a revalidation
//! (`curl -H 'If-None-Match: "<etag>"' ...`) returns `304 Not Modified`
//! with no body, and `curl -I` (`HEAD`) returns the headers alone.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

#[cfg(not(target_os = "linux"))]
compile_error!(
    "uops-serve is Linux-only: its transport is built on epoll, eventfd and SO_REUSEPORT"
);

pub mod access_log;
pub mod args;
pub mod cache;
pub mod fault;
pub mod http;
pub mod metrics;
pub mod net;
pub mod service;

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use uops_db::plan::decode_component;
use uops_db::{GenerationStore, QueryPlan, Segment};
use uops_telemetry::saturating_ns;

use service::QueryReply;

pub use access_log::{AccessEntry, AccessLog};
pub use cache::{CacheStats, CachedResponse, ResponseCache};
pub use metrics::{render_metrics, Route, ServerMetrics};
pub use service::{
    decode_batch_response, encode_batch_request, Encoding, QueryService, ResponseTier,
    ServiceResponse, ServiceStats,
};

/// How long an idle keep-alive connection may sit between requests.
const KEEP_ALIVE_TIMEOUT: Duration = Duration::from_secs(5);
/// Default cap on request bodies (`POST /v1/batch`, `POST /v1/ingest`);
/// larger declared bodies are refused with `413` before a byte is read.
const DEFAULT_MAX_BODY: usize = 1 << 20;
/// `Allow` value for the read-only routes.
const ALLOW_READ: &str = "GET, HEAD";
/// `Allow` value for the body-carrying routes (`/v1/batch`, `/v1/ingest`).
const ALLOW_POST: &str = "POST";
/// How long a write may sit with zero bytes accepted by the peer before
/// the connection is evicted as a slow reader.
const WRITE_STALL_TIMEOUT: Duration = Duration::from_secs(5);
/// Most requests served over one connection before it is closed.
const MAX_REQUESTS_PER_CONNECTION: usize = 1024;

/// Preformatted 503 sent to connections rejected at admission, before a
/// slab slot is ever assigned. Static so the reject path
/// allocates nothing — overload is exactly when allocation pressure
/// hurts most — and framed `Connection: close` so clients don't retry on
/// the doomed socket. The body matches
/// [`service::QueryService`]'s shed response.
pub(crate) const OVERLOAD_RESPONSE: &[u8] = b"HTTP/1.1 503 Service Unavailable\r\n\
Content-Type: application/json\r\n\
Content-Length: 46\r\n\
Retry-After: 1\r\n\
Connection: close\r\n\
\r\n\
{\"error\": \"server overloaded, retry shortly\"}\n";

/// Answers one request by its verbatim target through the read pipeline
/// the transport runs (see the crate docs) without streaming, so every
/// answer is a whole body. `HEAD` shares `GET`'s cache entries; the
/// transport suppresses the body.
#[must_use]
pub fn respond(service: &QueryService, method: &str, target: &str) -> ServiceResponse {
    if method != "GET" && method != "HEAD" {
        return ServiceResponse::error(405, "only GET and HEAD are supported");
    }
    serve(service, target, false).into_whole()
}

/// The one read pipeline, shared by [`respond`] and the transport: the raw
/// fast lane first — a repeated hot URL is served from the raw-target
/// cache tier with no percent-decoding, no plan parsing, no
/// canonicalization, no fingerprinting and no allocation — then
/// [`dispatch`] (and the fingerprint tier inside the service) on a miss,
/// after which a cacheable 200 is promoted into the fast lane for the next
/// identical target. With `stream`, a `/v1/query` page over the service's
/// streaming threshold comes back as a [`service::StreamBody`], which
/// enters neither tier.
fn serve(service: &QueryService, target: &str, stream: bool) -> QueryReply {
    if let Some(hit) = service.raw_response(target) {
        return QueryReply::Full(hit);
    }
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let reply = dispatch(service, path, query, stream).unwrap_or_else(QueryReply::Full);
    if let QueryReply::Full(response) = &reply {
        // Only tagged 200s are stored: errors and /v1/stats (which would
        // cache its own staleness) carry no ETag.
        service.raw_store(target, response);
    }
    reply
}

/// [`serve`]'s router past the raw fast lane, and its only caller: maps
/// a read request to its handler by [`Route::of`], after splitting the
/// `format` selector off the query string (the remaining pairs belong to
/// the endpoint, and `QueryPlan` parsing stays strict). `Err` is the
/// router's own rejection (400 or 404), before any handler ran.
fn dispatch(
    service: &QueryService,
    path: &str,
    query: &str,
    stream: bool,
) -> Result<QueryReply, ServiceResponse> {
    let bad = |e: uops_db::DbError| ServiceResponse::error(400, &e.to_string());
    let not_found = || ServiceResponse::error(404, &format!("no route for {path}"));
    let (rest, encoding) = split_format(uops_db::plan::parse_query_pairs(query).map_err(bad)?)?;
    let format_given = encoding.is_some();
    let encoding = encoding.unwrap_or(Encoding::Json);

    // A `(key, slot)` assignment that is as strict about duplicates as
    // QueryPlan's own parser: the second occurrence is a 400, never a
    // silent last-win.
    fn assign(slot: &mut Option<String>, key: &str, value: String) -> Result<(), ServiceResponse> {
        if slot.replace(value).is_some() {
            return Err(ServiceResponse::error(400, &format!("duplicate query parameter {key:?}")));
        }
        Ok(())
    }

    let response = match Route::of(path) {
        Route::Query => {
            let plan = service.parse_stage(|| QueryPlan::from_pairs(rest)).map_err(bad)?;
            if stream {
                return Ok(service.query_streaming(&plan, encoding));
            }
            service.query(&plan, encoding)
        }
        Route::Diff => {
            let (mut base, mut other) = (None, None);
            for (key, value) in rest {
                match key.as_str() {
                    "base" => assign(&mut base, &key, value)?,
                    "other" => assign(&mut other, &key, value)?,
                    _ => {
                        let message = format!("unknown diff parameter {key:?}");
                        return Err(ServiceResponse::error(400, &message));
                    }
                }
            }
            match (base, other) {
                (Some(base), Some(other)) => service.diff(&base, &other, encoding),
                _ => return Err(ServiceResponse::error(400, "diff requires base= and other=")),
            }
        }
        Route::Stats if !rest.is_empty() || format_given => {
            return Err(ServiceResponse::error(400, "stats takes no parameters"));
        }
        Route::Stats => service.stats_response(),
        Route::Record => {
            let raw_name = &path["/v1/record/".len()..];
            if raw_name.is_empty() || raw_name.contains('/') {
                return Err(not_found());
            }
            // Path segments decode percent-escapes only — unlike query
            // components, a literal `+` is a literal plus (RFC 3986), so
            // shield it from decode_component's `+`-to-space rule.
            let name = decode_component(&raw_name.replace('+', "%2B")).map_err(bad)?;
            let mut uarch = None;
            for (key, value) in rest {
                match key.as_str() {
                    "uarch" => assign(&mut uarch, &key, value)?,
                    _ => {
                        let message = format!("unknown record parameter {key:?}");
                        return Err(ServiceResponse::error(400, &message));
                    }
                }
            }
            service.record(&name, uarch.as_deref(), encoding)
        }
        Route::Metrics | Route::Batch | Route::Ingest | Route::Other => return Err(not_found()),
    };
    Ok(QueryReply::Full(response))
}

/// Splits the `format` selector out of parsed query pairs, as strict
/// about duplicates and unknown values as `QueryPlan`'s own parser.
fn split_format(
    pairs: Vec<(String, String)>,
) -> Result<(Vec<(String, String)>, Option<Encoding>), ServiceResponse> {
    let mut encoding = None;
    let mut rest: Vec<(String, String)> = Vec::with_capacity(pairs.len());
    for (key, value) in pairs {
        if key == "format" {
            // As strict as QueryPlan's own duplicate-key rejection: two
            // `format` values must not silently last-win.
            if encoding.is_some() {
                return Err(ServiceResponse::error(400, "duplicate query parameter \"format\""));
            }
            match Encoding::from_wire_name(&value) {
                Some(enc) => encoding = Some(enc),
                None => {
                    return Err(ServiceResponse::error(
                        400,
                        &format!("unknown format {value:?} (expected json|binary|xml)"),
                    ));
                }
            }
        } else {
            rest.push((key, value));
        }
    }
    Ok((rest, encoding))
}

/// Parses the `/v1/batch` query string, which may carry **only** a
/// `format` selector.
fn batch_format(query: &str) -> Result<Encoding, ServiceResponse> {
    let pairs = match uops_db::plan::parse_query_pairs(query) {
        Ok(pairs) => pairs,
        Err(e) => return Err(ServiceResponse::error(400, &e.to_string())),
    };
    let (rest, encoding) = split_format(pairs)?;
    if let Some((key, _)) = rest.first() {
        return Err(ServiceResponse::error(400, &format!("unknown batch parameter {key:?}")));
    }
    Ok(encoding.unwrap_or(Encoding::Json))
}

/// Telemetry, logging and limit options for a [`Server`]
/// ([`Server::bind_with`]); [`Default`] matches [`Server::bind`]:
/// telemetry on, no access log, 5 s keep-alive timeout.
#[derive(Debug)]
pub struct ServerOptions {
    /// Disable all metric recording and the `/metrics` endpoint (which
    /// then answers 404). The decision is made once at bind time; the hot
    /// path pays a single predictable branch either way.
    pub no_telemetry: bool,
    /// Sampled structured access log (see [`AccessLog`]); `None` logs
    /// nothing.
    pub access_log: Option<AccessLog>,
    /// How long an idle keep-alive connection may sit between requests
    /// before it is closed. The shard's timer wheel enforces it in coarse
    /// ticks of `timeout / 8`, so eviction lands within ~12% past the
    /// nominal deadline.
    pub keep_alive_timeout: Duration,
    /// Cap on concurrently served connections (`0` = unlimited), divided
    /// evenly across shards. Beyond it, new connections are answered with
    /// a preformatted static 503 + `Retry-After` and closed — rejected,
    /// never queued.
    pub max_inflight: usize,
    /// Per-request deadline budget, armed when the parsed request is in
    /// hand and checked between the execute/encode pipeline stages. Only
    /// uncached work is shed on expiry — both cache tiers keep serving
    /// under overload. `None` disables deadline shedding.
    pub request_deadline: Option<Duration>,
    /// How long a response write may sit with zero bytes accepted before
    /// the connection is evicted as a slow reader (so a stalled peer
    /// cannot pin a response buffer forever). The timer wheel enforces it
    /// with the same coarse ticks as `keep_alive_timeout`.
    pub write_stall_timeout: Duration,
    /// Cap on request bodies in bytes (`0` = the 1 MiB default). A
    /// request declaring a larger `Content-Length` is answered `413`
    /// without reading a byte of the body, and the connection closes
    /// (the unread body would desynchronize keep-alive framing).
    pub max_body: usize,
    /// Durable generation store backing `POST /v1/ingest`. `None` (the
    /// default) disables ingestion: the route answers `403` and the
    /// served store is immutable for the process lifetime.
    pub ingest_store: Option<Arc<GenerationStore>>,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            no_telemetry: false,
            access_log: None,
            keep_alive_timeout: KEEP_ALIVE_TIMEOUT,
            max_inflight: 0,
            request_deadline: None,
            write_stall_timeout: WRITE_STALL_TIMEOUT,
            max_body: DEFAULT_MAX_BODY,
            ingest_store: None,
        }
    }
}

/// Everything a shard needs to serve its connections; shared across
/// shards behind one `Arc`.
pub(crate) struct ConnState {
    pub(crate) service: Arc<QueryService>,
    pub(crate) metrics: Arc<ServerMetrics>,
    pub(crate) access_log: Option<AccessLog>,
    pub(crate) telemetry: bool,
    pub(crate) keep_alive_timeout: Duration,
    pub(crate) request_deadline: Option<Duration>,
    pub(crate) write_stall_timeout: Duration,
    pub(crate) max_body: usize,
    /// Where `POST /v1/ingest` bodies go to be published (a bounded
    /// queue: a body that finds it full is answered `503`); `None`
    /// without an ingest store.
    pub(crate) ingest: Option<std::sync::mpsc::SyncSender<IngestJob>>,
}

/// Cross-thread shutdown plumbing shared by the shards and the
/// [`ServerHandle`]: a flag, plus one eventfd per shard to wake its
/// `epoll_wait`.
pub(crate) struct ShutdownSignal {
    flag: AtomicBool,
    /// Set (before `flag`) when the shutdown should drain: stop
    /// accepting but let in-flight requests finish. Cleared again by
    /// [`ShutdownSignal::trigger`] if a drain deadline forces a hard
    /// stop.
    graceful: AtomicBool,
    wakes: Vec<Arc<net::sys::EventFd>>,
}

impl ShutdownSignal {
    pub(crate) fn is_triggered(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    pub(crate) fn is_graceful(&self) -> bool {
        self.graceful.load(Ordering::SeqCst)
    }

    fn trigger(&self) {
        self.graceful.store(false, Ordering::SeqCst);
        self.flag.store(true, Ordering::SeqCst);
        self.wake();
    }

    fn trigger_graceful(&self) {
        self.graceful.store(true, Ordering::SeqCst);
        self.flag.store(true, Ordering::SeqCst);
        self.wake();
    }

    fn wake(&self) {
        for wake in &self.wakes {
            wake.notify();
        }
    }
}

/// The HTTP/1.1 server: N epoll reactor shards, each a single-threaded
/// event loop with its own `SO_REUSEPORT` listener, multiplexing its
/// share of the connections through non-blocking state machines (see
/// [`net`]). A parked keep-alive connection costs a slab entry and an
/// fd, not a thread.
pub struct Server {
    shards: Vec<net::reactor::Shard>,
    state: Arc<ConnState>,
    local_addr: SocketAddr,
    shutdown: Arc<ShutdownSignal>,
}

/// A handle to a server running on background threads
/// ([`Server::spawn`]); dropping it without [`ServerHandle::shutdown`]
/// leaves the server running detached.
pub struct ServerHandle {
    local_addr: SocketAddr,
    shutdown: Arc<ShutdownSignal>,
    run_thread: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, closes every connection, and joins the shards.
    pub fn shutdown(self) {
        self.shutdown.trigger();
        let _ = self.run_thread.join();
    }

    /// Graceful drain: stops accepting, lets in-flight requests finish
    /// (keep-alive connections are closed after their current response),
    /// and joins the shards. If the drain has not completed within
    /// `drain_timeout`, falls back to the hard shutdown path.
    pub fn shutdown_graceful(self, drain_timeout: Duration) {
        self.shutdown.trigger_graceful();
        let deadline = Instant::now() + drain_timeout;
        while !self.run_thread.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        if !self.run_thread.is_finished() {
            // Deadline blown: demote to a hard stop and wake the shards
            // again so they observe the downgrade.
            self.shutdown.trigger();
        }
        let _ = self.run_thread.join();
    }
}

impl Server {
    /// Binds `shards` reactor shards on `addr` (the event loops run on
    /// the caller via [`Server::run`], or on background threads via
    /// [`Server::spawn`]).
    ///
    /// # Errors
    ///
    /// Propagates bind and epoll/eventfd setup failures.
    pub fn bind(addr: &str, service: Arc<QueryService>, shards: usize) -> std::io::Result<Server> {
        Server::bind_with(addr, service, shards, ServerOptions::default())
    }

    /// [`Server::bind`] with explicit [`ServerOptions`] (telemetry off,
    /// access log, limits, ingest store).
    ///
    /// # Errors
    ///
    /// Propagates bind and epoll/eventfd setup failures.
    pub fn bind_with(
        addr: &str,
        service: Arc<QueryService>,
        shards: usize,
        options: ServerOptions,
    ) -> std::io::Result<Server> {
        let shards = shards.max(1);
        let (local_addr, listeners) = net::listener::bind_shard_listeners(addr, shards)?;
        let ingest = options
            .ingest_store
            .map(|store| spawn_ingest_thread(Arc::clone(&service), store, shards));
        let state = Arc::new(ConnState {
            service,
            metrics: Arc::new(ServerMetrics::new()),
            access_log: options.access_log,
            telemetry: !options.no_telemetry,
            keep_alive_timeout: options.keep_alive_timeout,
            request_deadline: options.request_deadline,
            write_stall_timeout: options.write_stall_timeout,
            max_body: if options.max_body == 0 { DEFAULT_MAX_BODY } else { options.max_body },
            ingest,
        });
        state.metrics.shard_count.store(shards, Ordering::Relaxed);
        // Surface per-shard connection balance in /v1/stats: the gauges
        // already exist for /metrics; this renders the raw vectors plus a
        // skew summary so rebalance drift is visible without Prometheus.
        {
            let metrics = Arc::clone(&state.metrics);
            state.service.set_stats_extension(move |body| {
                use std::fmt::Write as _;
                let shards =
                    metrics.shard_count.load(Ordering::Relaxed).min(metrics::MAX_SHARDS).max(1);
                let mut min = i64::MAX;
                let mut max = 0_i64;
                let mut total = 0_i64;
                let _ = write!(body, ",\n  \"shards\": {{\"count\": {shards}, \"connections\": [");
                for shard in 0..shards {
                    let live = metrics.shard_connections[shard].get();
                    if shard > 0 {
                        body.push_str(", ");
                    }
                    let _ = write!(body, "{live}");
                    min = min.min(live);
                    max = max.max(live);
                    total += live;
                }
                body.push_str("], \"accepted\": [");
                for shard in 0..shards {
                    if shard > 0 {
                        body.push_str(", ");
                    }
                    let _ = write!(body, "{}", metrics.shard_accepted[shard].get());
                }
                let _ = write!(
                    body,
                    "], \"skew\": {{\"min\": {min}, \"max\": {max}, \"mean\": {}, \"spread\": {}}}}}",
                    total / shards as i64,
                    max - min,
                );
            });
        }
        let wakes = (0..shards)
            .map(|_| net::sys::EventFd::new().map(Arc::new))
            .collect::<std::io::Result<Vec<_>>>()?;
        let shutdown = Arc::new(ShutdownSignal {
            flag: AtomicBool::new(false),
            graceful: AtomicBool::new(false),
            wakes: wakes.clone(),
        });
        // Divide the connection cap evenly; any remainder rounds up so
        // the shards' caps sum to at least the requested total.
        let conn_cap = if options.max_inflight == 0 {
            0
        } else {
            options.max_inflight.div_ceil(shards).max(1)
        };
        let mut shard_loops = Vec::with_capacity(shards);
        for (index, (listener, wake)) in listeners.into_iter().zip(wakes).enumerate() {
            shard_loops.push(net::reactor::Shard::new(
                listener,
                wake,
                Arc::clone(&state),
                Arc::clone(&shutdown),
                conn_cap,
                index,
            )?);
        }
        Ok(Server { shards: shard_loops, state, local_addr, shutdown })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// This server's transport metric set (live atomics — read them any
    /// time, e.g. for benchmark percentile extraction).
    #[must_use]
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.state.metrics)
    }

    /// Whether this server records telemetry and serves `/metrics`.
    #[must_use]
    pub fn telemetry_enabled(&self) -> bool {
        self.state.telemetry
    }

    /// Runs shard 0's event loop on the calling thread and shards 1..N on
    /// their own threads, until shutdown is signalled (never, unless
    /// [`Server::spawn`] wrapped it); returns when every shard has
    /// observed the signal.
    pub fn run(self) {
        let started = Arc::new(Barrier::new(self.shards.len()));
        self.run_shards(started);
    }

    /// [`Server::run`], with every shard waiting on `started` once it has
    /// entered its loop.
    fn run_shards(self, started: Arc<Barrier>) {
        let mut shards = self.shards.into_iter();
        let first = shards.next();
        let rest: Vec<_> = shards
            .enumerate()
            .map(|(at, shard)| {
                let started = Arc::clone(&started);
                std::thread::Builder::new()
                    .name(format!("uops-serve-shard-{}", at + 1))
                    .spawn(move || shard.run(&started))
                    .expect("spawn reactor shard")
            })
            .collect();
        if let Some(shard) = first {
            shard.run(&started);
        }
        for handle in rest {
            let _ = handle.join();
        }
    }

    /// Moves the event loops to background threads, returning a handle
    /// for address discovery and graceful shutdown (tests, benchmarks,
    /// embedding). Returns once every shard has started its loop, so no
    /// shard start-up (thread, event buffer) lands after the caller
    /// begins using the server.
    #[must_use]
    pub fn spawn(self) -> ServerHandle {
        let local_addr = self.local_addr;
        let shutdown = Arc::clone(&self.shutdown);
        let started = Arc::new(Barrier::new(self.shards.len() + 1));
        let run_started = Arc::clone(&started);
        let run_thread = std::thread::Builder::new()
            .name("uops-serve-shard-0".into())
            .spawn(move || self.run_shards(run_started))
            .expect("spawn shard thread");
        started.wait();
        ServerHandle { local_addr, shutdown, run_thread }
    }
}

/// One reserve file descriptor held open so `EMFILE` accept failures can
/// be answered actively instead of with blind backoff: closing the
/// reserve frees exactly one fd, the pending connection is accepted into
/// it and immediately closed (the peer sees a prompt reset rather than a
/// connect that hangs in the backlog), and the reserve is reopened for
/// the next storm. `/dev/null` keeps the reserve off the network.
pub(crate) struct AcceptRescue {
    reserve: Option<std::fs::File>,
}

impl AcceptRescue {
    pub(crate) fn new() -> AcceptRescue {
        AcceptRescue { reserve: AcceptRescue::open_reserve() }
    }

    fn open_reserve() -> Option<std::fs::File> {
        std::fs::File::open("/dev/null").ok()
    }

    /// Called after an `EMFILE`-class accept error: spend the reserve fd
    /// to accept-and-close one pending connection. Returns `true` if a
    /// connection was actively reset (counted as an `accept_rescue`);
    /// `false` means no fd headroom could be found and the caller should
    /// back off instead.
    pub(crate) fn rescue(&mut self, listener: &TcpListener) -> bool {
        self.reserve = None;
        // Plain accept, not the fault shim: the scripted failure was
        // already consumed by the accept that brought us here. The
        // accepted stream drops immediately — that close IS the rescue.
        let rescued = listener.accept().is_ok();
        self.reserve = AcceptRescue::open_reserve();
        rescued
    }
}

/// Answers `GET /metrics` at the transport layer, **before** the read pipeline:
/// the exposition must reflect this instant, so it never enters the raw
/// fast lane or the fingerprint tier (and carries no ETag). With
/// telemetry disabled the endpoint answers 404.
fn metrics_response(state: &ConnState, method: &str, query: &str) -> ServiceResponse {
    if method != "GET" && method != "HEAD" {
        return ServiceResponse::error(405, "only GET and HEAD are supported");
    }
    if !state.telemetry {
        return ServiceResponse::error(404, "telemetry is disabled (--no-telemetry)");
    }
    if !query.is_empty() {
        return ServiceResponse::error(400, "metrics takes no parameters");
    }
    let text = metrics::render_metrics(&state.service, &state.metrics);
    ServiceResponse {
        status: 200,
        content_type: "text/plain; version=0.0.4; charset=utf-8",
        etag: None,
        body: Arc::from(text.into_bytes().as_slice()),
        tier: ResponseTier::Untiered,
        generation: 0,
    }
}

/// Refusal for an ingest body that is neither image nor snapshot.
const NOT_AN_INGEST_BODY: &str = "ingest body is neither a segment image nor a TLV snapshot";

/// One publish handed off a shard to the ingest thread.
pub(crate) struct IngestJob {
    pub(crate) body: Vec<u8>,
    /// The connection's slab token on its shard.
    pub(crate) token: u64,
    pub(crate) reply: Arc<net::reactor::Mailbox>,
}

/// Starts the thread behind `POST /v1/ingest`. A publish validates,
/// merges, fsyncs and renames — milliseconds, or far longer on a stalled
/// disk — so a shard sends the request body here instead of running it
/// inline, and its other connections keep being served meanwhile. One
/// thread serializes the publishes (the store publishes one generation
/// at a time anyway); each answer is posted back to the owning shard's
/// [`net::reactor::Mailbox`]. At most `queued` bodies wait behind the
/// publish in progress; a shard whose body finds the queue full answers
/// `503` at once instead of holding it. A publish that panics is
/// answered `500`, so the thread outlives it. The thread exits once
/// every sender (held by the shards' shared state) is gone.
fn spawn_ingest_thread(
    service: Arc<QueryService>,
    store: Arc<GenerationStore>,
    queued: usize,
) -> std::sync::mpsc::SyncSender<IngestJob> {
    let (jobs, queue) = std::sync::mpsc::sync_channel::<IngestJob>(queued);
    std::thread::Builder::new()
        .name("uops-serve-ingest".into())
        .spawn(move || {
            for job in queue {
                let publish =
                    std::panic::AssertUnwindSafe(|| publish_ingest(&service, &store, &job.body));
                let response = std::panic::catch_unwind(publish)
                    .unwrap_or_else(|_| ServiceResponse::error(500, "publish failed"));
                job.reply.post(job.token, response, job.body);
            }
        })
        .expect("spawn ingest thread");
    jobs
}

/// Publishes one `POST /v1/ingest` body: the live data plane's write
/// path. The body is either a raw [`Segment`] image (`UOPSSEG\x01`
/// magic) or a TLV snapshot (`UDB\x01` magic). Before anything is
/// published, a snapshot is decoded and re-encoded, and an image is checked
/// for structure, canonical key order and symbol range; a body that fails
/// is rejected with no effect on the served store. On success the incoming
/// records are last-writer-wins merged with the live generation, durably
/// published through the store's manifest protocol (temp + fsync +
/// rename + dir-fsync), and atomically swapped live, flushing both cache
/// tiers.
fn publish_ingest(service: &QueryService, store: &GenerationStore, body: &[u8]) -> ServiceResponse {
    let incoming = if body.starts_with(&uops_db::segment::layout::MAGIC) {
        // Open checks structure only; the merge also needs the records in
        // canonical key order with symbols inside the string table.
        let checked = Segment::from_bytes(body.to_vec())
            .and_then(|segment| segment.db().check_records().map(|()| segment));
        match checked {
            Ok(segment) => segment,
            Err(err) => {
                return ServiceResponse::error(400, &format!("segment image rejected: {err}"));
            }
        }
    } else if body.starts_with(&uops_db::codec::MAGIC) {
        match uops_db::codec::decode(body) {
            Ok(snapshot) => match Segment::from_bytes(Segment::encode(&snapshot)) {
                Ok(segment) => segment,
                Err(err) => {
                    return ServiceResponse::error(400, &format!("snapshot rejected: {err}"));
                }
            },
            Err(err) => return ServiceResponse::error(400, &format!("snapshot rejected: {err}")),
        }
    } else {
        return ServiceResponse::error(400, NOT_AN_INGEST_BODY);
    };
    let records = incoming.len();
    match store.publish_merged(&incoming, fault::store_io()) {
        Ok(generation) => {
            let swapped = service.swap_segment(Arc::clone(&generation.segment), generation.id);
            let body = format!(
                "{{\"generation\": {}, \"ingested_records\": {}, \"live_records\": {}, \
                 \"swapped\": {}}}\n",
                generation.id,
                records,
                generation.segment.len(),
                swapped,
            );
            ServiceResponse {
                status: 200,
                content_type: "application/json",
                etag: None,
                body: Arc::from(body.into_bytes().as_slice()),
                tier: ResponseTier::Untiered,
                generation: generation.id,
            }
        }
        Err(err) => ServiceResponse::error(503, &format!("publish failed: {err}")),
    }
}

/// How one answered request's body leaves the process.
pub(crate) enum Payload {
    /// `response.body`, `Content-Length`-framed (the overwhelmingly
    /// common case).
    Single,
    /// The caller's [`http::BatchBody`] holds the assembled multi-response
    /// frames; emitted via [`http::write_batch`].
    Batch,
    /// A large result emitted as `Transfer-Encoding: chunked` in
    /// O(chunk) memory.
    Stream(service::StreamBody),
    /// An accepted `POST /v1/ingest` body still to be published: the
    /// shard sends it to the ingest thread and answers when the publish
    /// is done.
    Ingest,
}

/// Everything captured from answering one request that must outlive the
/// request-buffer borrow: the service response plus the framing and
/// telemetry facts derived from the request.
pub(crate) struct RequestOutcome {
    pub(crate) response: ServiceResponse,
    /// The status actually sent on the wire (304 when a revalidation hit).
    pub(crate) status: u16,
    pub(crate) mode: http::BodyMode,
    pub(crate) not_modified: bool,
    pub(crate) route: Route,
    /// `Allow` header for 405 responses (which methods *would* work).
    pub(crate) allow: Option<&'static str>,
    pub(crate) payload: Payload,
}

/// Answers one parsed request: stage-scratch reset, route
/// classification, `/metrics` interception, method dispatch (`POST` for
/// `/v1/batch` and `/v1/ingest`, `GET`/`HEAD` elsewhere — wrong methods
/// get `405` + `Allow`), the read pipeline [`serve`] with streaming,
/// conditional-request (`If-None-Match`) resolution, and `HEAD` body
/// suppression.
///
/// `body` is the request body (empty unless the request declared a
/// `Content-Length`); `batch`/`scratch` are the caller's reusable batch
/// assembly buffers, filled when the outcome's payload is
/// [`Payload::Batch`].
pub(crate) fn answer(
    state: &ConnState,
    request: &http::Request<'_>,
    body: &[u8],
    batch: &mut http::BatchBody,
    scratch: &mut service::BatchScratch,
) -> RequestOutcome {
    metrics::stage_scratch::reset();
    // Arm (or clear) the per-request deadline for this thread before any
    // service work runs; the service checks it between pipeline stages
    // and sheds only uncached work when it expires.
    service::deadline::set(state.request_deadline.map(|budget| Instant::now() + budget));
    let route = Route::of(request.path());
    if state.telemetry {
        state.metrics.request_bytes.add((request.head_len + body.len()) as u64);
    }
    let method = request.method;
    let read_method = method == "GET" || method == "HEAD";
    let mut allow = None;
    let mut payload = Payload::Single;
    let response = match route {
        Route::Metrics => {
            if read_method {
                // Served here, before the read pipeline: /metrics must always be
                // freshly rendered, never from either cache tier.
                metrics_response(state, method, request.query())
            } else {
                allow = Some(ALLOW_READ);
                ServiceResponse::error(405, "only GET and HEAD are supported")
            }
        }
        Route::Batch => {
            if method == "POST" {
                match batch_format(request.query()) {
                    Ok(encoding) => match state.service.batch(body, encoding, batch, scratch) {
                        Ok(()) => {
                            payload = Payload::Batch;
                            ServiceResponse {
                                status: 200,
                                content_type: service::BATCH_CONTENT_TYPE,
                                etag: None,
                                body: service::empty_body(),
                                tier: ResponseTier::Untiered,
                                generation: 0,
                            }
                        }
                        Err(response) => response,
                    },
                    Err(response) => response,
                }
            } else {
                allow = Some(ALLOW_POST);
                ServiceResponse::error(405, "batch requests are POST-only")
            }
        }
        Route::Ingest => {
            if method != "POST" {
                allow = Some(ALLOW_POST);
                ServiceResponse::error(405, "ingest is POST-only")
            } else if !request.query().is_empty() {
                ServiceResponse::error(400, "ingest takes no parameters")
            } else if state.ingest.is_none() {
                ServiceResponse::error(403, "ingestion is disabled (serve without --data-dir)")
            } else if body.is_empty() {
                ServiceResponse::error(400, NOT_AN_INGEST_BODY)
            } else {
                payload = Payload::Ingest;
                ServiceResponse {
                    status: 200,
                    content_type: "application/json",
                    etag: None,
                    body: service::empty_body(),
                    tier: ResponseTier::Untiered,
                    generation: 0,
                }
            }
        }
        _ => {
            if read_method {
                match serve(&state.service, request.target, true) {
                    QueryReply::Full(response) => response,
                    QueryReply::Stream(stream) => {
                        let content_type = stream.content_type();
                        payload = Payload::Stream(stream);
                        ServiceResponse {
                            status: 200,
                            content_type,
                            etag: None,
                            body: service::empty_body(),
                            tier: ResponseTier::Uncached,
                            generation: 0,
                        }
                    }
                }
            } else {
                allow = Some(ALLOW_READ);
                ServiceResponse::error(405, "only GET and HEAD are supported")
            }
        }
    };
    let not_modified = response.status == 200
        && match (response.etag, request.if_none_match) {
            (Some(etag), Some(header)) => http::etag_matches(header, etag),
            _ => false,
        };
    let status = if not_modified { 304 } else { response.status };
    let mode = if method == "HEAD" { http::BodyMode::HeaderOnly } else { http::BodyMode::Full };
    RequestOutcome { response, status, mode, not_modified, route, allow, payload }
}

/// Telemetry for a request rejected by the parser (the transport answers
/// it with an error response and closes).
pub(crate) fn record_parse_error(state: &ConnState, status: u16) {
    if !state.telemetry {
        return;
    }
    let metrics = &*state.metrics;
    metrics.parse_errors.inc();
    if status == 400 {
        metrics.bad_requests.inc();
    } else if status == 431 {
        metrics.header_overflows.inc();
    }
    metrics.status_class(status).inc();
}

/// Telemetry + access logging for one completed response. `stages` is
/// the `(parse, execute, encode)` nanosecond triple captured from the
/// stage scratch right after [`answer`]: a shard interleaves many
/// connections on one thread, so the thread-local cannot be read at
/// write completion.
#[allow(clippy::too_many_arguments)]
pub(crate) fn record_request(
    state: &ConnState,
    route: Route,
    status: u16,
    tier: ResponseTier,
    not_modified: bool,
    wire_bytes: Option<usize>,
    started: Instant,
    stages: (u64, u64, u64),
) {
    if !state.telemetry && state.access_log.is_none() {
        return;
    }
    let elapsed = saturating_ns(started.elapsed());
    if state.telemetry {
        let metrics = &*state.metrics;
        metrics.requests.inc();
        if let Some(bytes) = wire_bytes {
            metrics.response_bytes.add(bytes as u64);
        }
        metrics.status_class(status).inc();
        if not_modified {
            metrics.not_modified.inc();
        }
        metrics.route_latency(route).record(elapsed);
        match tier {
            ResponseTier::Raw => metrics.tier_latency_raw.record(elapsed),
            ResponseTier::Fingerprint => metrics.tier_latency_fingerprint.record(elapsed),
            ResponseTier::Uncached => metrics.tier_latency_uncached.record(elapsed),
            ResponseTier::Untiered => {}
        }
    }
    if let Some(log) = &state.access_log {
        if log.sample() {
            let (parse_ns, execute_ns, encode_ns) = stages;
            log.log(&AccessEntry {
                route: route.label(),
                status,
                bytes: wire_bytes.unwrap_or(0),
                tier: tier.label(),
                total_ns: elapsed,
                parse_ns,
                execute_ns,
                encode_ns,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;
    use uops_db::{Segment, Snapshot, VariantRecord};

    fn service() -> QueryService {
        QueryService::from_segment(Arc::new(segment()), 1 << 20)
    }

    fn segment() -> Segment {
        let mut s = Snapshot::new("router test");
        // "X+Y" exercises path-segment decoding: '+' is literal in paths.
        for (m, uarch) in
            [("ADD", "Skylake"), ("ADD", "Haswell"), ("ADC", "Skylake"), ("X+Y", "Skylake")]
        {
            s.records.push(VariantRecord {
                mnemonic: m.into(),
                variant: "R64, R64".into(),
                extension: "BASE".into(),
                uarch: uarch.into(),
                uop_count: 1,
                ports: vec![(0b0100_0001, 1)],
                tp_measured: 0.25,
                ..Default::default()
            });
        }
        Segment::from_bytes(Segment::encode(&s)).expect("segment")
    }

    /// The record-level checks of a raw segment body: the probe is a
    /// two-record image (ADD, SUB) with its mnemonic symbols swapped, with
    /// a repeated key, and with a symbol outside the string table. Each is
    /// refused with the generation unchanged, and the live records still
    /// answer; the untouched image is then published.
    #[test]
    fn ingest_checks_segment_records_before_publishing() {
        use uops_db::segment::layout::{section, u32_at, u64_at, HEADER_LEN, SECTION_ENTRY_LEN};

        let dir = std::env::temp_dir()
            .join(format!("uops_serve_ingest_records_{}.d", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service = service();
        let store = GenerationStore::bootstrap(&dir, Arc::new(segment()), fault::store_io())
            .expect("bootstrap");
        let generation = store.current();
        assert!(service.swap_segment(Arc::clone(&generation.segment), generation.id));

        let mut probe = Snapshot::new("ingest probe");
        for mnemonic in ["ADD", "SUB"] {
            probe.records.push(VariantRecord {
                mnemonic: mnemonic.into(),
                variant: "R64, R64".into(),
                extension: "BASE".into(),
                uarch: "Skylake".into(),
                uop_count: 1,
                ports: vec![(0b0100_0001, 1)],
                tp_measured: 0.25,
                ..Default::default()
            });
        }
        let image = Segment::encode(&probe);
        let sections = u32_at(&image, 16) as usize;
        let mnemonics = (0..sections)
            .map(|i| HEADER_LEN + i * SECTION_ENTRY_LEN)
            .find(|&entry| u32_at(&image, entry) == section::COL_MNEMONIC)
            .map(|entry| u64_at(&image, entry + 8) as usize)
            .expect("mnemonic column");
        let (add, sub) = (mnemonics..mnemonics + 4, mnemonics + 4..mnemonics + 8);
        let mut swapped = image.clone();
        swapped[add.clone()].copy_from_slice(&image[sub.clone()]);
        swapped[sub.clone()].copy_from_slice(&image[add.clone()]);
        let mut repeated = image.clone();
        repeated[sub.clone()].copy_from_slice(&image[add]);
        let mut out_of_range = image.clone();
        out_of_range[sub].copy_from_slice(&999u32.to_le_bytes());

        let add = respond(&service, "GET", "/v1/record/ADD");
        let sub = respond(&service, "GET", "/v1/record/SUB");
        for (what, body) in
            [("swapped", swapped), ("repeated key", repeated), ("out of range", out_of_range)]
        {
            assert!(Segment::from_bytes(body.clone()).is_ok(), "{what}: structurally valid");
            let response = publish_ingest(&service, &store, &body);
            assert_eq!(response.status, 400, "{what}");
            assert_eq!(store.current().id, generation.id, "{what}");
            assert_eq!(service.generation(), generation.id, "{what}");
            let after = respond(&service, "GET", "/v1/record/ADD");
            assert_eq!((after.status, &after.body), (200, &add.body), "{what}");
        }
        assert_eq!(publish_ingest(&service, &store, &image).status, 200);
        assert_eq!(store.current().id, generation.id + 1);
        let found = respond(&service, "GET", "/v1/record/SUB");
        assert_eq!(found.status, 200);
        assert_ne!(found.body, sub.body, "the published SUB record must be found");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn routes_dispatch_and_validate() {
        let service = service();
        assert_eq!(respond(&service, "GET", "/v1/query?uarch=Skylake").status, 200);
        assert_eq!(respond(&service, "GET", "/v1/query?uarhc=Skylake").status, 400);
        assert_eq!(respond(&service, "GET", "/v1/query?format=yaml").status, 400);
        assert_eq!(
            respond(&service, "GET", "/v1/query?format=binary&format=json").status,
            400,
            "duplicate format must be rejected, not last-win"
        );
        assert_eq!(respond(&service, "GET", "/v1/record/ADD").status, 200);
        assert_eq!(respond(&service, "GET", "/v1/record/ADD?uarch=Skylake").status, 200);
        assert_eq!(respond(&service, "GET", "/v1/record/ADD?variant=bogus").status, 400);
        assert_eq!(respond(&service, "GET", "/v1/record/").status, 404);
        assert_eq!(respond(&service, "GET", "/v1/diff?base=Haswell&other=Skylake").status, 200);
        assert_eq!(respond(&service, "GET", "/v1/diff?base=Haswell").status, 400);
        assert_eq!(
            respond(&service, "GET", "/v1/diff?base=Haswell&base=Skylake&other=Skylake").status,
            400,
            "duplicate diff parameters must not last-win"
        );
        assert_eq!(
            respond(&service, "GET", "/v1/record/ADD?uarch=Skylake&uarch=Haswell").status,
            400
        );
        assert_eq!(respond(&service, "GET", "/v1/stats").status, 200);
        assert_eq!(respond(&service, "GET", "/v1/stats?x=1").status, 400);
        assert_eq!(
            respond(&service, "GET", "/v1/stats?format=json").status,
            400,
            "stats ignores no parameters, including format"
        );
        assert_eq!(respond(&service, "GET", "/nope").status, 404);
        assert_eq!(respond(&service, "POST", "/v1/query").status, 405);
        assert_eq!(respond(&service, "HEAD", "/v1/query?uarch=Skylake").status, 200);
        assert_eq!(respond(&service, "HEAD", "/v1/stats").status, 200);
    }

    #[test]
    fn respond_serves_repeats_from_the_raw_fast_lane() {
        let service = service();
        let cold = respond(&service, "GET", "/v1/query?port=6&uarch=Skylake");
        let stats = service.stats();
        assert_eq!((stats.raw.hits, stats.raw.misses), (0, 1));
        assert_eq!(stats.cache.misses, 1);

        // Identical verbatim target: raw hit — the fingerprint tier, the
        // parser, and the executor are all left untouched.
        let warm = respond(&service, "GET", "/v1/query?port=6&uarch=Skylake");
        let stats = service.stats();
        assert_eq!(stats.raw.hits, 1, "verbatim repeat must hit the fast lane");
        assert_eq!(stats.cache.hits, 0, "fast-lane hit never reaches the fingerprint tier");
        assert_eq!(stats.executions, 1);
        assert_eq!(warm.body, cold.body);
        assert!(Arc::ptr_eq(&warm.body, &cold.body), "fast lane shares the stored bytes");
        assert_eq!(warm.etag, cold.etag);
        assert!(warm.etag.is_some(), "cacheable responses carry an ETag");

        // A different spelling of the same plan misses the raw tier but
        // hits the fingerprint tier — and returns the same bytes + ETag.
        let respelled = respond(&service, "GET", "/v1/query?uarch=Skylake&port=6");
        let stats = service.stats();
        assert_eq!(stats.raw.misses, 2);
        assert_eq!(stats.cache.hits, 1, "canonicalized spelling hits the fingerprint tier");
        assert_eq!(stats.executions, 1, "no re-execution for a respelled plan");
        assert_eq!(respelled.body, cold.body);
        assert_eq!(respelled.etag, cold.etag, "ETag is spelling-independent");

        // HEAD shares GET's fast-lane entries.
        let head = respond(&service, "HEAD", "/v1/query?port=6&uarch=Skylake");
        assert_eq!(service.stats().raw.hits, 2);
        assert_eq!(head.body, cold.body, "the transport, not the cache, suppresses HEAD bodies");

        // Other methods are rejected before touching any tier.
        assert_eq!(respond(&service, "POST", "/v1/query").status, 405);
    }

    #[test]
    fn respond_never_caches_stats_or_errors() {
        let service = service();
        for _ in 0..2 {
            let stats_response = respond(&service, "GET", "/v1/stats");
            assert_eq!(stats_response.status, 200);
            assert!(stats_response.etag.is_none(), "stats must not be revalidatable");
        }
        assert_eq!(service.stats().raw.hits, 0, "stats must never be served from the fast lane");
        for _ in 0..2 {
            assert_eq!(respond(&service, "GET", "/v1/query?bogus=1").status, 400);
        }
        let stats = service.stats();
        assert_eq!(stats.raw.hits, 0, "errors must never be cached");
        assert_eq!(stats.raw.entries, 0);
    }

    #[test]
    fn format_parameter_selects_the_encoder() {
        let service = service();
        let json = respond(&service, "GET", "/v1/query?uarch=Skylake");
        let binary = respond(&service, "GET", "/v1/query?uarch=Skylake&format=binary");
        let xml = respond(&service, "GET", "/v1/query?uarch=Skylake&format=xml");
        assert_eq!(json.content_type, "application/json");
        assert_eq!(binary.content_type, "application/x-uops-result");
        assert_eq!(xml.content_type, "application/xml");
        assert_eq!(&binary.body[..4], b"UQR\x01");
    }

    #[test]
    fn record_path_segment_is_percent_decoded() {
        let service = service();
        // "ADD" spelled with an escape still routes to the same mnemonic —
        // and hits the same cache entry as the plain spelling.
        let plain = respond(&service, "GET", "/v1/record/ADD");
        let escaped = respond(&service, "GET", "/v1/record/%41DD");
        assert_eq!(plain.body, escaped.body);
        assert_eq!(service.stats().cache.hits, 1);
        // Path segments are not query components: a literal '+' stays a
        // plus — "/v1/record/X+Y" must find the "X+Y" mnemonic, not look
        // up "X Y".
        let plus = respond(&service, "GET", "/v1/record/X+Y");
        assert_eq!(plus.status, 200);
        let text = String::from_utf8(plus.body.to_vec()).expect("utf-8");
        assert!(text.contains("\"total_matches\": 1"), "{text}");
        assert!(text.contains("\"mnemonic\": \"X+Y\""), "{text}");
        // ...while %2B reaches the same record and the same cache entry.
        let escaped_plus = respond(&service, "GET", "/v1/record/X%2BY");
        assert_eq!(escaped_plus.body, plus.body);
    }

    #[test]
    fn end_to_end_over_a_real_socket() {
        use std::io::{Read, Write};
        let service = Arc::new(service());
        let server = Server::bind("127.0.0.1:0", Arc::clone(&service), 2).expect("bind");
        let addr = server.local_addr();
        let handle = server.spawn();

        let mut stream = TcpStream::connect(addr).expect("connect");
        // Two requests on one keep-alive connection: the second is a raw
        // fast-lane hit for the first.
        let mut response = Vec::new();
        for _ in 0..2 {
            stream
                .write_all(b"GET /v1/query?uarch=Skylake HTTP/1.1\r\nHost: t\r\n\r\n")
                .expect("send");
            read_one_response(&mut stream, &mut response);
        }
        stream.write_all(b"GET /v1/stats HTTP/1.1\r\nConnection: close\r\n\r\n").expect("send");
        let mut stats = Vec::new();
        stream.read_to_end(&mut stats).expect("read stats");
        let stats_text = String::from_utf8_lossy(&stats);
        assert!(stats_text.contains("\"executions\": 1"), "{stats_text}");
        let service_stats = service.stats();
        assert_eq!(service_stats.raw.hits, 1, "second identical URL hits the fast lane");
        assert_eq!(service_stats.executions, 1);

        // In-process service call must produce the same payload bytes the
        // HTTP transport framed.
        let expected =
            service.query(&QueryPlan::parse("uarch=Skylake").expect("plan"), Encoding::Json);
        let response_text = String::from_utf8_lossy(&response);
        let body_at = response_text.find("\r\n\r\n").expect("header terminator") + 4;
        assert_eq!(&response[body_at..], &*expected.body, "HTTP body == in-process bytes");

        handle.shutdown();
    }

    /// Reads exactly one Content-Length-framed response into `out`
    /// (replacing its contents).
    fn read_one_response(stream: &mut TcpStream, out: &mut Vec<u8>) {
        use std::io::Read;
        out.clear();
        let mut byte = [0u8; 1];
        // Read until the blank line, then Content-Length more bytes.
        while !out.ends_with(b"\r\n\r\n") {
            assert_eq!(stream.read(&mut byte).expect("read header"), 1, "unexpected EOF");
            out.push(byte[0]);
        }
        let text = String::from_utf8_lossy(out);
        let len: usize = text
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("content length")
            .trim()
            .parse()
            .expect("length");
        let mut body = vec![0u8; len];
        stream.read_exact(&mut body).expect("read body");
        out.extend_from_slice(&body);
    }
}
