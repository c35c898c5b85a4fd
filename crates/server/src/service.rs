//! The transport-agnostic query service.
//!
//! [`QueryService`] is the middle layer of the serving stack: it owns an
//! `Arc` of the read-only, zero-copy [`Segment`] being served plus the
//! sharded LRU [`ResponseCache`], and answers *requests* — a canonical
//! [`QueryPlan`], a record lookup, a µarch diff — with fully encoded
//! [`ServiceResponse`] bytes. It knows nothing about HTTP; the server in
//! [`crate::http`]/[`crate::Server`] is one possible transport, the
//! in-process calls in tests and benchmarks are another, and both produce
//! byte-identical responses by construction.
//!
//! The cache stores encoded bytes keyed by the fingerprint of the
//! canonical request string, so a hit skips **plan resolution, execution,
//! and encoding entirely** — observable through [`ServiceStats`]: a hit
//! increments `cache.hits` and leaves `executions`/`encodes` untouched.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use uops_db::store::SwapCell;
use uops_db::{
    diff_uarches, fnv1a_64, fnv1a_64_parts, BatchExec, BinaryEncoder, DbError, ExecStageMetrics,
    JsonEncoder, QueryExec, QueryPlan, QueryResult, ResultEncoder, Segment, SegmentDb, XmlEncoder,
};
use uops_telemetry::{Counter, Histogram, Span};

use crate::cache::{CacheStats, CachedResponse, ResponseCache};
use crate::http::{BatchBody, BatchPart};
use crate::metrics::stage_scratch;

/// Leading magic of a TLV-shaped batch *request* body (`POST /v1/batch`);
/// bodies without it are parsed as newline-delimited plan strings.
pub const BATCH_REQUEST_MAGIC: [u8; 4] = *b"UQB\x01";

/// Leading magic of a framed batch *response* body, followed by a `u32`
/// LE plan count and one `u16` LE status + `u32` LE length + body frame
/// per plan, in request order.
pub const BATCH_RESPONSE_MAGIC: [u8; 4] = *b"UQM\x01";

/// `Content-Type` of a framed batch response.
pub const BATCH_CONTENT_TYPE: &str = "application/x-uops-batch";

/// Which [`ResultEncoder`] a request selects (the `format=` parameter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Encoding {
    /// JSON (the default): snapshot-shaped record objects.
    #[default]
    Json,
    /// Compact TLV binary sharing the snapshot codec's record messages.
    Binary,
    /// uops.info-style grouped XML.
    Xml,
}

impl Encoding {
    /// Parses the wire spelling (`json`, `binary`, `xml`).
    #[must_use]
    pub fn from_wire_name(s: &str) -> Option<Encoding> {
        match s {
            "json" => Some(Encoding::Json),
            "binary" => Some(Encoding::Binary),
            "xml" => Some(Encoding::Xml),
            _ => None,
        }
    }

    /// The canonical wire spelling.
    #[must_use]
    pub fn wire_name(self) -> &'static str {
        match self {
            Encoding::Json => "json",
            Encoding::Binary => "binary",
            Encoding::Xml => "xml",
        }
    }

    fn content_type(self) -> &'static str {
        match self {
            Encoding::Json => JsonEncoder.content_type(),
            Encoding::Binary => BinaryEncoder.content_type(),
            Encoding::Xml => XmlEncoder.content_type(),
        }
    }
}

/// Which serving tier produced a [`ServiceResponse`] — the raw fast lane,
/// the fingerprint cache, or the full execute-and-encode pipeline.
///
/// Set at response construction (no racy counter-delta inference) so the
/// transport can attribute its latency measurement to the tier that did
/// the work, and the access log can report it per request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResponseTier {
    /// Served from the raw fast lane (verbatim-target cache hit).
    Raw,
    /// Served from the fingerprint tier (canonical-plan cache hit).
    Fingerprint,
    /// Executed and encoded on this request (cache miss or uncacheable).
    Uncached,
    /// Not a query-pipeline response (errors, stats, exposition).
    #[default]
    Untiered,
}

impl ResponseTier {
    /// Stable wire/label spelling (`raw`, `fingerprint`, `uncached`, `none`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ResponseTier::Raw => "raw",
            ResponseTier::Fingerprint => "fingerprint",
            ResponseTier::Uncached => "uncached",
            ResponseTier::Untiered => "none",
        }
    }
}

/// A fully encoded response: what a transport writes to the client and
/// what the cache stores (sans status, which is always 200 for cacheable
/// responses).
#[derive(Debug, Clone)]
pub struct ServiceResponse {
    /// HTTP-style status code (200, 400, 404).
    pub status: u16,
    /// MIME type of `body`.
    pub content_type: &'static str,
    /// The strong entity tag — plan fingerprint ⊕ store content hash — for
    /// cacheable results; `None` for errors and the (self-invalidating)
    /// stats payload. A transport renders it as `ETag: "%016x"` and
    /// answers a matching `If-None-Match` with `304 Not Modified`.
    pub etag: Option<u64>,
    /// Encoded payload; shared with the cache on hits.
    pub body: Arc<[u8]>,
    /// Which serving tier produced this response.
    pub tier: ResponseTier,
    /// The store generation the body was produced against (`0` for
    /// errors and other untiered payloads). The raw fast lane stamps its
    /// entries with this, so a response from a pre-swap generation can
    /// never enter the lane after the swap's flush.
    pub generation: u64,
}

impl ServiceResponse {
    fn ok(cached: CachedResponse, tier: ResponseTier) -> ServiceResponse {
        ServiceResponse {
            status: 200,
            content_type: cached.content_type,
            etag: Some(cached.etag),
            generation: cached.generation,
            body: cached.body,
            tier,
        }
    }

    /// A JSON error response with the given status.
    #[must_use]
    pub fn error(status: u16, message: &str) -> ServiceResponse {
        let mut body = String::with_capacity(message.len() + 16);
        body.push_str("{\"error\": ");
        uops_db::json::escape_into(&mut body, message);
        body.push_str("}\n");
        ServiceResponse {
            status,
            content_type: "application/json",
            etag: None,
            body: Arc::from(body.into_bytes().as_slice()),
            tier: ResponseTier::Untiered,
            generation: 0,
        }
    }
}

/// One live generation of the served data: the segment, whose cached
/// content hash seeds every ETag, and the generation id (0 until the first
/// swap).
/// Held behind a [`SwapCell`] so each request pins exactly one coherent
/// generation at entry — body, ETag, and cache stamp all come from it —
/// while a [`QueryService::swap_segment`] replaces the cell for new
/// requests without blocking anyone.
struct LiveStore {
    /// The served image. A [`StreamBody`] clones the `Arc` so chunk
    /// emission can re-view records after the response has left the
    /// service.
    segment: Arc<Segment>,
    id: u64,
}

/// Why the service refused to run the uncached pipeline for a request.
///
/// Shedding is the *graceful* half of overload control: cache hits (both
/// tiers) keep serving untouched, and only new compute-bound work is
/// turned away with a preformatted, never-cached 503 (the transport adds
/// `Retry-After`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shed {
    /// The request's deadline budget was already spent before (or between)
    /// the execute/encode stages.
    Deadline,
    /// Admitting another uncached execution would exceed
    /// [`QueryService::set_max_uncached_inflight`].
    Capacity,
}

/// The per-request deadline budget, threaded transport → service through a
/// thread-local (a shard answers a request start-to-finish on its one
/// thread, and this keeps the `produce` closures signature-stable — the
/// same pattern as [`stage_scratch`]).
pub(crate) mod deadline {
    use std::cell::Cell;
    use std::time::Instant;

    thread_local! {
        static DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
    }

    /// Arms (or clears, with `None`) the calling thread's deadline. The
    /// transport calls this as each request starts being answered.
    pub(crate) fn set(deadline: Option<Instant>) {
        DEADLINE.with(|d| d.set(deadline));
    }

    /// Whether the armed deadline has passed. Unarmed (`None`) never
    /// expires.
    pub(crate) fn exceeded() -> bool {
        DEADLINE.with(|d| d.get().is_some_and(|at| Instant::now() >= at))
    }
}

/// Dropping the guard releases one admitted uncached execution.
struct UncachedGuard<'a>(&'a QueryService);

impl Drop for UncachedGuard<'_> {
    fn drop(&mut self) {
        self.0.uncached_inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Counter snapshot of a [`QueryService`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Fingerprint-tier cache counters (hits / misses / evictions /
    /// occupancy), keyed by the canonical plan fingerprint.
    pub cache: CacheStats,
    /// Raw fast-lane counters, keyed by the verbatim request target. A
    /// raw hit skips percent-decoding, plan parsing, canonicalization,
    /// and fingerprinting on top of what a fingerprint hit skips.
    pub raw: CacheStats,
    /// Times the query executor actually ran a plan.
    pub executions: u64,
    /// Times a result encoder actually produced bytes.
    pub encodes: u64,
}

/// The transport-agnostic query service. See the module docs.
pub struct QueryService {
    /// The generation-swapped live store. Reading it is allocation-free
    /// (epoch load + slot guard + `Arc` bump); swapping it is
    /// [`QueryService::swap_segment`].
    live: SwapCell<LiveStore>,
    /// Serializes swappers so the monotonic-generation check and the cell
    /// swap are one atomic step.
    swap_lock: Mutex<()>,
    cache: ResponseCache,
    /// The raw fast lane: verbatim request targets → encoded responses.
    /// Entries share their body `Arc` with the fingerprint tier, so the
    /// double-counted byte budget buys index entries, not body copies.
    raw_cache: ResponseCache,
    /// Generation swaps performed over this service's lifetime.
    swaps: Counter,
    /// Cache-tier flushes performed by swaps (two per swap: fingerprint
    /// tier + raw lane).
    cache_flushes: Counter,
    /// Segment images quarantined by store recovery, surfaced here so the
    /// serving process exposes them (`uops_store_quarantined_total`).
    quarantined: Counter,
    executions: Counter,
    encodes: Counter,
    /// Per-stage latency histograms (parse / execute / encode), recorded
    /// by `Span` guards on the uncached path. Wait-free and
    /// allocation-free; exposed via [`QueryService::exec_stage_metrics`]
    /// for `/metrics` registration and summarized as percentile estimates
    /// in the stats JSON.
    exec_stages: ExecStageMetrics,
    /// Uncached executions currently in flight (admission gauge).
    uncached_inflight: AtomicUsize,
    /// Admission ceiling for concurrent uncached executions; `0` means
    /// unlimited (the default).
    max_uncached_inflight: AtomicUsize,
    /// Requests shed because their deadline budget ran out.
    shed_deadline: Counter,
    /// Requests shed because the uncached-execution ceiling was reached.
    shed_capacity: Counter,
    /// Result-page row count above which a query switches to chunked
    /// streaming instead of a cached whole-body response; `0` disables
    /// streaming entirely.
    stream_threshold: AtomicUsize,
    /// Transport-installed hook appending extra top-level fields to the
    /// `/v1/stats` JSON (e.g. the reactor's per-shard connection skew).
    /// The service itself stays transport-agnostic; cold path only.
    stats_ext: RwLock<Option<Box<dyn Fn(&mut String) + Send + Sync>>>,
}

impl std::fmt::Debug for QueryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryService")
            .field("records", &self.record_count())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Default number of cache shards. More shards than serving threads keeps
/// the probability of two in-flight requests contending on one mutex low.
const CACHE_SHARDS: usize = 16;

/// Default [`QueryService::set_stream_threshold`]: result pages up to
/// this many rows materialize and cache as today; larger pages stream.
const DEFAULT_STREAM_THRESHOLD: usize = 4096;

/// Target payload bytes per streamed chunk — the fixed working-set size
/// of a chunked export, independent of result size.
pub const STREAM_CHUNK_BYTES: usize = 64 * 1024;

impl QueryService {
    /// Serves a zero-copy segment with a response cache of
    /// `cache_capacity_bytes` (0 disables caching) and a raw fast lane a
    /// quarter that size (raw entries share their bodies with the
    /// fingerprint tier, so the extra budget buys index entries only).
    #[must_use]
    pub fn from_segment(segment: Arc<Segment>, cache_capacity_bytes: usize) -> QueryService {
        // The content hash pins ETags to the exact data being served. The
        // segment caches it, so an image the generation store already
        // hashed for its manifest is not hashed again here or on a swap.
        let _ = segment.content_hash();
        QueryService {
            live: SwapCell::new(Arc::new(LiveStore { segment, id: 0 })),
            swap_lock: Mutex::new(()),
            cache: ResponseCache::new(cache_capacity_bytes, CACHE_SHARDS),
            raw_cache: ResponseCache::new(cache_capacity_bytes / 4, CACHE_SHARDS),
            swaps: Counter::new(),
            cache_flushes: Counter::new(),
            quarantined: Counter::new(),
            executions: Counter::new(),
            encodes: Counter::new(),
            exec_stages: ExecStageMetrics::new(),
            uncached_inflight: AtomicUsize::new(0),
            max_uncached_inflight: AtomicUsize::new(0),
            shed_deadline: Counter::new(),
            shed_capacity: Counter::new(),
            stream_threshold: AtomicUsize::new(DEFAULT_STREAM_THRESHOLD),
            stats_ext: RwLock::new(None),
        }
    }

    /// Atomically replaces the served segment with `segment` as generation
    /// `generation`, flushing both cache tiers so no pre-swap bytes are
    /// served afterwards. In-flight requests finish on the generation they
    /// pinned at entry; their late cache inserts are rejected by the
    /// generation stamp. Returns `false` (and does nothing) unless
    /// `generation` is strictly newer than the live one — a stale swap
    /// completing out of order must not roll the service back.
    pub fn swap_segment(&self, segment: Arc<Segment>, generation: u64) -> bool {
        let _swapper = self.swap_lock.lock().expect("swap lock");
        if generation <= self.live.load().id {
            return false;
        }
        // Warm the hash cache before the swap, so no request pays for it; a
        // generation the store published is already hashed.
        let _ = segment.content_hash();
        self.live.swap(Arc::new(LiveStore { segment, id: generation }));
        self.cache.advance_epoch(generation);
        self.raw_cache.advance_epoch(generation);
        self.swaps.inc();
        self.cache_flushes.add(2);
        true
    }

    /// The live generation id (`0` until the first swap).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.live.load().id
    }

    /// The live swap counter (for telemetry registration).
    #[must_use]
    pub fn swaps_counter(&self) -> &Counter {
        &self.swaps
    }

    /// The live cache-flush counter — two per swap (for telemetry
    /// registration).
    #[must_use]
    pub fn cache_flushes_counter(&self) -> &Counter {
        &self.cache_flushes
    }

    /// The live quarantine counter (for telemetry registration).
    #[must_use]
    pub fn quarantined_counter(&self) -> &Counter {
        &self.quarantined
    }

    /// Records `n` quarantined segment images (the serve binary feeds the
    /// store-recovery count in at boot).
    pub fn note_quarantined(&self, n: u64) {
        self.quarantined.add(n);
    }

    /// Installs a hook that appends extra top-level fields to the
    /// `/v1/stats` JSON. The hook receives the body with the final
    /// closing brace stripped and must append `,\n  "key": value` pairs
    /// only; the service re-closes the object. Used by the reactor
    /// transport to surface per-shard connection skew without teaching
    /// the service about transports.
    pub fn set_stats_extension(&self, ext: impl Fn(&mut String) + Send + Sync + 'static) {
        *self.stats_ext.write().expect("stats ext lock") = Some(Box::new(ext));
    }

    /// Sets the streaming threshold: result pages with more rows than
    /// `rows` answer as a chunked stream in O(chunk) memory instead of a
    /// cached whole body. `0` disables streaming (every result
    /// materializes, the pre-streaming behavior).
    pub fn set_stream_threshold(&self, rows: usize) {
        self.stream_threshold.store(rows, Ordering::Relaxed);
    }

    /// The configured streaming threshold (`0` = streaming disabled).
    #[must_use]
    pub fn stream_threshold(&self) -> usize {
        self.stream_threshold.load(Ordering::Relaxed)
    }

    /// Caps concurrent *uncached* (execute + encode) requests at `limit`;
    /// `0` removes the cap. Excess requests are shed with a preformatted
    /// 503 while both cache tiers keep serving — the degradation order
    /// under overload is "new compute first, cached answers last".
    pub fn set_max_uncached_inflight(&self, limit: usize) {
        self.max_uncached_inflight.store(limit, Ordering::Relaxed);
    }

    /// The configured uncached-execution ceiling (`0` = unlimited).
    #[must_use]
    pub fn max_uncached_inflight(&self) -> usize {
        self.max_uncached_inflight.load(Ordering::Relaxed)
    }

    /// Uncached executions in flight right now (the admission gauge).
    #[must_use]
    pub fn uncached_inflight(&self) -> usize {
        self.uncached_inflight.load(Ordering::Relaxed)
    }

    /// Requests shed on a spent deadline budget (for telemetry
    /// registration).
    #[must_use]
    pub fn shed_deadline_counter(&self) -> &Counter {
        &self.shed_deadline
    }

    /// Requests shed at the uncached-execution ceiling (for telemetry
    /// registration).
    #[must_use]
    pub fn shed_capacity_counter(&self) -> &Counter {
        &self.shed_capacity
    }

    /// The per-stage (parse / execute / encode) latency histograms of the
    /// uncached pipeline, for telemetry registration.
    #[must_use]
    pub fn exec_stage_metrics(&self) -> &ExecStageMetrics {
        &self.exec_stages
    }

    /// The fingerprint-tier cache (for telemetry registration).
    #[must_use]
    pub fn fingerprint_cache(&self) -> &ResponseCache {
        &self.cache
    }

    /// The raw fast-lane cache (for telemetry registration).
    #[must_use]
    pub fn raw_lane_cache(&self) -> &ResponseCache {
        &self.raw_cache
    }

    /// The live plan-execution counter (for telemetry registration).
    #[must_use]
    pub fn executions_counter(&self) -> &Counter {
        &self.executions
    }

    /// The live result-encode counter (for telemetry registration).
    #[must_use]
    pub fn encodes_counter(&self) -> &Counter {
        &self.encodes
    }

    /// The image hash ([`uops_db::image_hash`]) of the live segment image
    /// — the second half of every response ETag. Changes iff the served data changes
    /// (including on every generation swap).
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        self.live.load().segment.content_hash()
    }

    /// Looks up the raw fast lane: the response cached under the verbatim
    /// request target, skipping percent-decoding, plan parsing,
    /// canonicalization, and fingerprinting entirely. Collision-safe like
    /// the fingerprint tier (the stored target must match byte-for-byte).
    /// Allocation-free: a hit is a hash, a map probe, and an `Arc` bump.
    #[must_use]
    pub fn raw_response(&self, target: &str) -> Option<ServiceResponse> {
        self.raw_cache
            .get(fnv1a_64(target.as_bytes()), target)
            .map(|hit| ServiceResponse::ok(hit, ResponseTier::Raw))
    }

    /// Stores a 200 response in the raw fast lane under the verbatim
    /// request target. The transport calls this after a fast-lane miss
    /// was answered by the full routing pipeline; errors and uncacheable
    /// endpoints must not be stored (the router decides).
    pub fn raw_store(&self, target: &str, response: &ServiceResponse) {
        let Some(etag) = response.etag else { return };
        if response.status != 200 {
            return;
        }
        self.raw_cache.insert(
            fnv1a_64(target.as_bytes()),
            target,
            CachedResponse {
                content_type: response.content_type,
                etag,
                body: Arc::clone(&response.body),
                generation: response.generation,
            },
        );
    }

    /// Number of records in the live segment.
    #[must_use]
    pub fn record_count(&self) -> usize {
        self.live.load().segment.len()
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            cache: self.cache.stats(),
            raw: self.raw_cache.stats(),
            executions: self.executions.get(),
            encodes: self.encodes.get(),
        }
    }

    /// Answers a query request: cache lookup on the canonical plan string,
    /// then (on a miss) plan execution + encoding, with the encoded bytes
    /// inserted for the next identical request. Never streams.
    pub fn query(&self, plan: &QueryPlan, encoding: Encoding) -> ServiceResponse {
        self.planned("q/", plan, encoding, usize::MAX).into_whole()
    }

    /// [`QueryService::query`] with large-result streaming: when the
    /// executed page has more rows than the streaming threshold (and the
    /// encoding can stream — XML groups rows and cannot), the reply is a
    /// [`StreamBody`] whose chunks the transport emits in O(chunk)
    /// memory. Everything else — smaller pages, cache hits, sheds —
    /// answers whole-body exactly as [`QueryService::query`] does.
    /// Streamed replies bypass both cache tiers and carry no ETag (their
    /// bytes are never materialized in one place to tag).
    pub fn query_streaming(&self, plan: &QueryPlan, encoding: Encoding) -> QueryReply {
        let threshold = self.stream_threshold();
        let stream_over =
            if threshold == 0 || encoding == Encoding::Xml { usize::MAX } else { threshold };
        self.planned("q/", plan, encoding, stream_over)
    }

    /// Answers a record request (`/v1/record/{mnemonic}`): all records for
    /// a mnemonic, optionally narrowed by `uarch`. Runs through the same
    /// plan/exec/encode pipeline (and cache) as [`QueryService::query`].
    pub fn record(
        &self,
        mnemonic: &str,
        uarch: Option<&str>,
        encoding: Encoding,
    ) -> ServiceResponse {
        let mut plan = uops_db::Query::new().mnemonic(mnemonic);
        if let Some(uarch) = uarch {
            plan = plan.uarch(uarch);
        }
        self.planned("r/", &plan.into_plan(), encoding, usize::MAX).into_whole()
    }

    /// Answers a cross-µarch diff request.
    pub fn diff(&self, base: &str, other: &str, encoding: Encoding) -> ServiceResponse {
        let live = self.live.load();
        let request = format!(
            "d/{}?base={}&other={}",
            encoding.wire_name(),
            uops_db::plan::encode_component(base),
            uops_db::plan::encode_component(other),
        );
        self.cached(&live, &request, encoding, || {
            self.encodes.inc();
            Ok(encode_diff(&diff_uarches(&live.segment.db(), base, other), encoding))
        })
        .into_whole()
    }

    /// The `/v1/stats` payload: service + cache counters and store
    /// metadata as JSON. Never cached (it would invalidate itself) and
    /// never tagged (no ETag — a 304 for stats would be wrong).
    #[must_use]
    pub fn stats_response(&self) -> ServiceResponse {
        let stats = self.stats();
        let tier = |s: &CacheStats| {
            format!(
                "{{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \"uncacheable\": {}, \
                 \"entries\": {}, \"bytes\": {}, \"capacity_bytes\": {}}}",
                s.hits, s.misses, s.evictions, s.uncacheable, s.entries, s.bytes, s.capacity_bytes,
            )
        };
        // Percentile estimates derived from the stage histograms' log₂
        // buckets. Additive: every pre-telemetry key above is unchanged.
        let stage = |h: &Histogram| {
            format!(
                "{{\"count\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}",
                h.count(),
                h.quantile(0.50),
                h.quantile(0.99),
                h.max(),
            )
        };
        let mut body = format!(
            "{{\n  \"records\": {},\n  \"generation\": {},\n  \"cache\": {},\n  \
             \"raw\": {},\n  \
             \"executions\": {},\n  \"encodes\": {},\n  \
             \"stages\": {{\"parse\": {}, \"execute\": {}, \"encode\": {}}},\n  \
             \"overload\": {{\"shed_deadline\": {}, \"shed_capacity\": {}, \
             \"uncached_inflight\": {}, \"max_uncached_inflight\": {}}},\n  \
             \"store\": {{\"generation\": {}, \"swaps\": {}, \"cache_flushes\": {}, \
             \"quarantined\": {}}}",
            self.record_count(),
            self.generation(),
            tier(&stats.cache),
            tier(&stats.raw),
            stats.executions,
            stats.encodes,
            stage(&self.exec_stages.parse_ns),
            stage(&self.exec_stages.execute_ns),
            stage(&self.exec_stages.encode_ns),
            self.shed_deadline.get(),
            self.shed_capacity.get(),
            self.uncached_inflight(),
            self.max_uncached_inflight(),
            self.generation(),
            self.swaps.get(),
            self.cache_flushes.get(),
            self.quarantined.get(),
        );
        if let Some(ext) = self.stats_ext.read().expect("stats ext lock").as_ref() {
            ext(&mut body);
        }
        body.push_str("\n}\n");
        ServiceResponse {
            status: 200,
            content_type: "application/json",
            etag: None,
            body: Arc::from(body.into_bytes().as_slice()),
            tier: ResponseTier::Untiered,
            generation: 0,
        }
    }

    /// Parses a wire query string into a plan and answers it; parse errors
    /// become 400 responses.
    pub fn query_wire(&self, query_string: &str, encoding: Encoding) -> ServiceResponse {
        match self.parse_stage(|| QueryPlan::parse(query_string)) {
            Ok(plan) => self.query(&plan, encoding),
            Err(DbError::Plan { message }) => ServiceResponse::error(400, &message),
            Err(other) => ServiceResponse::error(400, &other.to_string()),
        }
    }

    /// Runs `parse` — building a [`QueryPlan`] from the request — as the
    /// pipeline's parse stage, timed into the `parse` histogram and the
    /// request's stage scratch.
    pub(crate) fn parse_stage(
        &self,
        parse: impl FnOnce() -> Result<QueryPlan, DbError>,
    ) -> Result<QueryPlan, DbError> {
        let span = Span::start(&self.exec_stages.parse_ns);
        let parsed = parse();
        stage_scratch::set_parse(span.finish());
        parsed
    }

    /// Admits one uncached execution against the configured ceiling and
    /// the request's deadline budget, or sheds. The returned guard
    /// releases the slot on drop (including on panic and on a
    /// mid-pipeline deadline shed).
    fn admit_uncached(&self) -> Result<UncachedGuard<'_>, Shed> {
        let limit = self.max_uncached_inflight.load(Ordering::Relaxed);
        let mut current = self.uncached_inflight.load(Ordering::Relaxed);
        let admitted = loop {
            if limit != 0 && current >= limit {
                return Err(Shed::Capacity);
            }
            match self.uncached_inflight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break UncachedGuard(self),
                Err(live) => current = live,
            }
        };
        if deadline::exceeded() {
            return Err(Shed::Deadline);
        }
        Ok(admitted)
    }

    /// The preformatted 503 for a shed request: a static body shared by
    /// `Arc` clone (no allocation on the shed path), never tagged, never
    /// cached (no `etag`, and [`QueryService::cached`] skips insertion).
    /// Also the single place shed counters are bumped.
    fn shed_response(&self, shed: Shed) -> ServiceResponse {
        match shed {
            Shed::Deadline => self.shed_deadline.inc(),
            Shed::Capacity => self.shed_capacity.inc(),
        }
        static SHED_BODY: OnceLock<Arc<[u8]>> = OnceLock::new();
        let body = SHED_BODY
            .get_or_init(|| Arc::from(&b"{\"error\": \"server overloaded, retry shortly\"}\n"[..]));
        ServiceResponse {
            status: 503,
            content_type: "application/json",
            etag: None,
            body: Arc::clone(body),
            tier: ResponseTier::Untiered,
            generation: 0,
        }
    }

    /// The query pipeline: probes the fingerprint tier under `request`,
    /// and on a miss [`fills`](QueryService::fill) it with what `produce`
    /// returns.
    fn cached(
        &self,
        live: &LiveStore,
        request: &str,
        encoding: Encoding,
        produce: impl FnOnce() -> Result<Vec<u8>, QueryReply>,
    ) -> QueryReply {
        let key = fnv1a_64(request.as_bytes());
        if let Some(hit) = self.cache.get(key, request) {
            return QueryReply::Full(ServiceResponse::ok(hit, ResponseTier::Fingerprint));
        }
        self.fill(live, key, request, encoding, produce)
    }

    /// The miss half of the pipeline, shared by single requests and batch
    /// misses: admission, then `produce`, then the fingerprint-tier
    /// insert. `produce` ends the request early with `Err` — a shed, or a
    /// page large enough to stream — and neither enters a cache tier: the
    /// next request for this key runs the pipeline again.
    fn fill(
        &self,
        live: &LiveStore,
        key: u64,
        request: &str,
        encoding: Encoding,
        produce: impl FnOnce() -> Result<Vec<u8>, QueryReply>,
    ) -> QueryReply {
        let _admitted = match self.admit_uncached() {
            Ok(admitted) => admitted,
            Err(shed) => return QueryReply::Full(self.shed_response(shed)),
        };
        let body = match produce() {
            Ok(bytes) => Arc::from(bytes.as_slice()),
            Err(early) => return early,
        };
        // ETag = canonical-request fingerprint ⊕ store content hash: two
        // spellings of the same plan share one tag, and every tag changes
        // when the served data changes. Hash and generation stamp come
        // from the pinned generation the bytes were produced against, so
        // body and tag are always one coherent generation even when a
        // swap lands mid-request.
        let cached = CachedResponse {
            content_type: encoding.content_type(),
            etag: key ^ live.segment.content_hash(),
            body,
            generation: live.id,
        };
        self.cache.insert(key, request, cached.clone());
        QueryReply::Full(ServiceResponse::ok(cached, ResponseTier::Uncached))
    }

    /// Runs a plan through the pipeline under the cache key
    /// `<kind><encoding>?<canonical plan>`; a page of more than
    /// `stream_over` rows streams.
    fn planned(
        &self,
        kind: &str,
        plan: &QueryPlan,
        encoding: Encoding,
        stream_over: usize,
    ) -> QueryReply {
        let live = self.live.load();
        let mut request = String::with_capacity(64);
        request.push_str(kind);
        request.push_str(encoding.wire_name());
        request.push('?');
        plan.push_query_string(&mut request);
        self.cached(&live, &request, encoding, || self.execute(&live, plan, encoding, stream_over))
    }

    /// Executes a plan to its page of record ids, then views and encodes
    /// those rows (counted — a cache hit never reaches this). Both stages
    /// run under `Span` guards: the elapsed nanoseconds land in the stage
    /// histograms and, via the thread-local stage scratch, in the sampled
    /// access log of the request being served. A page of more than
    /// `stream_over` rows is not encoded here but returned as a
    /// [`StreamBody`]; otherwise the deadline budget is checked again
    /// between the stages, so a request that ran out of budget
    /// mid-pipeline stops before paying for encoding.
    fn execute(
        &self,
        live: &LiveStore,
        plan: &QueryPlan,
        encoding: Encoding,
        stream_over: usize,
    ) -> Result<Vec<u8>, QueryReply> {
        self.executions.inc();
        let db = live.segment.db();
        let span = Span::start(&self.exec_stages.execute_ns);
        let (total_matches, ids) = QueryExec::new().run_ids(plan, &db);
        stage_scratch::set_execute(span.finish());
        if ids.len() > stream_over {
            self.encodes.inc();
            return Err(QueryReply::Stream(StreamBody {
                segment: Arc::clone(&live.segment),
                encoding,
                total: total_matches,
                ids,
                at: 0,
                begun: false,
                done: false,
                json: String::new(),
            }));
        }
        if deadline::exceeded() {
            return Err(QueryReply::Full(self.shed_response(Shed::Deadline)));
        }
        self.encodes.inc();
        let span = Span::start(&self.exec_stages.encode_ns);
        let rows = ids.into_iter().map(|id| db.view(id)).collect();
        let bytes = encode_result(&QueryResult { total_matches, rows }, encoding);
        stage_scratch::set_encode(span.finish());
        Ok(bytes)
    }

    /// Answers a `POST /v1/batch` body: N plans in, one framed
    /// multi-response out (see [`BATCH_RESPONSE_MAGIC`] for the frame
    /// layout). Per-plan flow: a piecewise fingerprint-tier probe on the
    /// verbatim line (allocation-free when the line is canonical — the
    /// warm steady state), a reprobe under the canonical spelling, then
    /// the misses share one [`BatchExec`] pass so repeated symbols and
    /// posting lists resolve once per batch instead of once per plan.
    /// Each miss's encoded body enters the fingerprint tier under the
    /// same key a single request would use, so batches and singles warm
    /// each other. Plan-level failures (parse errors, sheds) become
    /// per-plan status frames; only an unparseable *body* fails the batch.
    ///
    /// `out` and `scratch` are per-connection reusables — on the all-hits
    /// steady state this method allocates nothing.
    ///
    /// # Errors
    ///
    /// A whole-batch error response (400): non-UTF-8 text body, malformed
    /// TLV framing, or an empty batch.
    pub fn batch(
        &self,
        body: &[u8],
        encoding: Encoding,
        out: &mut BatchBody,
        scratch: &mut BatchScratch,
    ) -> Result<(), ServiceResponse> {
        scratch.responses.clear();
        scratch.misses.clear();
        scratch.requests.clear();
        if body.starts_with(&BATCH_REQUEST_MAGIC) {
            let mut at = BATCH_REQUEST_MAGIC.len();
            while at < body.len() {
                let Some(len) = read_varint(body, &mut at) else {
                    return Err(ServiceResponse::error(400, "malformed batch varint"));
                };
                let Some(end) = at.checked_add(len as usize).filter(|&end| end <= body.len())
                else {
                    return Err(ServiceResponse::error(400, "batch plan length out of bounds"));
                };
                match std::str::from_utf8(&body[at..end]) {
                    Ok(line) => self.batch_plan(line, encoding, scratch),
                    Err(_) => push_error(scratch, 400, "plan string is not UTF-8"),
                }
                at = end;
            }
        } else {
            let Ok(text) = std::str::from_utf8(body) else {
                return Err(ServiceResponse::error(400, "batch body is not UTF-8"));
            };
            for line in text.lines() {
                self.batch_plan(line, encoding, scratch);
            }
        }
        if scratch.responses.is_empty() {
            return Err(ServiceResponse::error(400, "empty batch"));
        }
        if !scratch.misses.is_empty() {
            self.run_batch_misses(&self.live.load(), encoding, scratch);
        }
        out.clear();
        out.frames.extend_from_slice(&BATCH_RESPONSE_MAGIC);
        out.frames.extend_from_slice(
            &u32::try_from(scratch.responses.len()).unwrap_or(u32::MAX).to_le_bytes(),
        );
        out.header = 0..out.frames.len();
        for (status, body) in scratch.responses.drain(..) {
            let start = out.frames.len();
            out.frames.extend_from_slice(&status.to_le_bytes());
            out.frames
                .extend_from_slice(&u32::try_from(body.len()).unwrap_or(u32::MAX).to_le_bytes());
            out.parts.push(BatchPart { frame: start..out.frames.len(), body });
        }
        Ok(())
    }

    /// One batch plan's cache-probe phase: piecewise probe on the
    /// verbatim line, then parse + canonical reprobe, else queue a miss.
    fn batch_plan(&self, line: &str, encoding: Encoding, scratch: &mut BatchScratch) {
        let parts: [&[u8]; 4] = [b"q/", encoding.wire_name().as_bytes(), b"?", line.as_bytes()];
        if let Some(hit) = self.cache.get_parts(fnv1a_64_parts(&parts), &parts) {
            scratch.responses.push((200, hit.body));
            return;
        }
        let plan = match QueryPlan::parse(line) {
            Ok(plan) => plan,
            Err(DbError::Plan { message }) => return push_error(scratch, 400, &message),
            Err(other) => return push_error(scratch, 400, &other.to_string()),
        };
        // Build the cache-key string (`q/<encoding>?<canonical>`) straight
        // into the scratch arena — no per-plan String allocations.
        let start = scratch.requests.len();
        scratch.requests.push_str("q/");
        scratch.requests.push_str(encoding.wire_name());
        scratch.requests.push('?');
        let query_at = scratch.requests.len();
        plan.push_query_string(&mut scratch.requests);
        let request = start..scratch.requests.len();
        if scratch.requests[query_at..] != *line {
            let key = &scratch.requests.as_bytes()[request.clone()];
            let parts: [&[u8]; 1] = [key];
            if let Some(hit) = self.cache.get_parts(fnv1a_64_parts(&parts), &parts) {
                scratch.requests.truncate(start);
                scratch.responses.push((200, hit.body));
                return;
            }
        }
        let index = scratch.responses.len();
        scratch.responses.push((0, empty_body()));
        scratch.misses.push(BatchMiss { index, plan, request });
    }

    /// Executes every queued batch miss through one shared [`BatchExec`]
    /// (memoized symbol resolution and posting lists), each filling its
    /// own fingerprint-tier entry through [`QueryService::fill`] — the
    /// same admission, key, ETag and generation stamp as a single miss.
    /// Admission and the deadline budget are checked per plan, so a batch
    /// that runs out mid-way sheds its tail instead of blowing the budget.
    fn run_batch_misses(&self, live: &LiveStore, encoding: Encoding, scratch: &mut BatchScratch) {
        let db = live.segment.db();
        let mut exec = BatchExec::new(&db);
        let (mut execute_ns, mut encode_ns) = (0u64, 0u64);
        let mut ran = 0u64;
        for miss in &scratch.misses {
            let request = &scratch.requests[miss.request.clone()];
            let reply = self.fill(live, fnv1a_64(request.as_bytes()), request, encoding, || {
                ran += 1;
                let run_at = std::time::Instant::now();
                let result = exec.run(&miss.plan);
                let encode_at = std::time::Instant::now();
                let bytes = encode_result(&result, encoding);
                execute_ns += encode_at.duration_since(run_at).as_nanos() as u64;
                encode_ns += encode_at.elapsed().as_nanos() as u64;
                Ok(bytes)
            });
            let response = reply.into_whole();
            scratch.responses[miss.index] = (response.status, response.body);
        }
        // Request-level stage timings cover the whole miss loop (this is
        // one HTTP request); the histograms get the same totals — one
        // sample per batch, not one per plan.
        self.executions.add(ran);
        self.encodes.add(ran);
        self.exec_stages.execute_ns.record(execute_ns);
        self.exec_stages.encode_ns.record(encode_ns);
        stage_scratch::set_execute(execute_ns);
        stage_scratch::set_encode(encode_ns);
    }
}

/// A query answer that is either a whole-body [`ServiceResponse`] or a
/// [`StreamBody`] the transport drains chunk by chunk.
pub enum QueryReply {
    /// Materialized response — write it like any other.
    Full(ServiceResponse),
    /// Large result: emit as `Transfer-Encoding: chunked` in O(chunk)
    /// memory.
    Stream(StreamBody),
}

impl QueryReply {
    /// The response of a request asked for without streaming.
    pub(crate) fn into_whole(self) -> ServiceResponse {
        match self {
            QueryReply::Full(response) => response,
            QueryReply::Stream(_) => unreachable!("a never-stream request streamed"),
        }
    }
}

/// A lazily encoded large result: the matching record ids plus an `Arc`
/// of the segment. Each [`StreamBody::next_chunk`] call re-views a window
/// of ids into a caller-provided chunk buffer, so memory stays
/// O([`STREAM_CHUNK_BYTES`]) no matter how large the export is. The
/// chunk sequence concatenates to exactly the bytes the whole-body
/// encoder would have produced (the encoders' `begin_stream` /
/// `stream_row` / `end_stream` pieces are what `encode_rows` itself is
/// built from).
pub struct StreamBody {
    segment: Arc<Segment>,
    encoding: Encoding,
    total: usize,
    ids: Vec<u32>,
    at: usize,
    begun: bool,
    done: bool,
    /// JSON streaming scratch (the JSON encoder writes `String`).
    json: String,
}

impl std::fmt::Debug for StreamBody {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamBody")
            .field("encoding", &self.encoding.wire_name())
            .field("rows", &self.ids.len())
            .field("at", &self.at)
            .finish()
    }
}

impl StreamBody {
    /// MIME type of the streamed payload.
    #[must_use]
    pub fn content_type(&self) -> &'static str {
        self.encoding.content_type()
    }

    /// Rows this stream will emit (the page size, after limit/offset).
    #[must_use]
    pub fn row_count(&self) -> usize {
        self.ids.len()
    }

    /// Fills `chunk` (cleared first) with the next ~[`STREAM_CHUNK_BYTES`]
    /// of payload. Returns `false` — leaving `chunk` empty — once the
    /// stream is exhausted; the transport then writes the terminal chunk.
    pub fn next_chunk(&mut self, chunk: &mut Vec<u8>) -> bool {
        chunk.clear();
        if self.done {
            return false;
        }
        let StreamBody { segment, encoding, total, ids, at, begun, done, json } = self;
        fill_chunk(&segment.db(), *encoding, *total, ids, at, begun, done, json, chunk);
        !chunk.is_empty()
    }
}

#[allow(clippy::too_many_arguments)]
fn fill_chunk(
    db: &SegmentDb<'_>,
    encoding: Encoding,
    total: usize,
    ids: &[u32],
    at: &mut usize,
    begun: &mut bool,
    done: &mut bool,
    json: &mut String,
    chunk: &mut Vec<u8>,
) {
    match encoding {
        Encoding::Json => {
            json.clear();
            if !*begun {
                JsonEncoder::begin_stream(total, json);
                *begun = true;
            }
            while *at < ids.len() && json.len() < STREAM_CHUNK_BYTES {
                let row = db.view(ids[*at]);
                JsonEncoder::stream_row(*at, &row, json);
                *at += 1;
            }
            if *at == ids.len() {
                JsonEncoder::end_stream(ids.len(), json);
                *done = true;
            }
            chunk.extend_from_slice(json.as_bytes());
        }
        Encoding::Binary => {
            if !*begun {
                BinaryEncoder::begin_stream(total, chunk);
                *begun = true;
            }
            while *at < ids.len() && chunk.len() < STREAM_CHUNK_BYTES {
                let row = db.view(ids[*at]);
                BinaryEncoder::stream_row(&row, chunk);
                *at += 1;
            }
            if *at == ids.len() {
                *done = true;
            }
        }
        Encoding::Xml => unreachable!("XML results never stream"),
    }
}

/// One queued batch miss: where its frame goes, the parsed plan, and the
/// canonical request string it will be cached under.
struct BatchMiss {
    index: usize,
    plan: QueryPlan,
    /// This miss's cache-key string (`q/<encoding>?<canonical>`) as a
    /// range into [`BatchScratch::requests`].
    request: std::ops::Range<usize>,
}

/// Per-connection reusable state for [`QueryService::batch`]: response
/// slots, the miss queue, and the request-key arena keep their capacity
/// across batches, so a warm batch allocates nothing.
#[derive(Default)]
pub struct BatchScratch {
    responses: Vec<(u16, Arc<[u8]>)>,
    misses: Vec<BatchMiss>,
    /// Arena of concatenated cache-key strings, one range per miss —
    /// one reusable buffer instead of two `String`s per missed plan.
    requests: String,
}

impl std::fmt::Debug for BatchScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchScratch").field("responses", &self.responses.len()).finish()
    }
}

/// The shared empty placeholder body for queued miss slots (never written
/// to the wire — every miss slot is overwritten before assembly). Also
/// the transport's placeholder body for batch and streamed responses,
/// whose payloads live outside [`ServiceResponse`].
pub(crate) fn empty_body() -> Arc<[u8]> {
    static EMPTY: OnceLock<Arc<[u8]>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Arc::from(&[][..])))
}

fn push_error(scratch: &mut BatchScratch, status: u16, message: &str) {
    let response = ServiceResponse::error(status, message);
    scratch.responses.push((response.status, response.body));
}

/// Reads one LEB128 varint from `bytes` at `*at`, advancing past it.
fn read_varint(bytes: &[u8], at: &mut usize) -> Option<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes.get(*at)?;
        *at += 1;
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

/// Encodes plan strings into the TLV batch-request shape
/// ([`BATCH_REQUEST_MAGIC`] + varint-length-prefixed plan strings) — the
/// client half of the binary batch protocol, used by tests and the
/// bench harness.
#[must_use]
pub fn encode_batch_request(plans: &[&str]) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        BATCH_REQUEST_MAGIC.len() + plans.iter().map(|p| p.len() + 2).sum::<usize>(),
    );
    out.extend_from_slice(&BATCH_REQUEST_MAGIC);
    for plan in plans {
        let mut n = plan.len() as u64;
        loop {
            let byte = (n & 0x7f) as u8;
            n >>= 7;
            if n == 0 {
                out.push(byte);
                break;
            }
            out.push(byte | 0x80);
        }
        out.extend_from_slice(plan.as_bytes());
    }
    out
}

/// Decodes a framed batch response into `(status, body)` pairs — the
/// client half of the response framing.
///
/// # Errors
///
/// A description of the framing violation (bad magic, truncated frame,
/// count mismatch).
pub fn decode_batch_response(bytes: &[u8]) -> Result<Vec<(u16, Vec<u8>)>, String> {
    if bytes.len() < 8 || bytes[..4] != BATCH_RESPONSE_MAGIC {
        return Err("missing batch response magic".into());
    }
    let count = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes")) as usize;
    let mut out = Vec::with_capacity(count);
    let mut at = 8;
    for _ in 0..count {
        let Some(frame) = bytes.get(at..at + 6) else {
            return Err("truncated batch frame".into());
        };
        let status = u16::from_le_bytes(frame[..2].try_into().expect("2 bytes"));
        let len = u32::from_le_bytes(frame[2..6].try_into().expect("4 bytes")) as usize;
        at += 6;
        let Some(body) = bytes.get(at..at + len) else {
            return Err("truncated batch body".into());
        };
        out.push((status, body.to_vec()));
        at += len;
    }
    if at != bytes.len() {
        return Err("trailing bytes after final batch frame".into());
    }
    Ok(out)
}

fn encode_result(result: &QueryResult<'_>, encoding: Encoding) -> Vec<u8> {
    match encoding {
        Encoding::Json => JsonEncoder.encode_result(result),
        Encoding::Binary => BinaryEncoder.encode_result(result),
        Encoding::Xml => XmlEncoder.encode_result(result),
    }
}

fn encode_diff(report: &uops_db::DiffReport, encoding: Encoding) -> Vec<u8> {
    match encoding {
        Encoding::Json => JsonEncoder.encode_diff(report),
        Encoding::Binary => BinaryEncoder.encode_diff(report),
        Encoding::Xml => XmlEncoder.encode_diff(report),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uops_db::{Query, Snapshot, VariantRecord};

    fn snapshot() -> Snapshot {
        let mut s = Snapshot::new("service test");
        for (m, uarch, mask) in [
            ("ADD", "Skylake", 0b0110_0011u16),
            ("ADC", "Skylake", 0b0100_0001),
            ("ADD", "Haswell", 0b0110_0011),
        ] {
            s.records.push(VariantRecord {
                mnemonic: m.into(),
                variant: "R64, R64".into(),
                extension: "BASE".into(),
                uarch: uarch.into(),
                uop_count: 1,
                ports: vec![(mask, 1)],
                tp_measured: 0.25,
                ..Default::default()
            });
        }
        s
    }

    fn service() -> QueryService {
        let segment = Segment::from_bytes(Segment::encode(&snapshot())).expect("segment");
        QueryService::from_segment(Arc::new(segment), 1 << 20)
    }

    fn plan(query_string: &str) -> QueryPlan {
        QueryPlan::parse(query_string).expect("plan")
    }

    #[test]
    fn cache_hit_skips_planner_and_encoder() {
        let service = service();
        let plan = Query::new().uarch("Skylake").into_plan();
        let cold = service.query(&plan, Encoding::Json);
        let stats = service.stats();
        assert_eq!((stats.executions, stats.encodes, stats.cache.hits), (1, 1, 0));

        let warm = service.query(&plan, Encoding::Json);
        let stats = service.stats();
        assert_eq!(stats.executions, 1, "hit must not re-run the executor");
        assert_eq!(stats.encodes, 1, "hit must not re-encode");
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(cold.body, warm.body, "cached and uncached bytes identical");
        assert!(Arc::ptr_eq(&cold.body, &warm.body), "hit shares the stored allocation");
    }

    #[test]
    fn encodings_are_cached_independently() {
        let service = service();
        let plan = Query::new().uarch("Skylake").into_plan();
        let json = service.query(&plan, Encoding::Json);
        let binary = service.query(&plan, Encoding::Binary);
        assert_ne!(json.body, binary.body);
        assert_eq!(json.content_type, "application/json");
        assert_eq!(binary.content_type, "application/x-uops-result");
        assert_eq!(service.stats().executions, 2);
        // Each encoding now hits its own entry.
        service.query(&plan, Encoding::Json);
        service.query(&plan, Encoding::Binary);
        assert_eq!(service.stats().executions, 2);
        assert_eq!(service.stats().cache.hits, 2);
    }

    #[test]
    fn responses_equal_direct_execution() {
        let segment = Segment::from_bytes(Segment::encode(&snapshot())).expect("segment");
        let db = segment.db();
        let service = service();
        for (qs, enc) in [
            ("uarch=Skylake", Encoding::Json),
            ("mnemonic=ADD&sort=latency", Encoding::Json),
            ("port=6", Encoding::Binary),
            ("", Encoding::Xml),
        ] {
            let plan = QueryPlan::parse(qs).expect("parse");
            let direct = encode_result(&QueryExec::new().run(&plan, &db), enc);
            assert_eq!(*service.query(&plan, enc).body, *direct, "{qs}");
        }
        let direct = encode_diff(&diff_uarches(&db, "Haswell", "Skylake"), Encoding::Json);
        assert_eq!(*service.diff("Haswell", "Skylake", Encoding::Json).body, *direct);
    }

    #[test]
    fn record_and_diff_requests_are_cached() {
        let service = service();
        let cold = service.record("ADD", Some("Skylake"), Encoding::Json);
        let warm = service.record("ADD", Some("Skylake"), Encoding::Json);
        assert_eq!(cold.body, warm.body);
        assert_eq!(service.stats().cache.hits, 1);
        let d1 = service.diff("Haswell", "Skylake", Encoding::Json);
        let d2 = service.diff("Haswell", "Skylake", Encoding::Json);
        assert_eq!(d1.body, d2.body);
        assert_eq!(service.stats().cache.hits, 2);
        let text = String::from_utf8(d1.body.to_vec()).expect("utf-8");
        assert!(text.contains("\"base\": \"Haswell\""));
    }

    #[test]
    fn etag_is_plan_fingerprint_xor_content_hash() {
        let service = service();
        let plan = Query::new().uarch("Skylake").into_plan();
        let response = service.query(&plan, Encoding::Json);
        let request = format!("q/json?{}", plan.to_query_string());
        assert_eq!(
            response.etag,
            Some(fnv1a_64(request.as_bytes()) ^ service.content_hash()),
            "ETag composition is part of the wire contract"
        );

        // A segment with different content produces a different hash — and
        // therefore different ETags for the same plan.
        let mut other_snapshot = snapshot();
        other_snapshot.records.pop();
        let other = QueryService::from_segment(
            Arc::new(Segment::from_bytes(Segment::encode(&other_snapshot)).expect("segment")),
            1 << 20,
        );
        assert_ne!(service.content_hash(), other.content_hash());
        assert_ne!(response.etag, other.query(&plan, Encoding::Json).etag);

        // The same content gives the same tag across identical services.
        let again = QueryService::from_segment(
            Arc::new(Segment::from_bytes(Segment::encode(&snapshot())).expect("segment")),
            1 << 20,
        );
        assert_eq!(again.content_hash(), service.content_hash());
        assert_eq!(again.query(&plan, Encoding::Json).etag, response.etag);
    }

    #[test]
    fn wire_parse_errors_become_400() {
        let service = service();
        let response = service.query_wire("uarhc=Skylake", Encoding::Json);
        assert_eq!(response.status, 400);
        let text = String::from_utf8(response.body.to_vec()).expect("utf-8");
        assert!(text.contains("unknown query parameter"), "{text}");
        // Errors are not cached.
        assert_eq!(service.stats().cache.entries, 0);
    }

    #[test]
    fn stats_response_reports_counters() {
        let service = service();
        let plan = Query::new().into_plan();
        service.query(&plan, Encoding::Json);
        service.query(&plan, Encoding::Json);
        let text = String::from_utf8(service.stats_response().body.to_vec()).expect("utf-8");
        assert!(text.contains("\"records\": 3"), "{text}");
        assert!(text.contains("\"hits\": 1"), "{text}");
        assert!(text.contains("\"executions\": 1"), "{text}");
        assert!(text.contains("\"overload\": {\"shed_deadline\": 0"), "{text}");
    }

    #[test]
    fn capacity_shedding_spares_cache_hits_and_is_never_cached() {
        let service = service();
        let warm_plan = Query::new().uarch("Skylake").into_plan();
        let warm = service.query(&warm_plan, Encoding::Json);

        // Saturate the admission gauge as a stand-in for a stuck in-flight
        // execution, with a ceiling of 1.
        service.set_max_uncached_inflight(1);
        service.uncached_inflight.store(1, Ordering::Relaxed);
        let cold_plan = Query::new().uarch("Haswell").into_plan();
        let shed = service.query(&cold_plan, Encoding::Json);
        assert_eq!(shed.status, 503);
        assert_eq!(shed.tier, ResponseTier::Untiered);
        assert!(shed.etag.is_none(), "shed responses are not revalidatable");
        assert_eq!(service.shed_capacity_counter().get(), 1);
        assert_eq!(service.stats().executions, 1, "the shed request never executed");

        // Cache hits are untouched by the ceiling: graceful degradation.
        let hit = service.query(&warm_plan, Encoding::Json);
        assert_eq!(hit.status, 200);
        assert_eq!(hit.tier, ResponseTier::Fingerprint);
        assert_eq!(hit.body, warm.body);

        // The shed was not cached: with capacity back, the query runs.
        service.uncached_inflight.store(0, Ordering::Relaxed);
        let ok = service.query(&cold_plan, Encoding::Json);
        assert_eq!(ok.status, 200);
        assert_eq!(ok.tier, ResponseTier::Uncached);
        assert_eq!(service.uncached_inflight(), 0, "the admission guard released its slot");
    }

    #[test]
    fn deadline_shedding_spares_cache_hits() {
        let service = service();
        let warm_plan = Query::new().uarch("Skylake").into_plan();
        service.query(&warm_plan, Encoding::Json);

        // An already-expired deadline sheds every uncached request …
        deadline::set(Some(std::time::Instant::now()));
        let cold_plan = Query::new().uarch("Haswell").into_plan();
        let shed = service.query(&cold_plan, Encoding::Json);
        assert_eq!(shed.status, 503);
        assert_eq!(service.shed_deadline_counter().get(), 1);
        assert_eq!(service.stats().executions, 1);

        // … while cache hits never consult the deadline.
        let hit = service.query(&warm_plan, Encoding::Json);
        assert_eq!((hit.status, hit.tier), (200, ResponseTier::Fingerprint));

        // Disarming the deadline restores the uncached pipeline, and the
        // shed slot was released on the way out.
        deadline::set(None);
        let ok = service.query(&cold_plan, Encoding::Json);
        assert_eq!(ok.status, 200);
        assert_eq!(service.uncached_inflight(), 0);
    }

    /// Runs a batch body through the service and the wire writer, then
    /// decodes the framed response back into `(status, body)` pairs —
    /// the full protocol round trip.
    fn batch_wire(
        service: &QueryService,
        body: &[u8],
        encoding: Encoding,
    ) -> Result<Vec<(u16, Vec<u8>)>, ServiceResponse> {
        let mut out = BatchBody::default();
        let mut scratch = BatchScratch::default();
        service.batch(body, encoding, &mut out, &mut scratch)?;
        let mut wire = Vec::new();
        let mut cursor = 0;
        let progress = crate::http::write_batch(&mut wire, b"", &out, &mut cursor).expect("write");
        assert!(matches!(progress, crate::http::WriteProgress::Complete));
        assert_eq!(wire.len(), out.wire_len(), "wire_len must match emitted bytes");
        Ok(decode_batch_response(&wire).expect("decode"))
    }

    #[test]
    fn batch_answers_match_singles_for_every_plan_and_encoding() {
        for encoding in [Encoding::Json, Encoding::Binary, Encoding::Xml] {
            let service = service();
            let plans = ["uarch=Skylake", "mnemonic=ADD&sort=latency", "port=6", "uarch=Haswell"];
            let body = plans.join("\n");
            let parts = batch_wire(&service, body.as_bytes(), encoding).expect("batch");
            assert_eq!(parts.len(), plans.len());
            for (plan, (status, bytes)) in plans.iter().zip(&parts) {
                let single = service.query_wire(plan, encoding);
                assert_eq!(*status, single.status, "{plan}");
                assert_eq!(bytes.as_slice(), &single.body[..], "{plan}");
            }
        }
    }

    #[test]
    fn tlv_and_text_batches_produce_identical_frames() {
        let service = service();
        let plans = ["uarch=Skylake", "port=6", ""];
        let tlv = batch_wire(&service, &encode_batch_request(&plans), Encoding::Json).expect("tlv");
        // The match-all plan ("") only survives TLV framing (a text body
        // drops trailing empty lines), so the text side spells it out
        // canonically-equivalent via its own request.
        assert_eq!(tlv.len(), 3);
        let text =
            batch_wire(&service, b"uarch=Skylake\nport=6", Encoding::Json).expect("text batch");
        assert_eq!(&tlv[..2], &text[..], "shared plans frame identically across encodings");
        assert_eq!(tlv[2].0, 200);
        assert_eq!(tlv[2].1, &service.query_wire("", Encoding::Json).body[..]);
    }

    #[test]
    fn a_bad_plan_mid_batch_gets_its_own_400_and_spares_the_rest() {
        let service = service();
        let parts = batch_wire(&service, b"uarch=Skylake\nuarhc=Oops\nport=6", Encoding::Json)
            .expect("batch");
        assert_eq!(parts.len(), 3);
        assert_eq!((parts[0].0, parts[1].0, parts[2].0), (200, 400, 200));
        let message = String::from_utf8(parts[1].1.clone()).expect("utf-8");
        assert!(message.contains("unknown query parameter"), "{message}");
        assert_eq!(parts[0].1, &service.query_wire("uarch=Skylake", Encoding::Json).body[..]);
    }

    #[test]
    fn whole_batch_failures_are_400_and_batches_share_the_cache_with_singles() {
        let service = service();
        let empty = batch_wire(&service, b"", Encoding::Json).expect_err("empty batch");
        assert_eq!(empty.status, 400);
        let bad_tlv = batch_wire(&service, b"UQB\x01\xff", Encoding::Json).expect_err("bad tlv");
        assert_eq!(bad_tlv.status, 400);

        // A warmed single is a batch hit; batch misses warm later singles.
        service.query_wire("uarch=Skylake", Encoding::Json);
        let executions = service.stats().executions;
        batch_wire(&service, b"uarch=Skylake\nuarch=Haswell", Encoding::Json).expect("batch");
        assert_eq!(
            service.stats().executions,
            executions + 1,
            "only the unwarmed plan executed in the batch"
        );
        service.query_wire("uarch=Haswell", Encoding::Json);
        assert_eq!(
            service.stats().executions,
            executions + 1,
            "the single after the batch was a cache hit"
        );
    }

    #[test]
    fn batch_sheds_misses_but_serves_hits_under_pressure() {
        let service = service();
        service.query_wire("uarch=Skylake", Encoding::Json);
        service.set_max_uncached_inflight(1);
        service.uncached_inflight.store(1, Ordering::Relaxed);
        let parts = batch_wire(&service, b"uarch=Skylake\nuarch=Haswell", Encoding::Json)
            .expect("batch frames survive a shed");
        assert_eq!(parts[0].0, 200, "the cache hit kept serving");
        assert_eq!(parts[1].0, 503, "the miss was shed per-plan");
    }

    #[test]
    fn streamed_chunks_concatenate_to_the_whole_body_encoding() {
        for encoding in [Encoding::Json, Encoding::Binary] {
            let warm_service = service();
            let whole = warm_service.query_wire("uarch=Skylake", encoding);
            assert_eq!(whole.status, 200);

            // A second, cold service: the whole-body query above left a
            // cache entry that would short-circuit the streaming path.
            let fresh = service();
            fresh.set_stream_threshold(1);
            let QueryReply::Stream(mut stream) =
                fresh.query_streaming(&plan("uarch=Skylake"), encoding)
            else {
                panic!("two rows past a threshold of one must stream");
            };
            assert_eq!(stream.content_type(), encoding.content_type());
            assert_eq!(stream.row_count(), 2);
            let mut chunk = Vec::new();
            let mut streamed = Vec::new();
            while stream.next_chunk(&mut chunk) {
                assert!(!chunk.is_empty(), "chunks are never empty before exhaustion");
                streamed.extend_from_slice(&chunk);
            }
            assert_eq!(
                streamed,
                &whole.body[..],
                "chunk concatenation is byte-identical to the whole-body encoder ({encoding:?})"
            );
        }
    }

    #[test]
    fn streaming_stays_whole_body_for_xml_hits_and_small_results() {
        let service = service();
        service.set_stream_threshold(1);
        // XML groups rows and cannot stream.
        assert!(matches!(
            service.query_streaming(&plan("uarch=Skylake"), Encoding::Xml),
            QueryReply::Full(_)
        ));
        // Below the threshold: whole body (and cached).
        assert!(matches!(
            service.query_streaming(&plan("mnemonic=ADC"), Encoding::Json),
            QueryReply::Full(_)
        ));
        // A fingerprint-tier hit short-circuits the streaming decision.
        let QueryReply::Full(warm) = service.query_streaming(&plan("mnemonic=ADC"), Encoding::Json)
        else {
            panic!("hit must answer whole-body");
        };
        assert_eq!(warm.tier, ResponseTier::Fingerprint);
        // Streams bypass the cache: the large page never left an entry.
        assert!(matches!(
            service.query_streaming(&plan("uarch=Skylake"), Encoding::Json),
            QueryReply::Stream(_)
        ));
        assert!(matches!(
            service.query_streaming(&plan("uarch=Skylake"), Encoding::Json),
            QueryReply::Stream(_)
        ));
    }
}
