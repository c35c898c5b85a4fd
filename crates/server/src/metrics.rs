//! Server-wide telemetry: the metric set recorded by the transport, the
//! route classification, the per-request stage scratch, and the
//! `/metrics` Prometheus exposition renderer.
//!
//! Everything the hot path touches here is a live atomic from
//! `uops-telemetry` — recording is wait-free and allocation-free, so the
//! zero-allocation guarantee of the serving loop holds with telemetry
//! enabled (asserted by `tests/alloc_free.rs`). Exposition is the cold
//! path: each `GET /metrics` scrape builds a borrowed
//! [`uops_telemetry::Registry`] over the same atomics and renders text.
//!
//! Metric naming follows the `uops_*` scheme:
//!
//! | prefix | source |
//! |---|---|
//! | `uops_http_*` | transport ([`crate::http`] / the reactor shards) |
//! | `uops_service_*` | [`crate::QueryService`] tiers and pipeline |
//! | `uops_cache_*` | both cache tiers (`tier="fingerprint"` / `"raw"`) |
//! | `uops_exec_*` | executor stage timings (`stage="parse"/"execute"/"encode"`) |
//!
//! Latency histograms use the log₂ bucket layout of
//! [`uops_telemetry::Histogram`]: `le` bounds at `2^k - 1` nanoseconds.

use uops_telemetry::{Counter, Gauge, Histogram, Labels, Registry};

use crate::service::QueryService;

/// The routes the transport distinguishes for per-route telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `/v1/query`
    Query,
    /// `/v1/record/{mnemonic}`
    Record,
    /// `/v1/diff`
    Diff,
    /// `/v1/stats`
    Stats,
    /// `/metrics` (the exposition endpoint itself)
    Metrics,
    /// `POST /v1/batch` (multi-plan batch protocol)
    Batch,
    /// `POST /v1/ingest` (live data-plane snapshot/shard ingestion)
    Ingest,
    /// Anything else (404s, probes).
    Other,
}

/// Number of [`Route`] variants (the length of per-route metric arrays).
pub const ROUTES: usize = 8;

impl Route {
    /// Classifies a request path. Allocation-free (prefix compares only).
    #[must_use]
    pub fn of(path: &str) -> Route {
        match path {
            "/v1/query" => Route::Query,
            "/v1/diff" => Route::Diff,
            "/v1/stats" => Route::Stats,
            "/metrics" => Route::Metrics,
            "/v1/batch" => Route::Batch,
            "/v1/ingest" => Route::Ingest,
            _ if path.starts_with("/v1/record/") => Route::Record,
            _ => Route::Other,
        }
    }

    /// The stable label value used in exposition.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Route::Query => "/v1/query",
            Route::Record => "/v1/record",
            Route::Diff => "/v1/diff",
            Route::Stats => "/v1/stats",
            Route::Metrics => "/metrics",
            Route::Batch => "/v1/batch",
            Route::Ingest => "/v1/ingest",
            Route::Other => "other",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

const ROUTE_LABELS: [&Labels; ROUTES] = [
    &[("route", "/v1/query")],
    &[("route", "/v1/record")],
    &[("route", "/v1/diff")],
    &[("route", "/v1/stats")],
    &[("route", "/metrics")],
    &[("route", "/v1/batch")],
    &[("route", "/v1/ingest")],
    &[("route", "other")],
];

/// Most reactor shards the per-shard metric arrays can distinguish;
/// shards beyond this share the last slot (never in practice — shard
/// counts track cores).
pub const MAX_SHARDS: usize = 32;

/// Per-shard label sets for `uops_http_shard_*` exposition.
const SHARD_LABELS: [&Labels; MAX_SHARDS] = [
    &[("shard", "0")],
    &[("shard", "1")],
    &[("shard", "2")],
    &[("shard", "3")],
    &[("shard", "4")],
    &[("shard", "5")],
    &[("shard", "6")],
    &[("shard", "7")],
    &[("shard", "8")],
    &[("shard", "9")],
    &[("shard", "10")],
    &[("shard", "11")],
    &[("shard", "12")],
    &[("shard", "13")],
    &[("shard", "14")],
    &[("shard", "15")],
    &[("shard", "16")],
    &[("shard", "17")],
    &[("shard", "18")],
    &[("shard", "19")],
    &[("shard", "20")],
    &[("shard", "21")],
    &[("shard", "22")],
    &[("shard", "23")],
    &[("shard", "24")],
    &[("shard", "25")],
    &[("shard", "26")],
    &[("shard", "27")],
    &[("shard", "28")],
    &[("shard", "29")],
    &[("shard", "30")],
    &[("shard", "31")],
];

const CLASS_LABELS: [&Labels; 4] =
    [&[("class", "2xx")], &[("class", "3xx")], &[("class", "4xx")], &[("class", "5xx")]];

const TIER_RAW: &Labels = &[("tier", "raw")];
const TIER_FINGERPRINT: &Labels = &[("tier", "fingerprint")];
const TIER_UNCACHED: &Labels = &[("tier", "uncached")];
const STAGE_PARSE: &Labels = &[("stage", "parse")];
const STAGE_EXECUTE: &Labels = &[("stage", "execute")];
const STAGE_ENCODE: &Labels = &[("stage", "encode")];
const NO_LABELS: &Labels = &[];

/// The transport-level metric set, owned by a [`crate::Server`] instance
/// (not process-global: tests and benchmarks run several servers in one
/// process, each with independent counters).
///
/// All fields are live atomics; recording any of them is wait-free and
/// allocation-free.
#[derive(Debug)]
pub struct ServerMetrics {
    /// Requests answered (parsed requests; malformed ones count in
    /// `parse_errors` and the status classes instead).
    pub requests: Counter,
    /// Request head bytes read off the wire.
    pub request_bytes: Counter,
    /// Response bytes (head + body) put on the wire.
    pub response_bytes: Counter,
    /// Requests rejected by the HTTP parser (any malformed request).
    pub parse_errors: Counter,
    /// Parser rejections answered `400 Bad Request`.
    pub bad_requests: Counter,
    /// Parser rejections answered `431 Request Header Fields Too Large`.
    pub header_overflows: Counter,
    /// Revalidations answered `304 Not Modified`.
    pub not_modified: Counter,
    /// Failed `accept` calls (transient `EINTR`/`EAGAIN` retried
    /// immediately, plus `EMFILE`-class exhaustion that backed off) on
    /// either transport's accept path.
    pub accept_errors: Counter,
    /// `EMFILE`-class accept failures answered by the emergency-fd
    /// rescue: the reserve fd was closed, the pending connection accepted
    /// and actively reset instead of left to time out in the backlog.
    pub accept_rescues: Counter,
    /// Connections rejected at admission (transport saturated): answered
    /// with the preformatted static 503 and closed.
    pub overload_rejects: Counter,
    /// Connections evicted mid-response because the peer stopped reading
    /// (write-side stall past the configured timeout).
    pub slow_reader_evictions: Counter,
    /// Connections accepted.
    pub connections_opened: Counter,
    /// Connections fully served and closed.
    pub connections_closed: Counter,
    /// Connections currently being served.
    pub connections_active: Gauge,
    /// Live connections per reactor shard (`uops_http_shard_connections`).
    pub shard_connections: [Gauge; MAX_SHARDS],
    /// Connections accepted per reactor shard: reads on how evenly
    /// `SO_REUSEPORT` spreads the accept load.
    pub shard_accepted: [Counter; MAX_SHARDS],
    /// Reactor shards live on this server; bounds the per-shard series
    /// rendered by [`render_metrics`].
    pub shard_count: std::sync::atomic::AtomicUsize,
    /// Responses by status class (2xx/3xx/4xx/5xx).
    pub status_classes: [Counter; 4],
    /// Request latency per route (read-to-written, nanoseconds).
    pub route_latency: [Histogram; ROUTES],
    /// Request latency split by serving tier: raw fast lane vs
    /// fingerprint hit vs full execute-and-encode.
    pub tier_latency_raw: Histogram,
    /// Fingerprint-tier-hit request latency.
    pub tier_latency_fingerprint: Histogram,
    /// Uncached (execute + encode) request latency.
    pub tier_latency_uncached: Histogram,
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new()
    }
}

impl ServerMetrics {
    /// Creates a zeroed metric set.
    #[must_use]
    pub fn new() -> ServerMetrics {
        const COUNTER: Counter = Counter::new();
        const GAUGE: Gauge = Gauge::new();
        const HISTOGRAM: Histogram = Histogram::new();
        ServerMetrics {
            requests: Counter::new(),
            request_bytes: Counter::new(),
            response_bytes: Counter::new(),
            parse_errors: Counter::new(),
            bad_requests: Counter::new(),
            header_overflows: Counter::new(),
            not_modified: Counter::new(),
            accept_errors: Counter::new(),
            accept_rescues: Counter::new(),
            overload_rejects: Counter::new(),
            slow_reader_evictions: Counter::new(),
            connections_opened: Counter::new(),
            connections_closed: Counter::new(),
            connections_active: Gauge::new(),
            shard_connections: [GAUGE; MAX_SHARDS],
            shard_accepted: [COUNTER; MAX_SHARDS],
            shard_count: std::sync::atomic::AtomicUsize::new(0),
            status_classes: [COUNTER; 4],
            route_latency: [HISTOGRAM; ROUTES],
            tier_latency_raw: Histogram::new(),
            tier_latency_fingerprint: Histogram::new(),
            tier_latency_uncached: Histogram::new(),
        }
    }

    /// The status-class counter for `status` (2xx/3xx/4xx/5xx; 1xx is
    /// never emitted and maps to the 2xx slot defensively).
    #[must_use]
    pub fn status_class(&self, status: u16) -> &Counter {
        let index = (status / 100).saturating_sub(2).min(3) as usize;
        &self.status_classes[index]
    }

    /// The per-route latency histogram for `route`.
    #[must_use]
    pub fn route_latency(&self, route: Route) -> &Histogram {
        &self.route_latency[route.index()]
    }

    /// The per-shard metric slot for `shard` (clamped so out-of-range
    /// shard indices share the last slot instead of panicking).
    #[must_use]
    pub fn shard_slot(shard: usize) -> usize {
        shard.min(MAX_SHARDS - 1)
    }
}

/// Renders the full Prometheus text exposition for one server: transport
/// metrics, per-tier cache counters, and executor stage histograms. Cold
/// path — called once per `/metrics` scrape; allocation here is fine.
#[must_use]
pub fn render_metrics(service: &QueryService, metrics: &ServerMetrics) -> String {
    let stats = service.stats();
    let stages = service.exec_stage_metrics();
    let mut registry = Registry::new();

    registry.counter(
        "uops_http_requests_total",
        "HTTP requests answered (parsed requests).",
        NO_LABELS,
        &metrics.requests,
    );
    registry.counter(
        "uops_http_request_bytes_total",
        "Request head bytes read off the wire.",
        NO_LABELS,
        &metrics.request_bytes,
    );
    registry.counter(
        "uops_http_response_bytes_total",
        "Response bytes (head + body) written to the wire.",
        NO_LABELS,
        &metrics.response_bytes,
    );
    for (labels, counter) in CLASS_LABELS.iter().zip(metrics.status_classes.iter()) {
        registry.counter(
            "uops_http_responses_total",
            "Responses by status class.",
            labels,
            counter,
        );
    }
    registry.counter(
        "uops_http_not_modified_total",
        "Conditional requests answered 304 Not Modified.",
        NO_LABELS,
        &metrics.not_modified,
    );
    registry.counter(
        "uops_http_parse_errors_total",
        "Requests rejected by the HTTP parser.",
        NO_LABELS,
        &metrics.parse_errors,
    );
    registry.counter(
        "uops_http_bad_requests_total",
        "Parser rejections answered 400 Bad Request.",
        NO_LABELS,
        &metrics.bad_requests,
    );
    registry.counter(
        "uops_http_header_overflows_total",
        "Parser rejections answered 431 (caps exceeded).",
        NO_LABELS,
        &metrics.header_overflows,
    );
    registry.counter(
        "uops_http_accept_errors_total",
        "Failed accept calls (transient retries and backed-off exhaustion).",
        NO_LABELS,
        &metrics.accept_errors,
    );
    registry.counter(
        "uops_http_accept_rescues_total",
        "EMFILE-class accept failures answered by the emergency-fd rescue.",
        NO_LABELS,
        &metrics.accept_rescues,
    );
    registry.counter(
        "uops_http_overload_rejects_total",
        "Connections rejected at admission with a static 503.",
        NO_LABELS,
        &metrics.overload_rejects,
    );
    registry.counter(
        "uops_http_slow_reader_evictions_total",
        "Connections evicted mid-response on a write-side stall.",
        NO_LABELS,
        &metrics.slow_reader_evictions,
    );
    registry.counter(
        "uops_http_connections_opened_total",
        "Connections accepted.",
        NO_LABELS,
        &metrics.connections_opened,
    );
    registry.counter(
        "uops_http_connections_closed_total",
        "Connections fully served and closed.",
        NO_LABELS,
        &metrics.connections_closed,
    );
    registry.gauge(
        "uops_http_connections_active",
        "Connections currently being served.",
        NO_LABELS,
        &metrics.connections_active,
    );
    let shards = metrics.shard_count.load(std::sync::atomic::Ordering::Relaxed).min(MAX_SHARDS);
    for shard in 0..shards {
        registry.gauge(
            "uops_http_shard_connections",
            "Live connections per reactor shard.",
            SHARD_LABELS[shard],
            &metrics.shard_connections[shard],
        );
    }
    for shard in 0..shards {
        registry.counter(
            "uops_http_shard_accepted_total",
            "Connections accepted per reactor shard (SO_REUSEPORT spread).",
            SHARD_LABELS[shard],
            &metrics.shard_accepted[shard],
        );
    }
    for (labels, histogram) in ROUTE_LABELS.iter().zip(metrics.route_latency.iter()) {
        registry.histogram(
            "uops_http_request_latency_nanoseconds",
            "Request latency (read to written) per route.",
            labels,
            histogram,
        );
    }

    registry.histogram(
        "uops_service_latency_nanoseconds",
        "Request latency split by serving tier.",
        TIER_RAW,
        &metrics.tier_latency_raw,
    );
    registry.histogram(
        "uops_service_latency_nanoseconds",
        "Request latency split by serving tier.",
        TIER_FINGERPRINT,
        &metrics.tier_latency_fingerprint,
    );
    registry.histogram(
        "uops_service_latency_nanoseconds",
        "Request latency split by serving tier.",
        TIER_UNCACHED,
        &metrics.tier_latency_uncached,
    );
    registry.counter(
        "uops_service_executions_total",
        "Plans actually executed (cache misses).",
        NO_LABELS,
        service.executions_counter(),
    );
    registry.counter(
        "uops_service_encodes_total",
        "Results actually encoded (cache misses).",
        NO_LABELS,
        service.encodes_counter(),
    );
    registry.counter(
        "uops_service_shed_total",
        "Uncached requests shed by overload control, by reason.",
        &[("reason", "deadline")],
        service.shed_deadline_counter(),
    );
    registry.counter(
        "uops_service_shed_total",
        "Uncached requests shed by overload control, by reason.",
        &[("reason", "capacity")],
        service.shed_capacity_counter(),
    );
    registry.gauge_sample(
        "uops_service_uncached_inflight",
        "Uncached executions in flight (admission gauge).",
        NO_LABELS,
        service.uncached_inflight() as i64,
    );
    registry.gauge_sample(
        "uops_service_records",
        "Records in the served store.",
        NO_LABELS,
        service.record_count() as i64,
    );
    registry.gauge_sample(
        "uops_store_generation",
        "Live data-plane generation currently served.",
        NO_LABELS,
        service.generation() as i64,
    );
    registry.counter(
        "uops_store_swaps_total",
        "Generation swaps published to the live store.",
        NO_LABELS,
        service.swaps_counter(),
    );
    registry.counter(
        "uops_store_cache_flushes_total",
        "Cache tiers flushed at generation-swap boundaries.",
        NO_LABELS,
        service.cache_flushes_counter(),
    );
    registry.counter(
        "uops_store_quarantined_total",
        "Segment images quarantined by boot recovery.",
        NO_LABELS,
        service.quarantined_counter(),
    );

    let fingerprint = service.fingerprint_cache();
    let raw = service.raw_lane_cache();
    registry.counter(
        "uops_cache_hits_total",
        "Cache hits per tier.",
        TIER_FINGERPRINT,
        fingerprint.hits_counter(),
    );
    registry.counter("uops_cache_hits_total", "Cache hits per tier.", TIER_RAW, raw.hits_counter());
    registry.counter(
        "uops_cache_misses_total",
        "Cache misses per tier (collisions included).",
        TIER_FINGERPRINT,
        fingerprint.misses_counter(),
    );
    registry.counter(
        "uops_cache_misses_total",
        "Cache misses per tier (collisions included).",
        TIER_RAW,
        raw.misses_counter(),
    );
    registry.counter(
        "uops_cache_evictions_total",
        "Entries evicted to stay within the byte budget, per tier.",
        TIER_FINGERPRINT,
        fingerprint.evictions_counter(),
    );
    registry.counter(
        "uops_cache_evictions_total",
        "Entries evicted to stay within the byte budget, per tier.",
        TIER_RAW,
        raw.evictions_counter(),
    );
    registry.counter(
        "uops_cache_uncacheable_total",
        "Responses too large to cache, per tier.",
        TIER_FINGERPRINT,
        fingerprint.uncacheable_counter(),
    );
    registry.counter(
        "uops_cache_uncacheable_total",
        "Responses too large to cache, per tier.",
        TIER_RAW,
        raw.uncacheable_counter(),
    );
    registry.gauge_sample(
        "uops_cache_entries",
        "Live cache entries per tier.",
        TIER_FINGERPRINT,
        stats.cache.entries as i64,
    );
    registry.gauge_sample(
        "uops_cache_entries",
        "Live cache entries per tier.",
        TIER_RAW,
        stats.raw.entries as i64,
    );
    registry.gauge_sample(
        "uops_cache_bytes",
        "Payload + overhead bytes held per tier.",
        TIER_FINGERPRINT,
        stats.cache.bytes as i64,
    );
    registry.gauge_sample(
        "uops_cache_bytes",
        "Payload + overhead bytes held per tier.",
        TIER_RAW,
        stats.raw.bytes as i64,
    );
    registry.gauge_sample(
        "uops_cache_capacity_bytes",
        "Configured byte budget per tier.",
        TIER_FINGERPRINT,
        stats.cache.capacity_bytes as i64,
    );
    registry.gauge_sample(
        "uops_cache_capacity_bytes",
        "Configured byte budget per tier.",
        TIER_RAW,
        stats.raw.capacity_bytes as i64,
    );

    registry.histogram(
        "uops_exec_stage_nanoseconds",
        "Uncached-pipeline stage timings.",
        STAGE_PARSE,
        &stages.parse_ns,
    );
    registry.histogram(
        "uops_exec_stage_nanoseconds",
        "Uncached-pipeline stage timings.",
        STAGE_EXECUTE,
        &stages.execute_ns,
    );
    registry.histogram(
        "uops_exec_stage_nanoseconds",
        "Uncached-pipeline stage timings.",
        STAGE_ENCODE,
        &stages.encode_ns,
    );

    registry.render()
}

/// Per-thread scratch carrying the current request's stage timings from
/// the service layer (where the `Span`s run) to the transport (which
/// reads them for the sampled access log). Plain `Cell` accesses — no
/// allocation, no locking.
pub(crate) mod stage_scratch {
    use std::cell::Cell;

    thread_local! {
        static SCRATCH: Cell<(u64, u64, u64)> = const { Cell::new((0, 0, 0)) };
    }

    /// Clears the scratch at the start of a request.
    pub fn reset() {
        SCRATCH.with(|s| s.set((0, 0, 0)));
    }

    /// Records the parse-stage nanoseconds of the current request.
    pub fn set_parse(ns: u64) {
        SCRATCH.with(|s| {
            let (_, execute, encode) = s.get();
            s.set((ns, execute, encode));
        });
    }

    /// Records the execute-stage nanoseconds of the current request.
    pub fn set_execute(ns: u64) {
        SCRATCH.with(|s| {
            let (parse, _, encode) = s.get();
            s.set((parse, ns, encode));
        });
    }

    /// Records the encode-stage nanoseconds of the current request.
    pub fn set_encode(ns: u64) {
        SCRATCH.with(|s| {
            let (parse, execute, _) = s.get();
            s.set((parse, execute, ns));
        });
    }

    /// Reads `(parse_ns, execute_ns, encode_ns)` for the current request.
    pub fn get() -> (u64, u64, u64) {
        SCRATCH.with(Cell::get)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use uops_db::{Segment, Snapshot, VariantRecord};

    fn service() -> QueryService {
        let mut s = Snapshot::new("metrics test");
        s.records.push(VariantRecord {
            mnemonic: "ADD".into(),
            variant: "R64, R64".into(),
            extension: "BASE".into(),
            uarch: "Skylake".into(),
            uop_count: 1,
            ports: vec![(0b0100_0001, 1)],
            tp_measured: 0.25,
            ..Default::default()
        });
        let segment = Segment::from_bytes(Segment::encode(&s)).expect("segment");
        QueryService::from_segment(Arc::new(segment), 1 << 20)
    }

    #[test]
    fn route_classification() {
        assert_eq!(Route::of("/v1/query"), Route::Query);
        assert_eq!(Route::of("/v1/record/ADD"), Route::Record);
        assert_eq!(Route::of("/v1/diff"), Route::Diff);
        assert_eq!(Route::of("/v1/stats"), Route::Stats);
        assert_eq!(Route::of("/metrics"), Route::Metrics);
        assert_eq!(Route::of("/nope"), Route::Other);
        assert_eq!(Route::of("/v1/record/"), Route::Record);
        assert_eq!(Route::of("/v1/batch"), Route::Batch);
        assert_eq!(Route::of("/v1/plan"), Route::Other);
        assert_eq!(Route::of("/v1/plan/00ff00ff00ff00ff"), Route::Other);
        assert_eq!(Route::of("/v1/ingest"), Route::Ingest);
        assert_eq!(Route::of("/v1/batches"), Route::Other);
    }

    #[test]
    fn shard_metrics_render_only_live_shards() {
        let service = service();
        let metrics = ServerMetrics::new();
        let text = render_metrics(&service, &metrics);
        assert!(!text.contains("uops_http_shard_connections"), "no shards, no series");
        metrics.shard_count.store(2, std::sync::atomic::Ordering::Relaxed);
        metrics.shard_connections[0].inc();
        metrics.shard_accepted[1].inc();
        let text = render_metrics(&service, &metrics);
        assert!(text.contains("uops_http_shard_connections{shard=\"0\"} 1"), "{text}");
        assert!(text.contains("uops_http_shard_connections{shard=\"1\"} 0"), "{text}");
        assert!(text.contains("uops_http_shard_accepted_total{shard=\"1\"} 1"), "{text}");
        assert!(!text.contains("shard=\"2\""), "only live shards render");
    }

    #[test]
    fn status_classes_map_to_the_right_counter() {
        let metrics = ServerMetrics::new();
        metrics.status_class(200).inc();
        metrics.status_class(304).inc();
        metrics.status_class(404).inc();
        metrics.status_class(500).inc();
        metrics.status_class(599).inc();
        let counts: Vec<u64> = metrics.status_classes.iter().map(|c| c.get()).collect();
        assert_eq!(counts, vec![1, 1, 1, 2]);
    }

    #[test]
    fn exposition_covers_every_subsystem() {
        let service = service();
        let metrics = ServerMetrics::new();
        metrics.requests.inc();
        metrics.route_latency(Route::Query).record(1_000);
        metrics.tier_latency_raw.record(200);
        let _ = crate::respond(&service, "GET", "/v1/query?uarch=Skylake");
        let text = render_metrics(&service, &metrics);
        for needle in [
            "uops_http_requests_total 1",
            "uops_http_accept_errors_total 0",
            "uops_http_accept_rescues_total 0",
            "uops_http_overload_rejects_total 0",
            "uops_http_slow_reader_evictions_total 0",
            "uops_service_shed_total{reason=\"deadline\"} 0",
            "uops_service_shed_total{reason=\"capacity\"} 0",
            "uops_service_uncached_inflight 0",
            "uops_http_request_latency_nanoseconds_bucket{route=\"/v1/query\",le=\"+Inf\"} 1",
            "uops_service_latency_nanoseconds_count{tier=\"raw\"} 1",
            "uops_cache_hits_total{tier=\"fingerprint\"} 0",
            "uops_cache_misses_total{tier=\"raw\"} 1",
            "uops_service_executions_total 1",
            "uops_exec_stage_nanoseconds_count{stage=\"execute\"} 1",
            "uops_service_records 1",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // One header pair per metric name, even with several label sets.
        assert_eq!(text.matches("# TYPE uops_cache_hits_total counter").count(), 1);
        assert_eq!(
            text.matches("# TYPE uops_http_request_latency_nanoseconds histogram").count(),
            1
        );
    }

    #[test]
    fn stage_scratch_roundtrip() {
        stage_scratch::reset();
        assert_eq!(stage_scratch::get(), (0, 0, 0));
        stage_scratch::set_parse(1);
        stage_scratch::set_execute(2);
        stage_scratch::set_encode(3);
        assert_eq!(stage_scratch::get(), (1, 2, 3));
        stage_scratch::reset();
        assert_eq!(stage_scratch::get(), (0, 0, 0));
    }
}
