//! The `query` and `ingest` workloads: the shipped `serve` binary over a
//! seeded synthetic segment shaped like the real catalog.
//!
//! `query`: one keep-alive connection sends a seeded, skewed mix of
//! `/v1/query` and `/v1/record/{m}` targets. Every response is compared
//! with `uops_serve::respond` on an in-process `QueryService` over the same
//! segment.
//!
//! `ingest`: the same server with `--data-dir`. One writer connection POSTs
//! seeded TLV shards that overwrite live keys (the live record count stays
//! constant); one reader connection runs the query mix beside it. After the
//! run, `GenerationStore::open` on the data dir must recover the last
//! acknowledged generation, byte-identical to a client-side
//! `Segment::merge_refs` reference.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use uops_info::core_::snapshot::{uarch_meta, GENERATOR};
use uops_info::db::plan::{decode_component, encode_component, fnv1a_64, parse_query_pairs};
use uops_info::db::{
    codec, BinaryEncoder, GenerationStore, JsonEncoder, LatencyEdge, Query, QueryExec, QueryPlan,
    RealStoreIo, ResultEncoder, Segment, Snapshot, StoreIo, VariantRecord, XmlEncoder,
};
use uops_info::isa::Catalog;
use uops_info::serve::{respond, QueryService, ResponseTier};
use uops_info::uarch::MicroArch;

use crate::host::Drift;
use crate::http::Client;
use crate::stats::{self, Ratio, Rng};
use crate::trace::Tracer;
use crate::{Args, Outcome, SUM_TOLERANCE};

/// `--cache-mb` passed to the server (and used by the in-process
/// reference). The mix's distinct responses outgrow it within a second.
pub const CACHE_MB: usize = 4;
/// Server start-ups timed per run for `setup_s` (the median is reported).
const SETUP_SAMPLES: usize = 3;
/// Untimed mix traffic before the window, so the cache tiers are filled.
const WARMUP: Duration = Duration::from_secs(1);
/// How long the `ingest` reader connection runs after each ingest. The two
/// connections take turns: with reads in flight during a merge, the reader,
/// the server's read thread and its merge thread contend for two cores and
/// read latency measured the scheduler (spread 24–30% over ten seeds).
/// Every swap flushes both cache tiers, so a turn must be long enough for
/// hits to outnumber misses again (25 ms turns put p50 on the boundary).
const READ_SLICE: Duration = Duration::from_millis(50);
/// Records per ingested shard.
pub const SHARD_RECORDS: usize = 180;
/// Distinct hot targets (Zipf-popular) in the mix.
const HOT_TARGETS: usize = 64;
/// Share of requests for a hot target spelled as always (raw-tier hits).
const P_HOT: f64 = 0.62;
/// Share of requests for a hot plan in a new spelling: the raw tier, keyed
/// on the verbatim target, misses; the fingerprint tier hits.
const P_RESPELLED: f64 = 0.08;
// The remaining 30% are new plans: misses in both tiers.
/// Traced runs alternate traced and untraced blocks of this length to
/// measure the tracing overhead.
const TRACE_BLOCK: Duration = Duration::from_millis(250);
/// Ingests replayed in process by a traced `ingest` run.
const REPLAY_INGESTS: usize = 60;
/// Timed reads replayed in process by a traced `query` run.
const REPLAY_READS: usize = 60_000;
/// Every how many responses to a new target `query` checks.
const NEW_CHECK_EVERY: usize = 4;
/// Every how many acknowledged ingests the post-ingest read is compared
/// byte for byte with the in-process reference (the last one always is).
const VERIFY_EVERY: usize = 10;
/// Reads replayed after each replayed swap.
const READS_AFTER_SWAP: usize = 8;

// ---------------------------------------------------------------------------
// Store I/O meter
// ---------------------------------------------------------------------------

/// A `StoreIo` that performs the real syscalls and counts the bytes and
/// fsyncs, recording each step as a span when given a tracer.
pub struct StoreIoMeter<'a> {
    tracer: Option<&'a Tracer>,
    /// Operation the next spans belong to.
    op: AtomicU64,
    bytes: AtomicU64,
    fsyncs: AtomicU64,
}

impl<'a> StoreIoMeter<'a> {
    pub fn new(tracer: Option<&'a Tracer>) -> StoreIoMeter<'a> {
        StoreIoMeter {
            tracer,
            op: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
        }
    }

    pub fn set_op(&self, op: u64) {
        self.op.store(op, Ordering::Relaxed);
    }

    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    fn step<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match self.tracer {
            Some(tracer) => tracer.span(name, self.op.load(Ordering::Relaxed), f),
            None => f(),
        }
    }
}

impl StoreIo for StoreIoMeter<'_> {
    fn write_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.step("store.write", || RealStoreIo.write_file(path, bytes))
    }

    fn fsync_file(&self, path: &Path) -> std::io::Result<()> {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.step("store.fsync", || RealStoreIo.fsync_file(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.step("store.rename", || RealStoreIo.rename(from, to))
    }

    fn fsync_dir(&self, dir: &Path) -> std::io::Result<()> {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.step("store.dir_fsync", || RealStoreIo.fsync_dir(dir))
    }
}

// ---------------------------------------------------------------------------
// Synthetic data
// ---------------------------------------------------------------------------

/// The catalog's (mnemonic, variant, extension) triples × the uarches that
/// support them, with seeded values.
fn synthetic_snapshot(catalog: &Catalog, seed: u64) -> Snapshot {
    let mut rng = Rng::new(seed ^ 0x5e67_0000);
    let mut snapshot = Snapshot::new(GENERATOR);
    // Keyed like the segment writer (last writer wins per key), so every
    // record of the snapshot is a distinct live key.
    let mut records = std::collections::BTreeMap::new();
    for desc in catalog.iter() {
        for arch in MicroArch::ALL {
            if !arch.supports(desc.extension) {
                continue;
            }
            let mut record = VariantRecord {
                mnemonic: desc.mnemonic.clone(),
                variant: desc.variant(),
                extension: desc.extension.to_string(),
                uarch: arch.name().to_string(),
                ..VariantRecord::default()
            };
            randomize(&mut record, arch.port_count(), &mut rng);
            let key = (record.mnemonic.clone(), record.variant.clone(), record.uarch.clone());
            records.insert(key, record);
        }
    }
    snapshot.records = records.into_values().collect();
    for arch in MicroArch::ALL {
        let n = snapshot.records.iter().filter(|r| r.uarch == arch.name()).count();
        snapshot.upsert_uarch(uarch_meta(arch, n as u32, 0));
    }
    snapshot
}

/// Seeded, plausible values for a record's measured fields.
fn randomize(record: &mut VariantRecord, ports: u8, rng: &mut Rng) {
    let uops = 1 + rng.below(4) as u32;
    let mut masks: Vec<(u16, u32)> = Vec::new();
    for _ in 0..uops {
        let mask = (rng.next_u64() as u16 & ((1u16 << ports) - 1)).max(1);
        match masks.iter_mut().find(|(m, _)| *m == mask) {
            Some((_, n)) => *n += 1,
            None => masks.push((mask, 1)),
        }
    }
    masks.sort_unstable();
    record.uop_count = uops;
    record.ports = masks;
    record.unattributed = 0;
    record.tp_measured = (1 + rng.below(400)) as f64 / 100.0;
    record.tp_ports = rng.chance(0.8).then(|| (1 + rng.below(400)) as f64 / 100.0);
    record.tp_low_values = None;
    record.tp_breaking = rng.chance(0.1).then(|| (1 + rng.below(400)) as f64 / 100.0);
    record.latency = (0..1 + rng.below(3))
        .map(|i| LatencyEdge {
            source: i as u32 + 1,
            target: 0,
            cycles: (1 + rng.below(30)) as f64,
            upper_bound: rng.chance(0.05),
            same_reg_cycles: None,
            low_value_cycles: None,
        })
        .collect();
}

/// A shard of `SHARD_RECORDS` distinct live keys with new values.
fn make_shard(base: &Snapshot, rng: &mut Rng) -> Snapshot {
    let mut picked = HashSet::new();
    let mut shard = Snapshot::new(GENERATOR);
    while shard.records.len() < SHARD_RECORDS {
        let i = rng.below(base.records.len());
        if !picked.insert(i) {
            continue;
        }
        let mut record = base.records[i].clone();
        let arch = MicroArch::ALL.into_iter().find(|a| a.name() == record.uarch).expect("uarch");
        randomize(&mut record, arch.port_count(), rng);
        shard.records.push(record);
    }
    for meta in &base.uarches {
        if shard.records.iter().any(|r| r.uarch == meta.name) {
            shard.upsert_uarch(meta.clone());
        }
    }
    shard
}

// ---------------------------------------------------------------------------
// The request mix
// ---------------------------------------------------------------------------

/// What a target was drawn as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hot,
    Respelled,
    New,
}

/// A request before spelling: a path and its parameters.
#[derive(Debug, Clone)]
struct Target {
    /// `/v1/query` or `/v1/record/` followed by the mnemonic.
    record: Option<String>,
    params: Vec<(&'static str, String)>,
}

/// Names the mix draws filters from.
struct Vocabulary {
    mnemonics: Vec<String>,
    prefixes: Vec<String>,
    extensions: Vec<String>,
}

impl Vocabulary {
    fn of(snapshot: &Snapshot) -> Vocabulary {
        let mut mnemonics: Vec<String> =
            snapshot.records.iter().map(|r| r.mnemonic.clone()).collect();
        mnemonics.sort();
        mnemonics.dedup();
        let mut prefixes: Vec<String> =
            mnemonics.iter().map(|m| m.chars().take(2).collect()).collect();
        prefixes.sort();
        prefixes.dedup();
        let mut extensions: Vec<String> =
            snapshot.records.iter().map(|r| r.extension.clone()).collect();
        extensions.sort();
        extensions.dedup();
        Vocabulary { mnemonics, prefixes, extensions }
    }
}

/// The seeded, skewed request mix (see NOTES.md): Zipf-popular hot
/// targets, the same hot plans in fresh spellings, and plans never asked
/// before.
pub struct Mix {
    rng: Rng,
    vocab: Arc<Vocabulary>,
    hot: Vec<Target>,
    zipf: Vec<f64>,
    seen: HashSet<String>,
}

fn pick<'a>(rng: &mut Rng, items: &'a [String]) -> &'a str {
    &items[rng.below(items.len())]
}

impl Mix {
    fn new(vocab: Arc<Vocabulary>, seed: u64) -> Mix {
        let mut rng = Rng::new(seed ^ 0x0071_c000);
        let hot = (0..HOT_TARGETS).map(|_| Self::random_target(&vocab, &mut rng)).collect();
        Mix { rng, vocab, hot, zipf: stats::zipf_table(HOT_TARGETS), seen: HashSet::new() }
    }

    fn random_target(vocab: &Vocabulary, rng: &mut Rng) -> Target {
        let format = |rng: &mut Rng| match rng.below(5) {
            0 | 1 => None,
            2 => Some("json"),
            3 => Some("binary"),
            _ => Some("xml"),
        };
        let mut params: Vec<(&'static str, String)> = Vec::new();
        if rng.chance(0.3) {
            let name = pick(rng, &vocab.mnemonics).to_string();
            if rng.chance(0.8) {
                params.push(("uarch", MicroArch::ALL[rng.below(9)].name().to_string()));
            }
            if let Some(f) = format(rng) {
                params.push(("format", f.to_string()));
            }
            return Target { record: Some(name), params };
        }
        loop {
            if rng.chance(0.7) {
                params.push(("uarch", MicroArch::ALL[rng.below(9)].name().to_string()));
            }
            if rng.chance(0.4) {
                params.push(("prefix", pick(rng, &vocab.prefixes).to_string()));
            }
            if rng.chance(0.25) {
                params.push(("extension", pick(rng, &vocab.extensions).to_string()));
            }
            if !params.is_empty() {
                break;
            }
        }
        if rng.chance(0.3) {
            params.push(("port", rng.below(8).to_string()));
        }
        if rng.chance(0.15) {
            params.push(("max_uops", (1 + rng.below(3)).to_string()));
        }
        if rng.chance(0.75) {
            let sort = ["latency", "throughput", "uops", "mnemonic"][rng.below(4)];
            params.push(("sort", sort.to_string()));
        }
        if rng.chance(0.3) {
            params.push(("desc", "1".to_string()));
        }
        if rng.chance(0.3) {
            params.push(("offset", rng.below(100).to_string()));
        }
        params.push(("limit", [5, 10, 20, 40][rng.below(4)].to_string()));
        if let Some(f) = format(rng) {
            params.push(("format", f.to_string()));
        }
        Target { record: None, params }
    }

    /// The target as text. With `rng`, a fresh spelling of the same
    /// request: parameters shuffled and some letters percent-escaped.
    fn spell(target: &Target, mut rng: Option<&mut Rng>) -> String {
        let escape = |s: &str, rng: &mut Option<&mut Rng>| -> String {
            match rng {
                Some(r) => s
                    .chars()
                    .map(|c| {
                        if c.is_ascii_alphanumeric() && r.chance(0.3) {
                            format!("%{:02X}", c as u32)
                        } else {
                            encode_component(&c.to_string())
                        }
                    })
                    .collect(),
                None => encode_component(s),
            }
        };
        let mut out = match &target.record {
            Some(name) => format!("/v1/record/{}", escape(name, &mut rng)),
            None => "/v1/query".to_string(),
        };
        let mut params = target.params.clone();
        if let Some(r) = rng.as_deref_mut() {
            for i in (1..params.len()).rev() {
                params.swap(i, r.below(i + 1));
            }
        }
        for (i, (key, value)) in params.iter().enumerate() {
            out.push(if i == 0 { '?' } else { '&' });
            out.push_str(key);
            out.push('=');
            out.push_str(&escape(value, &mut rng));
        }
        out
    }

    fn next(&mut self) -> (String, Kind) {
        let x = self.rng.unit();
        if x < P_HOT {
            let i = stats::pick_zipf(&self.zipf, &mut self.rng);
            return (Self::spell(&self.hot[i], None), Kind::Hot);
        }
        if x < P_HOT + P_RESPELLED {
            let i = stats::pick_zipf(&self.zipf, &mut self.rng);
            for _ in 0..8 {
                let text = Self::spell(&self.hot[i], Some(&mut self.rng));
                if self.seen.insert(text.clone()) {
                    return (text, Kind::Respelled);
                }
            }
        }
        loop {
            let target = Self::random_target(&self.vocab, &mut self.rng);
            let text = Self::spell(&target, None);
            if self.seen.insert(text.clone()) {
                return (text, Kind::New);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The server process
// ---------------------------------------------------------------------------

/// Builds the shipped `serve` binary from this checkout and returns its
/// path.
fn serve_binary() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet", "-p", "uops-serve", "--bin", "serve"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err("building the serve binary failed".into());
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let path = Path::new(&target).join("release/serve");
    path.exists().then_some(path).ok_or_else(|| "serve binary not found".to_string())
}

/// A running `serve` process; killed and waited for on drop.
struct Server {
    child: Child,
    addr: SocketAddr,
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Starts the server and waits until it listens; returns it with the
    /// time from spawn to listening.
    fn start(
        bin: &Path,
        segment: &Path,
        data_dir: &Path,
        threads: usize,
    ) -> Result<(Server, f64), String> {
        let t = Instant::now();
        let mut child = Command::new(bin)
            .arg("--segment")
            .arg(segment)
            .args(["--addr", "127.0.0.1:0", "--cache-mb", &CACHE_MB.to_string()])
            .args(["--threads", &threads.to_string()])
            .arg("--data-dir")
            .arg(data_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("serve exited before listening".into());
            }
            if let Some(rest) = line.strip_prefix("listening on http://") {
                let addr = rest.split(' ').next().unwrap_or("");
                break addr
                    .parse::<SocketAddr>()
                    .map_err(|e| format!("bad address {addr}: {e}"))?;
            }
        };
        let setup = t.elapsed().as_secs_f64();
        Ok((Server { child, addr, _stdout: stdout }, setup))
    }

    fn peak_rss_mib(&self) -> f64 {
        crate::peak_rss_mib(self.child.id()).unwrap_or(0.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Starts `SETUP_SAMPLES` servers one after another (each on a fresh data
/// dir) and keeps the last; returns it, its data dir and the median
/// start-up time as measured. A start-up is process spawn, file reads and
/// fsyncs, which the host probe does not track: corrected by it, one run's
/// start-ups ranged 10–26 ms, measured they hold within a few percent.
fn start_server(
    dir: &Path,
    segment: &Path,
    threads: usize,
) -> Result<(Server, PathBuf, f64, Vec<f64>), String> {
    let bin = serve_binary()?;
    let mut times = Vec::new();
    let mut kept = None;
    for i in 0..SETUP_SAMPLES {
        let data = dir.join(format!("data-{i}"));
        let (server, setup) = Server::start(&bin, segment, &data, threads)?;
        times.push(setup);
        kept = Some((server, data));
    }
    let (server, data) = kept.expect("at least one sample");
    Ok((server, data, stats::median(&times), times))
}

/// Cache-tier counters from `/v1/stats`.
#[derive(Debug, Default, Clone, Copy)]
struct Tiers {
    raw_hits: f64,
    raw_misses: f64,
    fp_hits: f64,
    fp_misses: f64,
}

fn field_after(text: &str, section: &str, key: &str) -> Option<f64> {
    let at = text.find(section)?;
    let rest = &text[at + section.len()..];
    let at = rest.find(key)?;
    let digits: String =
        rest[at + key.len()..].trim_start().chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Reads the counters on a connection of its own, closed on return: `serve`
/// gives each open connection a worker thread, so an idle stats connection
/// would hold one of the two workers the timed connections need.
fn tiers(addr: SocketAddr) -> Result<Tiers, String> {
    let r =
        Client::new(addr).request("GET", "/v1/stats", b"").map_err(|e| format!("stats: {e}"))?;
    let text = String::from_utf8_lossy(&r.body);
    let get = |section, key| {
        field_after(&text, section, key).ok_or_else(|| format!("stats lack {section} {key}"))
    };
    Ok(Tiers {
        raw_hits: get("\"raw\": {", "\"hits\":")?,
        raw_misses: get("\"raw\": {", "\"misses\":")?,
        fp_hits: get("\"cache\": {", "\"hits\":")?,
        fp_misses: get("\"cache\": {", "\"misses\":")?,
    })
}

/// Tier shares over the window (`after - before`), as ratios of all
/// raw-tier lookups (every GET passes the raw tier first).
fn tier_shares(out: &mut Outcome, before: Tiers, after: Tiers) {
    let lookups = (after.raw_hits - before.raw_hits) + (after.raw_misses - before.raw_misses);
    let raw = Ratio::new(after.raw_hits - before.raw_hits, lookups);
    let fp = Ratio::new(after.fp_hits - before.fp_hits, lookups);
    let miss = Ratio::new(after.fp_misses - before.fp_misses, lookups);
    out.set("service.raw_hit_ratio", raw.value());
    out.set("service.fp_hit_ratio", fp.value());
    out.set("service.miss_ratio", miss.value());
    out.info(
        "hit_share",
        format!(
            "raw {:.4}, fingerprint {:.4}, miss {:.4} of {} lookups",
            raw.value(),
            fp.value(),
            miss.value(),
            lookups
        ),
    );
}

// ---------------------------------------------------------------------------
// The read loop
// ---------------------------------------------------------------------------

/// Everything one reader connection saw.
#[derive(Default)]
struct ReadLog {
    targets: Vec<String>,
    kinds: Vec<Kind>,
    latency_us: Vec<f64>,
    /// (status, fnv1a of body, body length) per request.
    answers: Vec<(u16, u64, usize)>,
    /// (requests, µs) in traced and untraced blocks, at reference speed.
    traced: (u64, f64),
    untraced: (u64, f64),
    /// Host slowdown samples and the measured (uncorrected) µs.
    slowdowns: Vec<f64>,
    raw_us: f64,
}

impl ReadLog {
    fn failed(&self) -> usize {
        self.answers.iter().filter(|a| a.0 != 200 || a.2 == 0).count()
    }

    fn latencies(&self) -> Vec<f64> {
        self.latency_us
            .iter()
            .zip(&self.answers)
            .map(|(&l, a)| if a.0 == 200 && a.2 > 0 { l } else { f64::INFINITY })
            .collect()
    }
}

/// True while `start.elapsed()` is in a traced block of a traced run.
fn in_traced_block(tracer: Option<&Tracer>, start: Instant) -> bool {
    tracer.is_some() && (start.elapsed().as_nanos() / TRACE_BLOCK.as_nanos()) % 2 == 1
}

/// Runs the mix untimed for `WARMUP`, so the cache tiers fill; returns
/// the targets sent.
fn warm_up(addr: SocketAddr, mix: &mut Mix) -> Result<Vec<String>, String> {
    let mut client = Client::new(addr);
    let mut targets = Vec::new();
    let t = Instant::now();
    while t.elapsed() < WARMUP {
        let (target, _) = mix.next();
        client.request("GET", &target, b"").map_err(|e| format!("warm-up read: {e}"))?;
        targets.push(target);
    }
    Ok(targets)
}

/// One keep-alive connection running the mix, one request at a time.
struct Reader<'a> {
    client: Client,
    mix: &'a mut Mix,
    tracer: Option<&'a Tracer>,
    /// Host probe when times are reported at reference speed.
    drift: Option<Drift>,
    start: Instant,
    log: ReadLog,
}

impl<'a> Reader<'a> {
    fn new(addr: SocketAddr, mix: &'a mut Mix, tracer: Option<&'a Tracer>, correct: bool) -> Self {
        Reader {
            client: Client::new(addr),
            mix,
            tracer,
            drift: correct.then(Drift::new),
            start: Instant::now(),
            log: ReadLog::default(),
        }
    }

    /// Sends requests for `duration`.
    fn run(&mut self, duration: Duration) {
        let until = Instant::now() + duration;
        while Instant::now() < until {
            let slowdown = self.drift.as_mut().map_or(1.0, |d| {
                d.tick();
                d.slowdown()
            });
            let (target, kind) = self.mix.next();
            let traced = in_traced_block(self.tracer, self.start);
            let client = &mut self.client;
            let t = Instant::now();
            let response = match self.tracer.filter(|_| traced) {
                Some(tr) => tr.span("http.read", self.log.latency_us.len() as u64, || {
                    client.request("GET", &target, b"")
                }),
                None => client.request("GET", &target, b""),
            };
            let us = t.elapsed().as_nanos() as f64 / 1e3;
            let log = &mut self.log;
            log.answers.push(match response {
                Ok(r) => (r.status, fnv1a_64(&r.body), r.body.len()),
                Err(_) => (0, 0, 0),
            });
            let spent = t.elapsed().as_nanos() as f64 / 1e3;
            log.raw_us += spent;
            let bucket = if traced { &mut log.traced } else { &mut log.untraced };
            bucket.0 += 1;
            bucket.1 += spent / slowdown;
            log.latency_us.push(us / slowdown);
            log.targets.push(target);
            log.kinds.push(kind);
        }
    }

    fn finish(mut self) -> ReadLog {
        self.log.slowdowns = self.drift.map(|d| d.samples).unwrap_or_default();
        self.log
    }
}

/// Compares timed responses with `respond` on an in-process service over
/// the same segment: every response to a hot target (as spelled or
/// respelled), and every `NEW_CHECK_EVERY`-th response to a new one.
/// Bodies are compared by length and FNV-1a hash. Returns
/// (byte-identical, checked).
fn check_reads(segment: &Arc<Segment>, log: &ReadLog) -> (usize, usize) {
    // Its own cache answers respelled plans from bytes it computed itself.
    let service = QueryService::from_segment(Arc::clone(segment), 64 << 20);
    let mut reference: HashMap<&str, (u16, u64, usize)> = HashMap::new();
    let (mut same, mut checked) = (0, 0);
    let timed = log.targets.iter().zip(&log.answers).zip(&log.kinds);
    for (i, ((target, answer), kind)) in timed.enumerate() {
        if *kind == Kind::New && i % NEW_CHECK_EVERY != 0 {
            continue;
        }
        let expected = *reference.entry(target.as_str()).or_insert_with(|| {
            let r = respond(&service, "GET", target);
            (r.status, fnv1a_64(&r.body), r.body.len())
        });
        same += usize::from(expected == *answer && expected.0 == 200);
        checked += 1;
    }
    (same, checked)
}

/// Writes the seeded segment; returns the snapshot, the segment, its path
/// and the snapshot's TLV size.
fn prepare(dir: &Path, seed: u64, out: &mut Outcome) -> (Snapshot, Arc<Segment>, PathBuf, usize) {
    let t = Instant::now();
    let catalog = Catalog::intel_core();
    out.set("isa.catalog_s", t.elapsed().as_secs_f64());
    let snapshot = synthetic_snapshot(&catalog, seed);
    let path = dir.join("live.seg");
    let segment = Arc::new(Segment::write(&snapshot, &path).expect("write the live segment"));
    let tlv = codec::encode(&snapshot).len();
    out.info("live_records", segment.len());
    out.info("segment_bytes", segment.as_bytes().len());
    out.info("cache_mb", CACHE_MB);
    (snapshot, segment, path, tlv)
}

/// Bytes of the store's files for generation `id` (image + manifest).
fn store_bytes(data_dir: &Path, id: u64) -> u64 {
    let size = |name: &str| std::fs::metadata(data_dir.join(name)).map_or(0, |m| m.len());
    size(&format!("gen-{id}.seg")) + size("MANIFEST")
}

fn report_latency(out: &mut Outcome, prefix: &str, samples: Vec<f64>) {
    let s = stats::summarize(samples);
    let (p50, p90) = match prefix {
        "read" => ("read_p50_us", "read_p90_us"),
        _ => ("latency_p50_us", "latency_p90_us"),
    };
    out.set(p50, s.p50);
    out.set(p90, s.p90);
    out.info(
        &format!("{prefix}_samples"),
        format!("{} ({} beyond p90; failures count as infinitely slow)", s.count, s.beyond_p90),
    );
    out.check(s.beyond_p90 >= 10, format!("only {} {prefix} samples beyond p90", s.beyond_p90));
}

// ---------------------------------------------------------------------------
// query
// ---------------------------------------------------------------------------

pub fn run_query(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let threads = crate::pin_to_one_core(&mut out);
    let dir = crate::WorkDir::new("query");
    let (snapshot, segment, seg_path, tlv) = prepare(&dir, args.seed, &mut out);
    let (server, data_dir, setup, setup_samples) = start_server(&dir, &seg_path, threads)?;
    out.info("setup_samples_s", format!("{setup_samples:.4?}"));
    let write_amp = Ratio::new(store_bytes(&data_dir, 1) as f64, tlv as f64);

    let vocab = Arc::new(Vocabulary::of(&snapshot));
    let mut mix = Mix::new(vocab, args.seed);
    let tracer = args.trace.then(Tracer::new);
    // Warm-up first, then the stats baseline, then the window.
    let warm = warm_up(server.addr, &mut mix)?;
    let before = tiers(server.addr)?;
    let mut reader = Reader::new(server.addr, &mut mix, tracer.as_ref(), true);
    reader.run(args.run_for());
    let log = reader.finish();
    let after = tiers(server.addr)?;
    let peak_rss = server.peak_rss_mib();
    drop(server);

    let n = log.answers.len();
    let failed = log.failed();
    out.attempted = n as u64;
    out.failed = failed as u64;
    let (same, checked) = check_reads(&segment, &log);
    let busy_s = log.traced.1 / 1e6 + log.untraced.1 / 1e6;
    out.set("setup_s", setup);
    out.set("ops_per_s", (n - failed) as f64 / busy_s);
    report_latency(&mut out, "latency", log.latencies());
    report_latency(&mut out, "read", log.latencies());
    out.set("ok_ratio", Ratio::new((n - failed) as f64, n as f64).value());
    out.set("truth_match_ratio", Ratio::new(same as f64, checked as f64).value());
    out.set("peak_rss_mib", peak_rss);
    out.set("write_amp", write_amp.value());
    out.info("truth_match", format!("{same} of {checked} responses byte-identical"));
    out.info(
        "write_amp_base",
        format!("{} store bytes at bootstrap / {} TLV bytes", write_amp.num, write_amp.den),
    );
    host_info(&mut out, &log.slowdowns, busy_s, log.raw_us / 1e6, n - failed);
    mix_shares(&mut out, &log);
    tier_shares(&mut out, before, after);

    if let Some(tracer) = &tracer {
        let service = QueryService::from_segment(Arc::clone(&segment), CACHE_MB << 20);
        let replay = replay_reads(&service, &segment, &warm, &log.targets, tracer);
        report_replay(&mut out, &replay, &log);
        let sum = Ratio::new(replay.stage_ns, replay.miss_ns);
        out.set("trace.sum_ratio", sum.value());
        out.check(
            (sum.value() - 1.0).abs() <= SUM_TOLERANCE,
            format!("plan+exec+encode sum to {:.3} of respond on misses", sum.value()),
        );
        out.check(replay.encoded_same, "replayed stages encoded different bytes than respond");
        out.set("trace.overhead", overhead(log.traced, log.untraced));
        let _ = tracer.write_tsv(&spans_path("query", args.seed));
    }
    Ok(out)
}

/// What the host-speed correction did to a loop's time.
fn host_info(out: &mut Outcome, slowdowns: &[f64], corrected_s: f64, raw_s: f64, ok: usize) {
    out.info(
        "host_slowdown",
        format!(
            "median {:.3} over {} probes; busy {corrected_s:.3} s at reference speed, {raw_s:.3} s \
             measured ({:.2} ops/s measured)",
            stats::median(slowdowns),
            slowdowns.len(),
            ok as f64 / raw_s
        ),
    );
}

fn spans_path(workload: &str, seed: u64) -> PathBuf {
    Path::new("perfbench/.work").join(format!("spans-{workload}-{seed}.tsv"))
}

/// traced ÷ untraced operations per second, from (ops, µs busy) pairs.
fn overhead(traced: (u64, f64), untraced: (u64, f64)) -> f64 {
    let rate = |(ops, us): (u64, f64)| Ratio::new(ops as f64, us).value();
    Ratio::new(rate(traced), rate(untraced)).value()
}

fn mix_shares(out: &mut Outcome, log: &ReadLog) {
    let count = |k: Kind| log.kinds.iter().filter(|&&x| x == k).count();
    out.info(
        "mix",
        format!(
            "{} requests: {} hot, {} hot respelled, {} new",
            log.kinds.len(),
            count(Kind::Hot),
            count(Kind::Respelled),
            count(Kind::New)
        ),
    );
}

/// What the in-process replay of a read sequence measured.
#[derive(Default)]
struct Replay {
    reads: usize,
    respond_ns: f64,
    misses: usize,
    after_swap: (usize, usize),
    miss_ns: f64,
    plan_ns: f64,
    exec_ns: f64,
    encode_ns: f64,
    stage_ns: f64,
    rows: usize,
    encoded_same: bool,
}

/// Replays the warm-up untimed, then the first `REPLAY_READS` timed
/// targets through `respond` in process, and each miss once more as its
/// plan, exec and encode stages.
fn replay_reads(
    service: &QueryService,
    segment: &Segment,
    warm: &[String],
    timed: &[String],
    tracer: &Tracer,
) -> Replay {
    let mut r = Replay { encoded_same: true, ..Replay::default() };
    for target in warm {
        let _ = respond(service, "GET", target);
    }
    let mut drift = Drift::new();
    for (i, target) in timed.iter().take(REPLAY_READS).enumerate() {
        drift.tick();
        replay_one(service, segment, target, i as u64, tracer, &mut r, drift.slowdown());
    }
    r
}

fn replay_one(
    service: &QueryService,
    segment: &Segment,
    target: &str,
    op: u64,
    tracer: &Tracer,
    r: &mut Replay,
    slowdown: f64,
) -> ResponseTier {
    // Whichever of `respond` and the separate stages runs second finds the
    // data warm in the CPU caches, so the order alternates per read.
    let stages_first = op.is_multiple_of(2);
    let early = if stages_first { stages(segment, target, tracer, op) } else { None };
    let t = Instant::now();
    let response = tracer.span("service.respond", op, || respond(service, "GET", target));
    let ns = t.elapsed().as_nanos() as f64 / slowdown;
    r.reads += 1;
    r.respond_ns += ns;
    if response.tier == ResponseTier::Uncached {
        r.misses += 1;
        r.miss_ns += ns;
        let staged = if stages_first { early } else { stages(segment, target, tracer, op) };
        if let Some((plan, exec, encode, rows, bytes)) = staged {
            let (plan, exec, encode) = (plan / slowdown, exec / slowdown, encode / slowdown);
            r.plan_ns += plan;
            r.exec_ns += exec;
            r.encode_ns += encode;
            r.stage_ns += plan + exec + encode;
            r.rows += rows;
            r.encoded_same &= bytes == response.body.as_ref();
        }
    }
    response.tier
}

/// The uncached pipeline of one target as separate public calls: plan
/// (parse; for records the service's plan builder), exec, encode. Returns
/// the three stage times (ns), the rows and the encoded bytes.
fn stages(
    segment: &Segment,
    target: &str,
    tracer: &Tracer,
    op: u64,
) -> Option<(f64, f64, f64, usize, Vec<u8>)> {
    let timed = |name, f: &mut dyn FnMut()| {
        let t = Instant::now();
        tracer.span(name, op, f);
        t.elapsed().as_nanos() as f64
    };
    let mut planned = None;
    let plan_ns = timed("db.plan", &mut || planned = plan_of(target));
    let (plan, format) = planned?;
    let db = segment.db();
    let mut result = None;
    let exec_ns = timed("db.exec", &mut || result = Some(QueryExec::new().run(&plan, &db)));
    let result = result.expect("exec ran");
    let mut bytes = Vec::new();
    let encode_ns = timed("db.encode", &mut || {
        bytes = match format.as_str() {
            "binary" => BinaryEncoder.encode_result(&result),
            "xml" => XmlEncoder.encode_result(&result),
            _ => JsonEncoder.encode_result(&result),
        }
    });
    Some((plan_ns, exec_ns, encode_ns, result.rows.len(), bytes))
}

fn plan_of(target: &str) -> Option<(QueryPlan, String)> {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    let mut format = "json".to_string();
    let mut rest = Vec::new();
    for (key, value) in parse_query_pairs(query).ok()? {
        if key == "format" {
            format = value;
        } else {
            rest.push((key, value));
        }
    }
    let plan = match path.strip_prefix("/v1/record/") {
        Some(raw) => {
            let name = decode_component(&raw.replace('+', "%2B")).ok()?;
            let mut query = Query::new().mnemonic(name);
            for (key, value) in rest {
                if key == "uarch" {
                    query = query.uarch(value);
                }
            }
            query.into_plan()
        }
        None => QueryPlan::from_pairs(rest).ok()?,
    };
    Some((plan, format))
}

fn report_replay(out: &mut Outcome, r: &Replay, log: &ReadLog) {
    let service_us = stats::per(r.respond_ns / 1e3, r.reads);
    out.set("service.us", service_us);
    let http_us = stats::per(log.latency_us.iter().sum::<f64>(), log.latency_us.len());
    out.set("http.transport_us", http_us - service_us);
    out.set("db.plan_us", stats::per(r.plan_ns / 1e3, r.misses));
    out.set("db.exec_us", stats::per(r.exec_ns / 1e3, r.misses));
    out.set("db.encode_us", stats::per(r.encode_ns / 1e3, r.misses));
    out.set("db.rows_per_miss", stats::per(r.rows as f64, r.misses));
    out.info(
        "replay",
        format!(
            "{} reads in process, {} misses (mean {:.2} us)",
            r.reads,
            r.misses,
            stats::per(r.miss_ns / 1e3, r.misses)
        ),
    );
}

// ---------------------------------------------------------------------------
// ingest
// ---------------------------------------------------------------------------

/// One acknowledged (or failed) ingest.
struct Ingest {
    tlv: Vec<u8>,
    ok: bool,
    generation: u64,
    latency_us: f64,
    verify_target: String,
    verify_body: Vec<u8>,
    written: u64,
}

fn json_u64(text: &str, key: &str) -> Option<u64> {
    field_after(text, "{", &format!("\"{key}\":")).map(|v| v as u64)
}

pub fn run_ingest(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let threads = crate::pin_to_one_core(&mut out);
    let dir = crate::WorkDir::new("ingest");
    let (snapshot, segment, seg_path, _) = prepare(&dir, args.seed, &mut out);
    let live = segment.len() as u64;
    let (server, data_dir, setup, setup_samples) = start_server(&dir, &seg_path, threads)?;
    out.info("setup_samples_s", format!("{setup_samples:.4?}"));
    out.info("shard_records", SHARD_RECORDS);
    let tracer = args.trace.then(Tracer::new);
    let vocab = Arc::new(Vocabulary::of(&snapshot));
    let mut mix = Mix::new(vocab, args.seed ^ 0x00ea_de25);
    let warm = warm_up(server.addr, &mut mix)?;
    let before = tiers(server.addr)?;

    let window = args.run_for();
    let addr = server.addr;
    let mut reader = Reader::new(addr, &mut mix, tracer.as_ref(), false);
    let writes = write_loop(
        addr,
        &snapshot,
        &data_dir,
        (args.seed, live),
        window,
        tracer.as_ref(),
        &mut || reader.run(READ_SLICE),
    )?;
    let log = reader.finish();
    let ingests = &writes.ingests;
    let after = tiers(server.addr)?;
    let peak_rss = server.peak_rss_mib();
    drop(server);

    let acked: Vec<&Ingest> = ingests.iter().filter(|i| i.ok).collect();
    let attempted = ingests.len() + log.answers.len();
    let failed = (ingests.len() - acked.len()) + log.failed();
    out.attempted = attempted as u64;
    out.failed = failed as u64;
    out.info("ingests", format!("{} acknowledged of {}", acked.len(), ingests.len()));

    // Reference: the live segment merged client-side with the acknowledged
    // shards, a batch per checkpoint. Every VERIFY_EVERY-th verification
    // read (and the last) must equal `respond` on the reference generation
    // it followed; the last reference holds every acknowledged shard.
    let shards: Vec<Segment> = acked
        .iter()
        .map(|i| shard_segment(&i.tlv))
        .collect::<Option<_>>()
        .ok_or("a shard failed to decode")?;
    let merged = |base: &Segment, shards: &[Segment]| {
        let mut parts: Vec<&Segment> = vec![base];
        parts.extend(shards);
        Segment::merge_refs(&parts)
    };
    let (mut same, mut checked) = (0usize, 0usize);
    let (mut current, mut applied) = (Arc::clone(&segment), 0);
    for (i, ingest) in acked.iter().enumerate() {
        if i % VERIFY_EVERY != 0 && i + 1 != acked.len() {
            continue;
        }
        current = Arc::new(merged(&current, &shards[applied..=i]));
        applied = i + 1;
        let service = QueryService::from_segment(Arc::clone(&current), 0);
        let expected = respond(&service, "GET", &ingest.verify_target);
        same += usize::from(expected.status == 200 && *expected.body == *ingest.verify_body);
        checked += 1;
    }
    let recovered = GenerationStore::open(&data_dir)
        .map_err(|e| format!("reopening the data dir: {e}"))?
        .ok_or("the data dir holds no manifest")?;
    let generation = recovered.store.current();
    let last_acked = acked.last().map_or(1, |i| i.generation);
    out.check(
        generation.id == last_acked,
        format!("recovered generation {} but {last_acked} was acknowledged last", generation.id),
    );
    out.check(
        generation.segment.as_bytes() == current.as_bytes(),
        "recovered generation differs from the client-side merge reference",
    );
    out.info(
        "recovered_generation",
        format!("{} ({} records)", generation.id, generation.segment.len()),
    );

    let latencies: Vec<f64> =
        ingests.iter().map(|i| if i.ok { i.latency_us } else { f64::INFINITY }).collect();
    let shard_bytes: usize = acked.iter().map(|i| i.tlv.len()).sum();
    let written: u64 = acked.iter().map(|i| i.written).sum();
    let write_amp = Ratio::new(written as f64, shard_bytes as f64);
    out.set("setup_s", setup);
    let busy_s = (writes.traced.1 + writes.untraced.1) / 1e6;
    out.set("ops_per_s", acked.len() as f64 / busy_s);
    report_latency(&mut out, "latency", latencies);
    report_latency(&mut out, "read", log.latencies());
    out.set("ok_ratio", Ratio::new((attempted - failed) as f64, attempted as f64).value());
    out.set("truth_match_ratio", Ratio::new(same as f64, checked as f64).value());
    out.set("peak_rss_mib", peak_rss);
    out.set("write_amp", write_amp.value());
    out.info(
        "truth_match",
        format!("{same} of {checked} checked post-ingest reads byte-identical"),
    );
    out.info(
        "write_amp_base",
        format!("{} store bytes / {} shard TLV bytes", write_amp.num, write_amp.den),
    );
    mix_shares(&mut out, &log);
    tier_shares(&mut out, before, after);

    if let Some(tracer) = &tracer {
        let (replay, replayed, replayed_hash) =
            replay_ingests(&dir, &segment, &acked, &warm, &log.targets, tracer, &mut out)?;
        out.check(
            replayed_hash == fnv1a_64(merged(&segment, &shards[..replayed]).as_bytes()),
            "the in-process replay published other generation bytes than the server",
        );
        report_replay(&mut out, &replay, &log);
        out.set(
            "service.miss_ratio_after_swap",
            Ratio::new(replay.after_swap.0 as f64, replay.after_swap.1 as f64).value(),
        );
        out.set("trace.overhead", overhead(writes.traced, writes.untraced));
        let _ = tracer.write_tsv(&spans_path("ingest", args.seed));
    }
    Ok(out)
}

/// The segment the server builds from a TLV shard.
fn shard_segment(tlv: &[u8]) -> Option<Segment> {
    let snapshot = codec::decode(tlv).ok()?;
    Segment::from_bytes(Segment::encode(&snapshot)).ok()
}

/// Everything the writer connection did.
struct WriteLog {
    ingests: Vec<Ingest>,
    /// (ingests, µs) in traced and untraced blocks.
    traced: (u64, f64),
    untraced: (u64, f64),
}

/// The writer connection: POSTs shards for the window, running `between`
/// (the reader's turn) after each. After each acknowledgement it reads one
/// overwritten record back, which must already show the shard's value.
fn write_loop(
    addr: SocketAddr,
    base: &Snapshot,
    data_dir: &Path,
    (seed, live): (u64, u64),
    window: Duration,
    tracer: Option<&Tracer>,
    between: &mut dyn FnMut(),
) -> Result<WriteLog, String> {
    let mut client = Client::new(addr);
    let mut rng = Rng::new(seed ^ 0x0005_4a2d);
    let mut ingests = Vec::new();
    let (mut traced, mut untraced) = ((0u64, 0f64), (0u64, 0f64));
    let start = Instant::now();
    while start.elapsed() < window {
        let begin = Instant::now();
        let shard = make_shard(base, &mut rng);
        let tlv = codec::encode(&shard);
        let in_trace = in_traced_block(tracer, start);
        let t = Instant::now();
        let response = match tracer.filter(|_| in_trace) {
            Some(tr) => tr.span("http.ingest", ingests.len() as u64, || {
                client.request("POST", "/v1/ingest", &tlv)
            }),
            None => client.request("POST", "/v1/ingest", &tlv),
        };
        let latency_us = t.elapsed().as_nanos() as f64 / 1e3;
        let (mut ok, mut generation) = (false, 0);
        if let Ok(r) = &response {
            let text = String::from_utf8_lossy(&r.body);
            generation = json_u64(&text, "generation").unwrap_or(0);
            ok = r.status == 200
                && json_u64(&text, "ingested_records") == Some(SHARD_RECORDS as u64)
                && json_u64(&text, "live_records") == Some(live);
        }
        let probe = &shard.records[0];
        let verify_target = format!(
            "/v1/record/{}?uarch={}&format=binary",
            encode_component(&probe.mnemonic),
            encode_component(&probe.uarch)
        );
        let mut verify_body = Vec::new();
        if ok {
            let visible =
                client.request("GET", &verify_target, b"").ok().filter(|r| r.status == 200);
            ok = visible.as_ref().is_some_and(|r| {
                BinaryEncoder::decode_rows(&r.body).is_ok_and(|(_, rows)| rows.contains(probe))
            });
            verify_body = visible.map(|r| r.body).unwrap_or_default();
        }
        let written = if ok { store_bytes(data_dir, generation) } else { 0 };
        ingests.push(Ingest {
            tlv,
            ok,
            generation,
            latency_us,
            verify_target,
            verify_body,
            written,
        });
        let spent = begin.elapsed().as_nanos() as f64 / 1e3;
        let bucket = if in_trace { &mut traced } else { &mut untraced };
        bucket.0 += 1;
        bucket.1 += spent;
        between();
    }
    Ok(WriteLog { ingests, traced, untraced })
}

/// Replays the first acknowledged ingests in process as the server's
/// sequence of public calls — decode, merge, publish (through a metered
/// `StoreIo`), swap — each followed by reads from the reader's sequence.
#[allow(clippy::too_many_arguments)]
fn replay_ingests(
    dir: &Path,
    segment: &Arc<Segment>,
    acked: &[&Ingest],
    warm: &[String],
    reads: &[String],
    tracer: &Tracer,
    out: &mut Outcome,
) -> Result<(Replay, usize, u64), String> {
    let store = GenerationStore::bootstrap(dir.join("replay"), Arc::clone(segment), &RealStoreIo)
        .map_err(|e| format!("replay store: {e}"))?;
    let service = QueryService::from_segment(Arc::clone(segment), CACHE_MB << 20);
    let mut r = Replay { encoded_same: true, ..Replay::default() };
    for target in warm {
        let _ = respond(&service, "GET", target);
    }
    let meter = StoreIoMeter::new(Some(tracer));
    let n = acked.len().min(REPLAY_INGESTS);
    let per_ingest = (reads.len() / acked.len().max(1)).clamp(READS_AFTER_SWAP, 200);
    let mark = tracer.mark();
    let mut read_at = 0usize;
    for (i, ingest) in acked[..n].iter().enumerate() {
        let op = i as u64;
        meter.set_op(op);
        let id = tracer.open("ingest", op);
        let incoming = tracer.span("db.decode", op, || shard_segment(&ingest.tlv));
        let incoming = incoming.ok_or("a shard failed to decode")?;
        let current = store.current();
        let merged =
            tracer.span("db.merge", op, || Segment::merge_refs(&[&current.segment, &incoming]));
        let generation = tracer
            .span("store.publish", op, || store.publish(Arc::new(merged), &meter))
            .map_err(|e| format!("replay publish: {e}"))?;
        tracer.span("service.swap", op, || {
            service.swap_segment(Arc::clone(&generation.segment), generation.id)
        });
        tracer.close(id);
        for k in 0..per_ingest.min(reads.len()) {
            let target = &reads[(read_at + k) % reads.len()];
            let tier = replay_one(&service, segment, target, op, tracer, &mut r, 1.0);
            if k < READS_AFTER_SWAP {
                r.after_swap.1 += 1;
                r.after_swap.0 += usize::from(tier == ResponseTier::Uncached);
            }
        }
        read_at += per_ingest;
    }
    let totals = tracer.totals_since(mark);
    let total = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64);
    let per_us = |name: &str| stats::per(total(name) / 1e3, n);
    out.set("db.decode_us", per_us("db.decode"));
    out.set("db.merge_us", per_us("db.merge"));
    out.set("service.swap_us", per_us("service.swap"));
    out.set("store.write_us", per_us("store.write"));
    out.set("store.fsync_us", per_us("store.fsync"));
    out.set("store.rename_us", per_us("store.rename"));
    out.set("store.dir_fsync_us", per_us("store.dir_fsync"));
    out.set("store.bytes_per_ingest", stats::per(meter.bytes() as f64, n));
    out.set("store.fsyncs_per_ingest", stats::per(meter.fsyncs() as f64, n));
    let parts =
        total("db.decode") + total("db.merge") + total("store.publish") + total("service.swap");
    let sum = Ratio::new(parts, total("ingest"));
    out.set("trace.sum_ratio", sum.value());
    out.check(
        (sum.value() - 1.0).abs() <= SUM_TOLERANCE,
        format!("decode+merge+publish+swap sum to {:.3} of the ingest", sum.value()),
    );
    out.info("replayed_ingests", n);
    Ok((r, n, fnv1a_64(store.current().segment.as_bytes())))
}
