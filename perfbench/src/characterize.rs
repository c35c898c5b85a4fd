//! The `characterize` workload: the paper's own pipeline, one variant per
//! operation.
//!
//! One client calls `CharacterizationEngine::characterize_variant`
//! serially, in a worker process, on a seeded sample of characterizable
//! (variant, uarch) pairs across all nine uarches. The sample has a fixed
//! size, so which variants a run attempts, and which of them fail, depends
//! on the seed alone and not on the host's speed. The worker exists so a
//! variant that never returns (`PAUSE` spins the simulator's dispatch loop)
//! can be killed at its deadline: the client kills it, waits for it to end,
//! and starts a fresh one with the timed clock stopped, so nothing spins on
//! a core while later operations are timed.
//!
//! The traced run (`--trace 1`) times each variant three ways in the
//! worker: the plain engine call, the engine call on a timing
//! `MeasurementBackend` around `SimBackend`, and a replay of the engine's
//! sequence of public stage calls on the same wrapper, which must produce
//! the same profile.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, ExitCode, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use uops_info::asm::{CodeSequence, Inst, RegisterPool};
use uops_info::core_::snapshot::{uarch_meta, GENERATOR};
use uops_info::core_::{
    infer_port_usage, isolation_profile, measure_throughput, naive_port_usage, profile_to_record,
    reports_to_snapshot, throughput_from_port_usage, BlockingInstructions, ChainCalibration,
    CharacterizationEngine, CharacterizationReport, CoreError, EngineConfig, InstructionProfile,
    LatencyAnalyzer, VectorWorld,
};
use uops_info::db::plan::{encode_component, fnv1a_64};
use uops_info::db::{codec, BinaryEncoder, GenerationStore, Segment, Snapshot, VariantRecord};
use uops_info::isa::{Catalog, InstructionDesc};
use uops_info::measure::{MeasurementBackend, PerfCounters, RunContext, SimBackend};
use uops_info::serve::{respond, QueryService};
use uops_info::uarch::{characterize, MicroArch, TruthOptions, UarchConfig};

use crate::host::Drift;
use crate::serving::StoreIoMeter;
use crate::stats::{self, Ratio, Summary};
use crate::trace::Tracer;
use crate::{Args, Outcome, SUM_TOLERANCE};

/// Deadline of one variant. The slowest variant seen takes ~140 ms on the
/// 2-core reference box, so a variant still running after two seconds is
/// stuck, not slow; the margin keeps a slow host phase from failing one.
const OP_DEADLINE: Duration = Duration::from_secs(2);
/// Time allowed for a worker's one-time setup.
const READY_DEADLINE: Duration = Duration::from_secs(120);
/// Worker start-ups timed per run for `setup_s` (the median is reported).
const SETUP_SAMPLES: usize = 3;
/// Variants attempted per second of `--seconds`. The reference box
/// characterizes about 75 a second, so there a run measures for about
/// `--seconds`.
const OPS_PER_SECOND: f64 = 75.0;
/// How long the record lookups over the run's snapshot run, after the
/// last operation. They cannot be spread through the run instead: any
/// pause of the worker, even ten 200 ms ones, slowed the variants after it
/// by ~15% on the reference box. 2 s in one host phase spread the corrected
/// read p90 by up to 0.20 over ten seeds.
const READ_TIME: Duration = Duration::from_secs(6);

/// All (uarch index, catalog uid) pairs the engine accepts.
/// `CharacterizationEngine::supports` is the only filter.
///
/// The pairs are sorted by a cost class taken from the simulator's ground
/// truth (µop count, number of port combinations, critical-path latency),
/// which the benchmark, as the experimenter, may read and the program
/// under test never sees. The sampling order below then stratifies every
/// prefix by cost class, so the latency tail of a run depends little on
/// which seed picked it.
fn characterizable_pairs(catalog: &Catalog) -> Vec<(usize, usize)> {
    let mut keyed = Vec::new();
    for (a, arch) in MicroArch::ALL.into_iter().enumerate() {
        let engine = CharacterizationEngine::with_config(catalog, arch, EngineConfig::fast());
        let config = UarchConfig::for_arch(arch);
        for desc in catalog.iter().filter(|d| engine.supports(d).is_none()) {
            let mut pool = RegisterPool::new();
            let arc = Arc::new(desc.clone());
            let class = match Inst::bind(&arc, &BTreeMap::new(), &mut pool) {
                Ok(inst) => {
                    let truth = characterize(&inst, &config, TruthOptions::default());
                    (truth.uop_count(), truth.port_usage().len(), truth.critical_path_latency())
                }
                Err(_) => (usize::MAX, 0, 0),
            };
            keyed.push((desc.extension, class, a, desc.uid));
        }
    }
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, _, a, uid)| (a, uid)).collect()
}

/// The seeded order in which pairs are characterized: a Kronecker
/// (golden-ratio) sequence with a seeded start. Every pair is equally
/// likely to appear at each position, and any prefix is spread evenly over
/// the uarch/catalog order, so a time-bounded run sees each uarch and
/// extension at close to its catalog share.
fn sample_order(n: usize, seed: u64) -> impl Iterator<Item = usize> {
    const PHI: f64 = 0.618_033_988_749_894_9;
    let start = stats::Rng::new(seed).unit();
    let mut seen = vec![false; n];
    (0u64..).map(move |k| (start + k as f64 * PHI).fract()).filter_map(move |x| {
        let i = ((x * n as f64) as usize).min(n - 1);
        (!std::mem::replace(&mut seen[i], true)).then_some(i)
    })
}

/// Variants a run of `seconds` attempts: `OPS_PER_SECOND` per second, at
/// least one and at most every pair once.
fn sample_size(seconds: f64, pairs: usize) -> usize {
    ((seconds * OPS_PER_SECOND).round() as usize).clamp(1, pairs)
}

/// One worker's answer to one operation.
#[derive(Debug, Default, Clone)]
struct Reply {
    ok: bool,
    /// Time in `characterize_variant` as the worker measured it.
    ns: u64,
    /// The worker's host slowdown when it ran the variant.
    slowdown: f64,
    /// Time the worker spent probing the host inside this operation.
    probe_ns: u64,
    truth: bool,
    record: Option<VariantRecord>,
    error: String,
    traced: Option<TracedOp>,
}

/// Traced-run figures of one operation (see the module docs).
#[derive(Debug, Default, Clone, Copy)]
struct TracedOp {
    untraced_ns: u64,
    traced_ns: u64,
    busy_ns: u64,
    runs: u64,
    insts: u64,
    cycles: u64,
    isolation_ns: u64,
    naive_ns: u64,
    latency_ns: u64,
    port_usage_ns: u64,
    throughput_ns: u64,
    lp_ns: u64,
    core_self_ns: u64,
    same: bool,
}

impl TracedOp {
    const FIELDS: usize = 14;

    fn render(&self) -> String {
        let t = self;
        format!(
            "{} {} {} {} {} {} {} {} {} {} {} {} {} {}",
            t.untraced_ns,
            t.traced_ns,
            t.busy_ns,
            t.runs,
            t.insts,
            t.cycles,
            t.isolation_ns,
            t.naive_ns,
            t.latency_ns,
            t.port_usage_ns,
            t.throughput_ns,
            t.lp_ns,
            t.core_self_ns,
            u8::from(t.same)
        )
    }

    fn parse(fields: &[&str]) -> Option<TracedOp> {
        if fields.len() != Self::FIELDS {
            return None;
        }
        let n: Vec<u64> = fields.iter().map(|f| f.parse().ok()).collect::<Option<_>>()?;
        Some(TracedOp {
            untraced_ns: n[0],
            traced_ns: n[1],
            busy_ns: n[2],
            runs: n[3],
            insts: n[4],
            cycles: n[5],
            isolation_ns: n[6],
            naive_ns: n[7],
            latency_ns: n[8],
            port_usage_ns: n[9],
            throughput_ns: n[10],
            lp_ns: n[11],
            core_self_ns: n[12],
            same: n[13] == 1,
        })
    }

    /// The times (not the counts) divided by `slowdown`.
    fn at_reference(mut self, slowdown: f64) -> TracedOp {
        for t in [
            &mut self.untraced_ns,
            &mut self.traced_ns,
            &mut self.busy_ns,
            &mut self.isolation_ns,
            &mut self.naive_ns,
            &mut self.latency_ns,
            &mut self.port_usage_ns,
            &mut self.throughput_ns,
            &mut self.lp_ns,
            &mut self.core_self_ns,
        ] {
            *t = (*t as f64 / slowdown) as u64;
        }
        self
    }

    /// Σ of the replayed stages (the in-process parts of the whole).
    fn stage_sum_ns(&self) -> u64 {
        self.isolation_ns
            + self.naive_ns
            + self.latency_ns
            + self.port_usage_ns
            + self.throughput_ns
            + self.lp_ns
    }
}

/// Parses `ok|err <ns> <slowdown> <probe_ns> ...` from a worker.
fn parse_reply(line: &str) -> Option<Reply> {
    let fields: Vec<&str> = line.split(' ').collect();
    let mut reply = Reply {
        ns: fields.get(1)?.parse().ok()?,
        slowdown: fields.get(2)?.parse().ok()?,
        probe_ns: fields.get(3)?.parse().ok()?,
        ..Reply::default()
    };
    match *fields.first()? {
        "ok" => {
            reply.ok = true;
            reply.truth = *fields.get(4)? == "1";
            let bytes = hex_decode(fields.get(5)?)?;
            reply.record = Some(codec::decode(&bytes).ok()?.records.into_iter().next()?);
            if fields.len() > 6 {
                reply.traced = Some(TracedOp::parse(&fields[6..])?);
            }
        }
        "err" => reply.error = fields[4..].join(" "),
        _ => return None,
    }
    (reply.slowdown > 0.0).then_some(reply)
}

fn hex_encode(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok()).collect()
}

/// A running worker process and the thread that reads its replies.
struct Worker {
    child: Child,
    stdin: ChildStdin,
    replies: Receiver<String>,
    reader: Option<JoinHandle<()>>,
    /// Fields of the worker's `ready` line.
    ready: Vec<u64>,
}

#[derive(Debug)]
enum WaitError {
    Timeout,
    Died,
}

impl Worker {
    fn spawn(trace: bool, spans: &Path) -> Result<Worker, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
        let mut child = Command::new(exe)
            .arg("worker")
            .arg(if trace { "1" } else { "0" })
            .arg(spans)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start worker: {e}"))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, replies) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut worker = Worker { child, stdin, replies, reader: Some(reader), ready: Vec::new() };
        match worker.wait(READY_DEADLINE) {
            Ok(line) if line.starts_with("ready") => {
                worker.ready = line.split(' ').skip(1).filter_map(|f| f.parse().ok()).collect();
                Ok(worker)
            }
            other => {
                worker.kill();
                Err(format!("worker did not become ready: {other:?}"))
            }
        }
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.stdin, "{line}").map_err(|e| format!("worker pipe: {e}"))
    }

    fn wait(&mut self, deadline: Duration) -> Result<String, WaitError> {
        match self.replies.recv_timeout(deadline) {
            Ok(line) => Ok(line),
            Err(RecvTimeoutError::Timeout) => Err(WaitError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(WaitError::Died),
        }
    }

    fn peak_rss_mib(&self) -> f64 {
        crate::peak_rss_mib(self.child.id()).unwrap_or(0.0)
    }

    /// The host slowdown during the worker's set-up.
    fn setup_slowdown(&self) -> f64 {
        ready_slowdown(&self.ready)
    }

    /// Kills the worker and waits until it and its reader have ended.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }

    /// Asks the worker to write its spans and exit, then waits for it.
    fn quit(mut self) {
        if self.send("quit").is_ok() && self.wait(Duration::from_secs(30)).is_ok() {
            let _ = self.child.wait();
        }
        self.kill();
    }
}

impl Drop for Worker {
    fn drop(&mut self) {
        self.kill();
    }
}

/// One attempted operation as the client saw it.
struct Op {
    pair: (usize, usize),
    reply: Option<Reply>,
    timed_out: bool,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    crate::pin_to_one_core(&mut out);
    let dir = crate::WorkDir::new("characterize");
    let spans = Path::new("perfbench/.work").join(format!("spans-characterize-{}.tsv", args.seed));
    let catalog = Catalog::intel_core();
    let pairs = characterizable_pairs(&catalog);
    let n_ops = sample_size(args.seconds, pairs.len());

    // Set-up: worker start → ready, i.e. catalog + 9 × (blocking
    // discovery + chain calibration). Timed several times, median kept.
    let samples = if args.trace { 1 } else { SETUP_SAMPLES };
    let mut setup_s = Vec::new();
    let mut raw_setup_s = Vec::new();
    let mut worker = None;
    for i in 0..samples {
        let t = Instant::now();
        let w = Worker::spawn(args.trace, &spans)?;
        raw_setup_s.push(t.elapsed().as_secs_f64());
        setup_s.push(t.elapsed().as_secs_f64() / w.setup_slowdown());
        if i + 1 < samples {
            w.quit();
        } else {
            worker = Some(w);
        }
    }
    let mut worker = worker.expect("at least one set-up sample");
    let mut ready_lines = vec![worker.ready.clone()];
    let mut slowdown = worker.setup_slowdown();
    let mut raw_timed = Duration::ZERO;
    let mut peak_rss = 0.0f64;
    let mut restarts = 0u32;

    let deadline = if args.trace { OP_DEADLINE * 3 } else { OP_DEADLINE };
    let mut timed = Duration::ZERO;
    let mut ops: Vec<Op> = Vec::new();
    let mut records: Vec<VariantRecord> = Vec::new();
    for i in sample_order(pairs.len(), args.seed).take(n_ops) {
        let start = Instant::now();
        let pair = pairs[i];
        worker.send(&format!("op {} {}", pair.0, pair.1))?;
        let mut op = Op { pair, reply: None, timed_out: false };
        let mut restart = Duration::ZERO;
        let mut probing = Duration::ZERO;
        match worker.wait(deadline) {
            Ok(line) => {
                let reply = parse_reply(&line).ok_or_else(|| format!("bad reply {line:?}"))?;
                slowdown = reply.slowdown;
                probing = Duration::from_nanos(reply.probe_ns);
                op.reply = Some(reply);
            }
            Err(e) => {
                // A stuck (or crashed) variant: count it failed, kill the
                // worker and wait for it, then restart with the clock off.
                op.timed_out = matches!(e, WaitError::Timeout);
                let elapsed = start.elapsed();
                peak_rss = peak_rss.max(worker.peak_rss_mib());
                worker.kill();
                worker = Worker::spawn(args.trace, &spans)?;
                ready_lines.push(worker.ready.clone());
                restarts += 1;
                restart = start.elapsed() - elapsed;
            }
        }
        // A timed-out operation counts as failed; the wait for its deadline
        // is set by the benchmark, not by the program, so like the restart
        // it stays off the clock.
        if !op.timed_out {
            let spent = start.elapsed().saturating_sub(restart).saturating_sub(probing);
            raw_timed += spent;
            timed += spent.div_f64(slowdown);
        }
        records.extend(op.reply.as_ref().and_then(|r| r.record.clone()));
        ops.push(op);
    }
    peak_rss = peak_rss.max(worker.peak_rss_mib());

    let snapshot_ms = if args.trace {
        worker.send("snapshot")?;
        let line = worker.wait(Duration::from_secs(60)).map_err(|e| format!("snapshot: {e:?}"))?;
        let ns: u64 = line.split(' ').nth(1).and_then(|f| f.parse().ok()).unwrap_or(0);
        ns as f64 / 1e6
    } else {
        0.0
    };
    worker.quit();

    // ---- outputs and checks -------------------------------------------
    let attempted = ops.len();
    let ok: Vec<&Reply> = ops.iter().filter_map(|o| o.reply.as_ref()).filter(|r| r.ok).collect();
    let failed = attempted - ok.len();
    out.attempted = attempted as u64;
    out.failed = failed as u64;

    let latencies: Vec<f64> = ops
        .iter()
        .map(|o| match &o.reply {
            Some(r) if r.ok => r.ns as f64 / 1e3 / r.slowdown,
            _ => f64::INFINITY,
        })
        .collect();
    let summary = stats::summarize(latencies);
    report_samples(&mut out, &summary);

    let truth = Ratio::new(ok.iter().filter(|r| r.truth).count() as f64, ok.len() as f64);
    out.info("truth_match", format!("{} of {} profiles", truth.num, truth.den));
    let paused = ops.iter().filter(|o| o.timed_out).count();
    let no_sequence = ops
        .iter()
        .filter_map(|o| o.reply.as_ref())
        .filter(|r| r.error.contains("independent instruction sequence"))
        .count();
    let other_errors = failed - paused - no_sequence;
    let mut other: BTreeMap<&str, usize> = BTreeMap::new();
    for r in ops.iter().filter_map(|o| o.reply.as_ref()) {
        if !r.ok && !r.error.contains("independent instruction sequence") {
            *other.entry(r.error.as_str()).or_default() += 1;
        }
    }
    if !other.is_empty() {
        out.info("other_errors", format!("{other:?}"));
    }
    out.info(
        "failures",
        format!(
            "{paused} timed out at {} ms, {no_sequence} 'independent instruction sequence', \
             {other_errors} other; {restarts} worker restarts",
            deadline.as_millis()
        ),
    );
    let stuck: BTreeMap<String, usize> =
        ops.iter().filter(|o| o.timed_out).fold(BTreeMap::new(), |mut m, o| {
            let desc = catalog.get(o.pair.1);
            *m.entry(format!("{} {}", desc.full_name(), MicroArch::ALL[o.pair.0])).or_default() +=
                1;
            m
        });
    if !stuck.is_empty() {
        out.info("timed_out_variants", stuck.keys().cloned().collect::<Vec<_>>().join("; "));
    }
    let mut per_uarch = [0usize; 9];
    for o in &ops {
        per_uarch[o.pair.0] += 1;
    }
    out.info(
        "sample_per_uarch",
        MicroArch::ALL
            .iter()
            .zip(per_uarch)
            .map(|(a, n)| format!("{}={n}", a.name()))
            .collect::<Vec<_>>()
            .join(" "),
    );
    out.info("characterizable_pairs", pairs.len());

    // The run's snapshot: the profiles of all its operations.
    let (segment, tlv_bytes) = snapshot_of(&records);
    out.info(
        "snapshot",
        format!(
            "fnv1a64 {:016x} over the segment of the run's {attempted} operations ({} records, {} bytes)",
            fnv1a_64(segment.as_bytes()),
            segment.len(),
            segment.as_bytes().len()
        ),
    );
    let segment = Arc::new(segment);
    let meter = StoreIoMeter::new(None);
    GenerationStore::bootstrap(dir.join("store"), Arc::clone(&segment), &meter)
        .map_err(|e| format!("publishing the run's snapshot: {e}"))?;
    let write_amp = Ratio::new(meter.bytes() as f64, tlv_bytes as f64);
    out.info(
        "write_amp_base",
        format!("{} store bytes / {} TLV bytes", write_amp.num, write_amp.den),
    );

    let (passes, read_ok) = read_back(&segment, &records);
    out.check(read_ok, "a published record did not read back unchanged");
    let pass_median =
        |f: fn(&Summary) -> f64| stats::median(&passes.iter().map(f).collect::<Vec<_>>());
    out.info(
        "read_samples",
        format!(
            "{} lookups in {} passes; read p50 and p90 are medians over the passes",
            passes.iter().map(|s| s.count).sum::<usize>(),
            passes.len()
        ),
    );

    let elapsed = timed.as_secs_f64();
    out.set("setup_s", stats::median(&setup_s));
    out.set("ops_per_s", ok.len() as f64 / elapsed);
    out.set("latency_p50_us", summary.p50);
    out.set("latency_p90_us", summary.p90);
    out.set("ok_ratio", Ratio::new(ok.len() as f64, attempted as f64).value());
    out.set("truth_match_ratio", truth.value());
    out.set("peak_rss_mib", peak_rss);
    out.set("read_p50_us", pass_median(|s| s.p50));
    out.set("read_p90_us", pass_median(|s| s.p90));
    out.set("write_amp", write_amp.value());
    out.info(
        "setup_samples_s",
        format!("{setup_s:.4?} at reference speed, {raw_setup_s:.4?} measured"),
    );
    out.info(
        "timed_window_s",
        format!(
            "{elapsed:.3} at reference speed, {:.3} measured ({:.2} ops/s measured)",
            raw_timed.as_secs_f64(),
            ok.len() as f64 / raw_timed.as_secs_f64()
        ),
    );

    // ---- per-layer (traced run) -----------------------------------------
    // Set-up stage times at reference speed (field 3 is the slowdown).
    let slowdowns: Vec<f64> = ready_lines.iter().map(|l| ready_slowdown(l)).collect();
    let ready: Vec<f64> =
        median_fields(&ready_lines).iter().map(|ns| ns / stats::median(&slowdowns)).collect();
    out.set("isa.catalog_s", ready.first().copied().unwrap_or(0.0) / 1e9);
    if args.trace {
        traced_metrics(&mut out, &ops, &ready, snapshot_ms);
    }
    Ok(out)
}

fn report_samples(out: &mut Outcome, s: &Summary) {
    out.info(
        "latency_samples",
        format!("{} ({} beyond p90; failures count as infinitely slow)", s.count, s.beyond_p90),
    );
    out.check(s.beyond_p90 >= 10, format!("only {} samples beyond p90", s.beyond_p90));
}

/// The set-up slowdown a worker's `ready` line carries (field 3, in
/// millionths).
fn ready_slowdown(ready: &[u64]) -> f64 {
    ready.get(3).map_or(1.0, |&s| s as f64 / 1e6)
}

/// Median of each field over the workers' `ready` lines.
fn median_fields(lines: &[Vec<u64>]) -> Vec<f64> {
    let width = lines.iter().map(Vec::len).min().unwrap_or(0);
    (0..width)
        .map(|i| stats::median(&lines.iter().map(|l| l[i] as f64).collect::<Vec<_>>()))
        .collect()
}

fn traced_metrics(out: &mut Outcome, ops: &[Op], ready: &[f64], snapshot_ms: f64) {
    // Times at reference speed: each operation's figures over its slowdown.
    let traced: Vec<TracedOp> = ops
        .iter()
        .filter_map(|o| o.reply.as_ref().and_then(|r| r.traced.map(|t| t.at_reference(r.slowdown))))
        .collect();
    let n = traced.len();
    let sum = |f: fn(&TracedOp) -> u64| traced.iter().map(f).sum::<u64>() as f64;
    let us = |f: fn(&TracedOp) -> u64| stats::per(sum(f) / 1e3, n);
    out.set("core.blocking_s", ready.get(1).copied().unwrap_or(0.0) / 1e9);
    out.set("core.calibration_s", ready.get(2).copied().unwrap_or(0.0) / 1e9);
    out.set("core.isolation_us", us(|t| t.isolation_ns));
    out.set("core.naive_us", us(|t| t.naive_ns));
    out.set("core.latency_us", us(|t| t.latency_ns));
    out.set("core.port_usage_us", us(|t| t.port_usage_ns));
    out.set("core.throughput_us", us(|t| t.throughput_ns));
    out.set("lp.us", us(|t| t.lp_ns));
    out.set("core.self_us", us(|t| t.core_self_ns));
    out.set("pipeline.busy_us", us(|t| t.busy_ns));
    out.set("pipeline.share", Ratio::new(sum(|t| t.busy_ns), sum(|t| t.traced_ns)).value());
    out.set(
        "pipeline.sim_insts_per_s",
        Ratio::new(sum(|t| t.insts), sum(|t| t.busy_ns) / 1e9).value(),
    );
    // Counts over the seed-determined sample repeat exactly.
    let per_op = |f: fn(&TracedOp) -> u64| stats::per(sum(f), n);
    out.set("pipeline.runs_per_op", per_op(|t| t.runs));
    out.set("pipeline.sim_insts_per_op", per_op(|t| t.insts));
    out.set("pipeline.sim_cycles_per_op", per_op(|t| t.cycles));
    out.set("db.snapshot_ms", snapshot_ms);

    let sum_ratio = Ratio::new(sum(TracedOp::stage_sum_ns), sum(|t| t.traced_ns));
    out.set("trace.sum_ratio", sum_ratio.value());
    out.check(
        (sum_ratio.value() - 1.0).abs() <= SUM_TOLERANCE,
        format!("replayed stages sum to {:.3} of characterize_variant", sum_ratio.value()),
    );
    let overhead = Ratio::new(sum(|t| t.untraced_ns), sum(|t| t.traced_ns));
    out.set("trace.overhead", overhead.value());
    let same = traced.iter().filter(|t| t.same).count();
    out.check(
        same == n,
        format!("replay differed from the engine on {} of {n} variants", n - same),
    );
    out.info("traced_ops", format!("{n} (replay identical on {same})"));
}

/// The canonical segment of a set of records and the size of the same
/// snapshot as TLV.
fn snapshot_of(records: &[VariantRecord]) -> (Segment, usize) {
    let mut snapshot = Snapshot::new(GENERATOR);
    for arch in MicroArch::ALL {
        let n = records.iter().filter(|r| r.uarch == arch.name()).count() as u32;
        if n > 0 {
            snapshot.upsert_uarch(uarch_meta(arch, n, 0));
        }
    }
    snapshot.records = records.to_vec();
    let tlv = codec::encode(&snapshot).len();
    (Segment::from_bytes(Segment::encode(&snapshot)).expect("encoded segment is valid"), tlv)
}

/// Looks every record up through the in-process service, as a user of the
/// published snapshot would, and checks it reads back unchanged; repeats
/// such passes, each on a fresh service, for `READ_TIME`. Returns each
/// pass's lookup latencies (µs), summarized.
fn read_back(segment: &Arc<Segment>, records: &[VariantRecord]) -> (Vec<Summary>, bool) {
    let mut passes = Vec::new();
    let mut ok = true;
    let mut drift = Drift::new();
    let start = Instant::now();
    while start.elapsed() < READ_TIME {
        let service = QueryService::from_segment(Arc::clone(segment), 1 << 20);
        let mut latencies = Vec::with_capacity(records.len());
        for r in records {
            let target = format!(
                "/v1/record/{}?uarch={}&format=binary",
                encode_component(&r.mnemonic),
                encode_component(&r.uarch)
            );
            drift.tick();
            let t = Instant::now();
            let response = respond(&service, "GET", &target);
            latencies.push(drift.correct(t.elapsed().as_nanos() as f64 / 1e3));
            ok &= response.status == 200
                && BinaryEncoder::decode_rows(&response.body)
                    .is_ok_and(|(_, rows)| rows.iter().any(|row| row == r));
        }
        passes.push(stats::summarize(latencies));
    }
    (passes, ok)
}

// ---------------------------------------------------------------------------
// Worker process
// ---------------------------------------------------------------------------

/// `MeasurementBackend` that times and counts every `SimBackend::run`,
/// recording each as a `pipeline.run` span under the innermost open span.
struct TimedBackend<'a> {
    inner: &'a SimBackend,
    tracer: &'a Tracer,
    op: u64,
    counts: std::cell::Cell<(u64, u64, u64)>,
}

impl<'a> TimedBackend<'a> {
    fn new(inner: &'a SimBackend, tracer: &'a Tracer, op: u64) -> TimedBackend<'a> {
        TimedBackend { inner, tracer, op, counts: std::cell::Cell::new((0, 0, 0)) }
    }
}

impl MeasurementBackend for TimedBackend<'_> {
    fn arch(&self) -> MicroArch {
        self.inner.arch()
    }

    fn config(&self) -> UarchConfig {
        self.inner.config()
    }

    fn run(&self, code: &CodeSequence, ctx: RunContext) -> PerfCounters {
        let counters = self.tracer.span("pipeline.run", self.op, || self.inner.run(code, ctx));
        let (runs, insts, cycles) = self.counts.get();
        self.counts.set((
            runs + 1,
            insts + counters.instructions_retired,
            cycles + counters.core_cycles,
        ));
        counters
    }
}

/// What the engine caches per uarch, rebuilt from public calls.
struct ReplaySetup {
    blocking_sse: BlockingInstructions,
    blocking_avx: BlockingInstructions,
    calibration: ChainCalibration,
}

/// Replays `CharacterizationEngine::characterize_variant` as its sequence
/// of public stage calls, each in its own span.
fn replay<B: MeasurementBackend>(
    backend: &B,
    catalog: &Catalog,
    setup: &ReplaySetup,
    desc: &InstructionDesc,
    arch: MicroArch,
    tracer: &Tracer,
    op: u64,
) -> Result<InstructionProfile, CoreError> {
    let config = EngineConfig::fast();
    let m = config.measurement;
    let arc = catalog.intern(desc);
    let isolation = tracer.span("core.isolation", op, || isolation_profile(backend, &arc, &m))?;
    let naive = tracer.span("core.naive", op, || naive_port_usage(backend, &arc, &m).ok());
    let analyzer = LatencyAnalyzer::with_calibration(backend, catalog, m, setup.calibration);
    let latency = tracer.span("core.latency", op, || analyzer.infer(&arc).unwrap_or_default());
    let max_latency = if latency.is_empty() {
        config.default_max_latency
    } else {
        latency.max_latency_cycles().min(24)
    };
    let blocking = match VectorWorld::of(desc) {
        VectorWorld::Sse => &setup.blocking_sse,
        VectorWorld::Avx => &setup.blocking_avx,
    };
    let port_usage = tracer.span("core.port_usage", op, || {
        infer_port_usage(backend, blocking, &arc, max_latency, &m)
    })?;
    let mut throughput =
        tracer.span("core.throughput", op, || measure_throughput(backend, catalog, &arc, &m))?;
    throughput.from_port_usage = tracer.span("lp", op, || {
        throughput_from_port_usage(&port_usage, desc, backend.config().port_count)
    });
    Ok(InstructionProfile {
        uid: desc.uid,
        mnemonic: desc.mnemonic.clone(),
        variant: desc.variant(),
        extension: desc.extension.to_string(),
        arch,
        uop_count: isolation.rounded_uops(),
        port_usage,
        naive_port_usage: naive,
        latency,
        throughput,
    })
}

/// µop count and port usage equal the simulator's ground truth for the
/// same binding (the check of `tests/end_to_end.rs`).
fn matches_truth(profile: &InstructionProfile, desc: &InstructionDesc, arch: MicroArch) -> bool {
    let mut pool = RegisterPool::new();
    let arc = Arc::new(desc.clone());
    let Ok(inst) = Inst::bind(&arc, &BTreeMap::new(), &mut pool) else { return false };
    let truth = characterize(&inst, &UarchConfig::for_arch(arch), TruthOptions::default());
    let mut usage = truth.port_usage();
    usage.sort();
    profile.uop_count as usize == truth.uop_count() && profile.port_usage.entries() == usage
}

fn record_hex(profile: &InstructionProfile) -> String {
    let mut snapshot = Snapshot::new(GENERATOR);
    snapshot.upsert_uarch(uarch_meta(profile.arch, 1, 0));
    snapshot.records.push(profile_to_record(profile));
    hex_encode(&codec::encode(&snapshot))
}

/// Entry point of `perfbench worker <trace 0|1> <spans.tsv>`: sets up all
/// nine engines, prints `ready`, then answers `op <uarch> <uid>` lines.
pub fn worker_main(args: &[String]) -> ExitCode {
    let trace = args.first().map(String::as_str) == Some("1");
    let spans_path = args.get(1).cloned();
    let tracer = Tracer::new();
    let mut drift = Drift::new();
    let t = Instant::now();
    let catalog = Catalog::intel_core();
    let catalog_ns = t.elapsed().as_nanos();
    let backends: Vec<SimBackend> = MicroArch::ALL.iter().map(|&a| SimBackend::new(a)).collect();
    let engines: Vec<CharacterizationEngine<'_>> = MicroArch::ALL
        .iter()
        .map(|&a| CharacterizationEngine::with_config(&catalog, a, EngineConfig::fast()))
        .collect();
    let (mut blocking_ns, mut calibration_ns) = (0u128, 0u128);
    let mut replay_setups = Vec::new();
    for (engine, backend) in engines.iter().zip(&backends) {
        // The engine's one-time setup (blocking discovery + calibration);
        // an empty idiom scan runs exactly that and nothing else.
        if let Err(e) = engine.zero_idiom_scan(backend, std::iter::empty()) {
            eprintln!("perfbench worker: setup failed on {}: {e}", backend.arch());
            return ExitCode::FAILURE;
        }
        if trace {
            let m = EngineConfig::fast().measurement;
            let t = Instant::now();
            let sse = BlockingInstructions::find(backend, &catalog, &m, VectorWorld::Sse);
            let avx = BlockingInstructions::find(backend, &catalog, &m, VectorWorld::Avx);
            blocking_ns += t.elapsed().as_nanos();
            let t = Instant::now();
            let analyzer = LatencyAnalyzer::new(backend, &catalog, m);
            calibration_ns += t.elapsed().as_nanos();
            match (sse, avx, analyzer) {
                (Ok(blocking_sse), Ok(blocking_avx), Ok(analyzer)) => {
                    replay_setups.push(ReplaySetup {
                        blocking_sse,
                        blocking_avx,
                        calibration: analyzer.calibration(),
                    });
                }
                _ => {
                    eprintln!("perfbench worker: replay setup failed on {}", backend.arch());
                    return ExitCode::FAILURE;
                }
            }
        }
        // Probes spread over the set-up, so its slowdown is their median.
        drift.probe();
    }
    let mut stdout = std::io::stdout().lock();
    drift.probe();
    let setup_slowdown = (stats::median(&drift.samples) * 1e6) as u64;
    let _ = writeln!(stdout, "ready {catalog_ns} {blocking_ns} {calibration_ns} {setup_slowdown}");
    let _ = stdout.flush();

    let mut profiles: Vec<InstructionProfile> = Vec::new();
    let mut op = 0u64;
    for line in std::io::stdin().lock().lines() {
        let Ok(line) = line else { break };
        let fields: Vec<&str> = line.split(' ').collect();
        let reply = match fields.as_slice() {
            ["op", a, uid] => {
                let (Ok(a), Ok(uid)) = (a.parse::<usize>(), uid.parse::<usize>()) else { break };
                op += 1;
                let (arch, desc) = (MicroArch::ALL[a], catalog.get(uid));
                let t = Instant::now();
                drift.tick();
                let probe_ns = t.elapsed().as_nanos();
                let slow = drift.slowdown();
                let t = Instant::now();
                let result = engines[a].characterize_variant(&backends[a], desc);
                let ns = t.elapsed().as_nanos() as u64;
                match result {
                    Err(e) => {
                        format!("err {ns} {slow} {probe_ns} {}", e.to_string().replace('\n', " "))
                    }
                    Ok(profile) => {
                        let mut line = format!(
                            "ok {ns} {slow} {probe_ns} {} {}",
                            u8::from(matches_truth(&profile, desc, arch)),
                            record_hex(&profile)
                        );
                        if trace {
                            let traced = trace_op(
                                &engines[a],
                                &backends[a],
                                &catalog,
                                &replay_setups[a],
                                desc,
                                &tracer,
                                op,
                                ns,
                                &profile,
                            );
                            line.push(' ');
                            line.push_str(&traced.render());
                        }
                        if trace {
                            profiles.push(profile);
                        }
                        line
                    }
                }
            }
            ["snapshot"] => {
                let t = Instant::now();
                let mut reports = Vec::new();
                for arch in MicroArch::ALL {
                    let mut report = CharacterizationReport::default();
                    report.arch = Some(arch);
                    report.profiles = profiles.iter().filter(|p| p.arch == arch).cloned().collect();
                    reports.push(report);
                }
                let segment = Segment::encode(&reports_to_snapshot(&reports));
                std::hint::black_box(&segment);
                format!("snap {} {}", t.elapsed().as_nanos(), profiles.len())
            }
            ["quit"] => {
                if let Some(path) = &spans_path {
                    if trace {
                        let _ = tracer.write_tsv(Path::new(path));
                    }
                }
                let _ = writeln!(stdout, "bye");
                let _ = stdout.flush();
                break;
            }
            _ => break,
        };
        if writeln!(stdout, "{reply}").and_then(|()| stdout.flush()).is_err() {
            break;
        }
    }
    ExitCode::SUCCESS
}

/// The traced part of one operation: the engine call on the timing
/// backend, then the replay, compared with the plain call's `profile`.
#[allow(clippy::too_many_arguments)]
fn trace_op(
    engine: &CharacterizationEngine<'_>,
    backend: &SimBackend,
    catalog: &Catalog,
    setup: &ReplaySetup,
    desc: &InstructionDesc,
    tracer: &Tracer,
    op: u64,
    untraced_ns: u64,
    profile: &InstructionProfile,
) -> TracedOp {
    let mark = tracer.mark();
    let timed = TimedBackend::new(backend, tracer, op);
    let engine_result =
        tracer.span("core.characterize_variant", op, || engine.characterize_variant(&timed, desc));
    let (runs, insts, cycles) = timed.counts.get();
    let replay_backend = TimedBackend::new(backend, tracer, op);
    let replayed = tracer.span("replay", op, || {
        replay(&replay_backend, catalog, setup, desc, profile.arch, tracer, op)
    });
    let totals = tracer.totals_since(mark);
    let total = |name: &str| totals.get(name).map_or(0, |t| t.total_ns);
    let whole = totals.get("core.characterize_variant").copied().unwrap_or_default();
    let core_self_ns =
        ["core.isolation", "core.naive", "core.latency", "core.port_usage", "core.throughput"]
            .iter()
            .map(|name| totals.get(name).map_or(0, |t| t.self_ns))
            .sum();
    TracedOp {
        untraced_ns,
        traced_ns: whole.total_ns,
        busy_ns: whole.total_ns - whole.self_ns,
        runs,
        insts,
        cycles,
        isolation_ns: total("core.isolation"),
        naive_ns: total("core.naive"),
        latency_ns: total("core.latency"),
        port_usage_ns: total("core.port_usage"),
        throughput_ns: total("core.throughput"),
        lp_ns: total("lp"),
        core_self_ns,
        same: engine_result.as_ref().ok() == Some(profile)
            && replayed.as_ref().ok() == Some(profile),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_size_follows_seconds_within_the_pairs() {
        assert_eq!(sample_size(20.0, 16_630), 1500);
        assert_eq!(sample_size(0.001, 16_630), 1);
        assert_eq!(sample_size(1e6, 16_630), 16_630);
    }

    #[test]
    fn sample_is_a_function_of_the_seed() {
        let a: Vec<usize> = sample_order(1000, 3).take(200).collect();
        assert_eq!(a, sample_order(1000, 3).take(200).collect::<Vec<_>>());
        assert_ne!(a, sample_order(1000, 4).take(200).collect::<Vec<_>>());
        let mut distinct = a.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), a.len());
    }
}
