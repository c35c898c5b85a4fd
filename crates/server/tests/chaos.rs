//! Chaos suite: drives the reactor transport through deterministic,
//! scripted syscall faults (`--features fault-injection`) — short writes
//! mid-vectored-response, `ECONNRESET` while an error response drains,
//! and `EMFILE` storms on accept — plus filesystem faults at every step
//! of an ingest's publish, and asserts the robustness layer's contracts:
//! byte-parity of successful responses, clean eviction of failed
//! connections, a server that keeps serving afterwards, monotone
//! `accept_errors` / `accept_rescues` counters, and a served generation
//! that is never torn. (A peer that stops reading is evicted by the timer
//! wheel; that test lives in `tests/reactor.rs`.)
//!
//! The fault script is process-global, so every test serializes on one
//! mutex and runs its server with a single shard and a single live client
//! connection at a time — fault consumption is then fully ordered, with
//! no sleeps as synchronization.

#![cfg(feature = "fault-injection")]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

use uops_db::{GenerationStore, Segment, Snapshot, VariantRecord};
use uops_serve::{fault, QueryService, Server, ServerHandle, ServerOptions};

/// Serializes tests sharing the global fault script.
static SCRIPT_LOCK: Mutex<()> = Mutex::new(());

fn snapshot() -> Snapshot {
    let mut s = Snapshot::new("chaos test");
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
    s
}

fn service() -> Arc<QueryService> {
    let segment = Arc::new(Segment::from_bytes(Segment::encode(&snapshot())).expect("segment"));
    Arc::new(QueryService::from_segment(segment, 1 << 20))
}

fn spawn() -> (ServerHandle, SocketAddr) {
    let server = Server::bind("127.0.0.1:0", service(), 1).expect("bind");
    let addr = server.local_addr();
    (server.spawn(), addr)
}

const GET: &[u8] = b"GET /v1/query?uarch=Skylake&port=0 HTTP/1.1\r\nHost: c\r\n\r\n";

/// Sends `request` on a fresh connection and reads until the peer closes
/// or the full `Content-Length` body has arrived; returns the raw bytes.
fn exchange_once(addr: SocketAddr, request: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request).expect("send");
    let mut out = Vec::new();
    read_one_response(&mut stream, &mut out);
    out
}

/// Reads one full response (headers + advertised body); panics on EOF
/// before completion.
fn read_one_response(stream: &mut TcpStream, out: &mut Vec<u8>) {
    let mut byte = [0u8; 1];
    while !out.ends_with(b"\r\n\r\n") {
        assert_eq!(stream.read(&mut byte).expect("read header"), 1, "EOF inside header");
        out.push(byte[0]);
    }
    let text = String::from_utf8_lossy(out).to_string();
    let body_len: usize = text
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .map_or(0, |v| v.trim().parse().expect("length"));
    let at = out.len();
    out.resize(at + body_len, 0);
    stream.read_exact(&mut out[at..]).expect("read body");
}

/// Reads until EOF/reset, returning whatever arrived (an aborted
/// connection's last gasp).
fn read_until_closed(stream: &mut TcpStream) -> Vec<u8> {
    let mut out = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return out,
            Ok(n) => out.extend_from_slice(&buf[..n]),
        }
    }
}

fn lock_script() -> std::sync::MutexGuard<'static, ()> {
    let guard = SCRIPT_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    fault::reset();
    guard
}

/// Short writes chop the vectored response into arbitrary fragments; the
/// resumable-write cursor must reassemble it byte-for-byte.
#[test]
fn short_writes_keep_byte_parity_on_the_reactor_transport() {
    let _guard = lock_script();
    let (handle, addr) = spawn();
    let baseline = exchange_once(addr, GET);
    assert!(baseline.starts_with(b"HTTP/1.1 200"), "baseline must succeed");

    // Fragment the next response: 3 bytes, then 1, then 7, then whole.
    fault::inject_write(fault::WriteFault::Short(3));
    fault::inject_write(fault::WriteFault::Short(1));
    fault::inject_write(fault::WriteFault::Short(7));
    let fragmented = exchange_once(addr, GET);
    assert_eq!(fragmented, baseline, "short writes must not corrupt the response");
    fault::reset();
    handle.shutdown();
}

/// A peer that resets the connection while a parse error's response is
/// draining: the connection must be evicted cleanly and the server must
/// keep serving.
#[test]
fn connection_reset_while_draining_is_clean_on_the_reactor_transport() {
    let _guard = lock_script();
    let (handle, addr) = spawn();
    let mut bad = TcpStream::connect(addr).expect("connect");
    // The next write (the 400 response for this malformed request) dies
    // with ECONNRESET.
    fault::inject_write(fault::WriteFault::Reset);
    bad.write_all(b"BOGUS REQUEST\r\n\r\n").expect("send garbage");
    let leftovers = read_until_closed(&mut bad);
    assert!(
        !leftovers.starts_with(b"HTTP/1.1 400"),
        "the injected reset must have killed the error response"
    );
    drop(bad);

    // The failed connection is gone; a fresh one serves normally.
    let after = exchange_once(addr, GET);
    assert!(after.starts_with(b"HTTP/1.1 200"), "server must survive the reset");
    fault::reset();
    handle.shutdown();
}

/// Attempts to read one full response; returns `None` if the connection
/// dies (EOF or reset) before a complete response arrives — the
/// signature of a rescued-and-reset connection.
fn try_read_response(stream: &mut TcpStream) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    let mut byte = [0u8; 1];
    while !out.ends_with(b"\r\n\r\n") {
        match stream.read(&mut byte) {
            Ok(1) => out.push(byte[0]),
            Ok(_) | Err(_) => return None,
        }
    }
    let text = String::from_utf8_lossy(&out).to_string();
    let body_len: usize = match text.lines().find_map(|l| l.strip_prefix("Content-Length: ")) {
        Some(v) => v.trim().parse().ok()?,
        None => 0,
    };
    let at = out.len();
    out.resize(at + body_len, 0);
    stream.read_exact(&mut out[at..]).ok()?;
    Some(out)
}

/// One `EMFILE` storm cycle: inject the accept failure and verify that
/// the next connection lands in the rescue path — accepted on the reserve
/// fd and actively reset, so its client sees EOF, never a response —
/// while the cycle ends with a normally served request. The shard
/// consults the script when epoll reports the connection pending, so the
/// victim is always the first connection after the fault is scripted.
fn emfile_cycle(addr: SocketAddr) {
    fault::inject_accept_error(fault::EMFILE);
    let mut victim = TcpStream::connect(addr).expect("victim connect");
    victim.write_all(GET).ok();
    assert!(
        try_read_response(&mut victim).is_none(),
        "the rescued connection must not have been served"
    );
    drop(victim);

    let after = exchange_once(addr, GET);
    assert!(after.starts_with(b"HTTP/1.1 200"), "server must survive the storm cycle");
}

#[test]
fn emfile_storms_are_rescued_on_the_reactor_transport() {
    let _guard = lock_script();
    let server = Server::bind("127.0.0.1:0", service(), 1).expect("bind");
    let addr = server.local_addr();
    let metrics = server.metrics();
    let handle = server.spawn();
    let (errors_before, rescues_before) =
        (metrics.accept_errors.get(), metrics.accept_rescues.get());
    for _ in 0..3 {
        emfile_cycle(addr);
    }
    assert!(metrics.accept_errors.get() >= errors_before + 3, "accept_errors must be monotone");
    assert!(metrics.accept_rescues.get() >= rescues_before + 3, "every cycle must be rescued");
    fault::reset();
    handle.shutdown();
}

// ---- live data plane: filesystem faults at the swap boundary ----

static DIRS: AtomicU32 = AtomicU32::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let n = DIRS.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("uops_chaos_{tag}_{}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Boots a one-shard server whose service is backed by a freshly
/// bootstrapped [`GenerationStore`] (generation 1) with ingest enabled.
fn spawn_with_store(dir: &PathBuf) -> (ServerHandle, SocketAddr, Arc<GenerationStore>) {
    let store = Arc::new(
        GenerationStore::bootstrap(
            dir,
            Arc::new(Segment::from_bytes(Segment::encode(&snapshot())).expect("segment")),
            fault::store_io(),
        )
        .expect("bootstrap store"),
    );
    let service = service();
    let generation = store.current();
    assert!(service.swap_segment(Arc::clone(&generation.segment), generation.id));
    let options =
        ServerOptions { ingest_store: Some(Arc::clone(&store)), ..ServerOptions::default() };
    let server = Server::bind_with("127.0.0.1:0", service, 1, options).expect("bind");
    let addr = server.local_addr();
    (server.spawn(), addr, store)
}

/// A snapshot disjoint from [`snapshot`] so a successful ingest visibly
/// grows the served store.
fn extra_snapshot() -> Snapshot {
    let mut s = Snapshot::new("chaos ingest");
    s.records.push(VariantRecord {
        mnemonic: "XOR".into(),
        variant: "R64, R64".into(),
        extension: "BASE".into(),
        uarch: "Skylake".into(),
        uop_count: 1,
        ports: vec![(0b0110_0011, 1)],
        tp_measured: 0.25,
        ..Default::default()
    });
    s
}

/// POSTs `body` to `/v1/ingest` on a fresh connection.
fn post_ingest(addr: SocketAddr, body: &[u8]) -> Vec<u8> {
    let head =
        format!("POST /v1/ingest HTTP/1.1\r\nHost: c\r\nContent-Length: {}\r\n\r\n", body.len());
    let mut request = head.into_bytes();
    request.extend_from_slice(body);
    exchange_once(addr, &request)
}

/// An errno-scripted fault on each of the four publish mutations in turn:
/// every failed ingest must answer 503, leave the served bytes and the
/// live generation untouched, and leave the store retryable — the final
/// un-faulted ingest succeeds and swaps.
#[test]
fn fs_faults_at_every_publish_step_never_tear_the_served_generation() {
    let _guard = lock_script();
    let dir = scratch_dir("fs_steps");
    let (handle, addr, store) = spawn_with_store(&dir);
    let baseline = exchange_once(addr, GET);
    assert!(baseline.starts_with(b"HTTP/1.1 200"), "baseline must succeed");
    let update = uops_db::codec::encode(&extra_snapshot());

    for (op, errno) in [
        (fault::FsOp::Write, fault::ENOSPC),
        (fault::FsOp::Fsync, fault::EIO),
        (fault::FsOp::Rename, fault::EIO),
        (fault::FsOp::DirSync, fault::EIO),
    ] {
        fault::inject_fs(op, fault::FsFault::Errno(errno));
        let rejected = post_ingest(addr, &update);
        assert!(
            rejected.starts_with(b"HTTP/1.1 503"),
            "faulted publish ({op:?}) must answer 503: {}",
            String::from_utf8_lossy(&rejected)
        );
        assert_eq!(store.current().id, 1, "a failed publish must not advance the generation");
        let after = exchange_once(addr, GET);
        assert_eq!(after, baseline, "a failed publish ({op:?}) must not change served bytes");
        fault::reset();
    }

    // No fault scripted: the same update now publishes and swaps.
    let accepted = post_ingest(addr, &update);
    assert!(
        accepted.starts_with(b"HTTP/1.1 200"),
        "retry after fault must succeed: {}",
        String::from_utf8_lossy(&accepted)
    );
    assert_eq!(store.current().id, 2);
    let stats = exchange_once(addr, b"GET /v1/stats HTTP/1.1\r\nHost: c\r\n\r\n");
    let stats = String::from_utf8_lossy(&stats).to_string();
    assert!(stats.contains("\"generation\": 2"), "{stats}");
    assert!(stats.contains("\"records\": 4"), "ingest must merge the new record: {stats}");
    fault::reset();
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fault between the image rename and the manifest rename leaves an
/// orphan image on disk; the server keeps serving the old generation and
/// the next boot quarantines the orphan.
#[test]
fn fs_fault_between_image_and_manifest_quarantines_on_reboot() {
    let _guard = lock_script();
    let dir = scratch_dir("fs_orphan");
    let (handle, addr, store) = spawn_with_store(&dir);
    let update = uops_db::codec::encode(&extra_snapshot());

    // Publish order: image W,F,R,D then manifest W,F,R,D. Failing the
    // second *write* (the manifest temp) strands gen-2.seg as an orphan.
    fault::inject_fs(fault::FsOp::Write, fault::FsFault::Pass);
    fault::inject_fs(fault::FsOp::Write, fault::FsFault::Errno(fault::EIO));
    let rejected = post_ingest(addr, &update);
    assert!(rejected.starts_with(b"HTTP/1.1 503"), "{}", String::from_utf8_lossy(&rejected));
    assert_eq!(store.current().id, 1, "the torn publish must not swap");
    assert!(dir.join("gen-2.seg").exists(), "the orphan image must be on disk");
    fault::reset();
    handle.shutdown();

    // Reboot against the same directory: generation 1 recovers, the
    // orphan is renamed aside and counted.
    let recovered = GenerationStore::open(&dir).expect("open").expect("manifest exists");
    assert_eq!(recovered.store.current().id, 1);
    assert_eq!(recovered.quarantined, 1, "the orphan must be quarantined");
    assert!(!dir.join("gen-2.seg").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A publish stalled on the disk runs off the shard: with a single
/// shard, reads on other connections keep being answered — from the old
/// generation — while the ingest waits, and the ingest is answered once
/// its publish completes.
#[test]
fn a_stalled_publish_leaves_its_shard_serving_reads() {
    const STALL_MS: u64 = 1_000;
    let _guard = lock_script();
    let dir = scratch_dir("fs_stall");
    let (handle, addr, store) = spawn_with_store(&dir);
    let baseline = exchange_once(addr, GET);
    assert!(baseline.starts_with(b"HTTP/1.1 200"), "baseline must succeed");

    // The publish's first rename (the image) stalls.
    fault::inject_fs(fault::FsOp::Rename, fault::FsFault::Stall(STALL_MS));
    let update = uops_db::codec::encode(&extra_snapshot());
    let writer = std::thread::spawn(move || post_ingest(addr, &update));
    let mut stalled_reads = 0;
    let mut swapped_reads = Vec::new();
    loop {
        let started = std::time::Instant::now();
        let read = exchange_once(addr, GET);
        let elapsed = started.elapsed();
        // Checked before the writer's state: a read the stall held up
        // would return only once the publish had finished.
        assert!(
            elapsed < std::time::Duration::from_millis(STALL_MS / 2),
            "a read waited {elapsed:?} behind the stalled publish"
        );
        if writer.is_finished() {
            break;
        }
        // The swap may land before the ingest's answer reaches its client.
        if read == baseline {
            stalled_reads += 1;
        } else {
            swapped_reads.push(read);
        }
    }
    assert!(stalled_reads > 0, "reads must have been answered while the publish stalled");
    let accepted = writer.join().expect("ingest client");
    assert!(accepted.starts_with(b"HTTP/1.1 200"), "{}", String::from_utf8_lossy(&accepted));
    assert_eq!(store.current().id, 2);
    let swapped = exchange_once(addr, GET);
    assert_ne!(swapped, baseline, "the new generation serves after the swap");
    for read in swapped_reads {
        assert_eq!(read, swapped, "a read saw neither generation whole");
    }
    fault::reset();
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Ingest bodies queue behind a stalled publish only up to a bound (one
/// per shard); past it a body is answered `503` + `Retry-After` at once
/// instead of being held, and every queued body is published once the
/// stall ends.
#[test]
fn a_full_ingest_queue_sheds_with_503() {
    const STALL_MS: u64 = 1_500;
    let _guard = lock_script();
    let dir = scratch_dir("fs_queue");
    let (handle, addr, store) = spawn_with_store(&dir);
    let update = uops_db::codec::encode(&extra_snapshot());
    let mut request =
        format!("POST /v1/ingest HTTP/1.1\r\nHost: c\r\nContent-Length: {}\r\n\r\n", update.len())
            .into_bytes();
    request.extend_from_slice(&update);

    // The first publish stalls on its image rename. Each later body either
    // waits in the queue (no answer within the probe) or is shed.
    fault::inject_fs(fault::FsOp::Rename, fault::FsFault::Stall(STALL_MS));
    let started = std::time::Instant::now();
    let mut waiting = Vec::new();
    let mut shed = None;
    for _ in 0..4 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(&request).expect("send");
        stream.set_read_timeout(Some(std::time::Duration::from_millis(300))).expect("timeout");
        let mut first = [0u8; 1];
        match stream.read(&mut first) {
            Ok(1) => {
                stream.set_read_timeout(None).expect("timeout");
                let mut response = vec![first[0]];
                read_one_response(&mut stream, &mut response);
                shed = Some(String::from_utf8_lossy(&response).to_string());
                break;
            }
            Ok(_) => panic!("the connection closed without an answer"),
            Err(_) => waiting.push(stream),
        }
    }
    let shed = shed.expect("a body past the queue bound must be answered at once");
    assert!(started.elapsed() < std::time::Duration::from_millis(STALL_MS), "shed after the stall");
    assert!(shed.starts_with("HTTP/1.1 503"), "{shed}");
    assert!(shed.contains("Retry-After: 1\r\n"), "{shed}");
    assert!(waiting.len() <= 2, "at most one publish running and one queued per shard");

    for mut stream in waiting.drain(..) {
        stream.set_read_timeout(None).expect("timeout");
        let mut response = Vec::new();
        read_one_response(&mut stream, &mut response);
        assert!(response.starts_with(b"HTTP/1.1 200"), "{}", String::from_utf8_lossy(&response));
    }
    fault::reset();
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    drop(store);
}
