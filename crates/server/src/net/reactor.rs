//! The per-shard epoll event loop: one thread, one `SO_REUSEPORT`
//! listener, one slab of connection state machines.
//!
//! Each accepted connection is registered with epoll **once**, for
//! `EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP` — edge-triggered, so the
//! kernel reports each readiness transition exactly once and the reactor
//! never issues per-state `epoll_ctl` calls. The state machine honors the
//! edge-triggered contract by always driving I/O to `EAGAIN`:
//!
//! * **Reading** — [`crate::http::RequestBuf::read_request`] pulls bytes
//!   until a full head parses (in place, zero copies) or the socket runs
//!   dry; a parsed request is answered on this thread through the shared
//!   fast-lane/route/telemetry path ([`crate::answer`]) — an uncached
//!   query executes and encodes inline here. After an uncached answer
//!   goes out, a connection with another request already buffered
//!   yields: it is driven again only after every other ready connection
//!   of the shard has had its turn, so a pipelined miss flood holds up
//!   the shard's other connections by at most one execution per turn.
//!   A raw fast-lane hit short-circuits: the write is attempted inline,
//!   and in the common case the request completes as one read plus one
//!   write with zero timer-wheel churn.
//! * **ReadingBody** — a head with a `Content-Length` (batch and plan
//!   registration `POST`s) parks here until the declared body is in the
//!   connection's body scratch; the head's facts live in per-connection
//!   scratch strings because the parsed request borrowed the buffer the
//!   body bytes recycle. Oversize declarations are refused with `413`
//!   before a single body byte is read.
//! * **Ingesting** — a `POST /v1/ingest` body went to the ingest
//!   thread; the connection waits, reading nothing, until the publish
//!   posts its answer to this shard's [`Mailbox`] and wakes the eventfd.
//!   Only the publish leaves the shard, so readers on the same shard
//!   never wait behind fsyncs, and the timer wheel never counts the wait
//!   as idleness.
//! * **Responding** — the response head is assembled once
//!   ([`crate::http::ResponseBuf::assemble`]) and the payload drains in
//!   its shape's write path ([`Sending`]): whole bodies through
//!   [`crate::http::write_resumable`], framed batch responses through
//!   [`crate::http::write_batch`], and chunked exports through
//!   [`drive_stream`] — one chunk materialized at a time, resumable
//!   mid-chunk on `EAGAIN`, so a full-database export holds O(chunk)
//!   memory no matter how many rows it emits. The partial-write cursor
//!   rides in the connection across however many writable events the
//!   response needs. While a write is pending no new request is parsed —
//!   natural per-connection back-pressure. On completion, buffered
//!   pipelined requests are served immediately (the loop falls back to
//!   Reading without returning to `epoll_wait`).
//! * **Draining** — a malformed request's error response is being
//!   written; the connection lingers when it completes.
//! * **Lingering** — the last response is out, input may still be
//!   unread (an oversize body refused with `413`, garbage after a
//!   malformed head, pipelined requests past the last one served), and
//!   our side is shut down; bytes the peer still sends are read and
//!   discarded until it closes, because closing a socket with unread
//!   input sends `RST`, which can destroy the response before the peer
//!   reads it. The connection's deadline bounds the wait; reads do not
//!   extend it. Every other last response closes the connection at once,
//!   and so does every last response during a graceful drain.
//!
//! The listener itself is registered **level**-triggered: under fd
//! exhaustion an accept backs off without consuming the edge, and epoll
//! simply re-reports the pending backlog on the next wait.
//!
//! Idle keep-alive eviction rides the lazy [`TimerWheel`]: the
//! `epoll_wait` timeout lands on coarse tick boundaries, progress on a
//! connection just rewrites its expiry tick, and only due slots are
//! walked. Slab slots carry generation counters so stale epoll events and
//! stale wheel entries (from a closed connection whose slot was reused)
//! are recognized and dropped.
//!
//! Steady state allocates nothing: connection buffers are reused across
//! requests (and allocated lazily, so an idle connection that never sends
//! a byte costs ~200 bytes of slab entry, not a 32 KiB request buffer —
//! the "10k idle connections in bounded memory" property), wheel slots
//! are preallocated, and the answer/record helpers allocate nothing on a
//! cache hit.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::mpsc::TrySendError;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use crate::http::{self, WriteProgress};
use crate::metrics::{self, Route, ServerMetrics};
use crate::service::{self, ResponseTier, ServiceResponse};
use crate::{
    answer, fault, record_parse_error, record_request, AcceptRescue, ConnState, IngestJob, Payload,
    RequestOutcome, ShutdownSignal, MAX_REQUESTS_PER_CONNECTION, OVERLOAD_RESPONSE,
};

use super::sys::{Epoll, EpollEvent, EventFd, EPOLLET, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use super::timer::TimerWheel;

/// Best-effort static 503 to a connection rejected at the shard's
/// connection cap: one non-blocking write of preformatted bytes, then
/// drop (close). No slab slot, no epoll registration, no allocation.
fn reject_overload_nonblocking(mut stream: TcpStream) {
    let _ = stream.set_nonblocking(true);
    let _ = stream.set_nodelay(true);
    let _ = io::Write::write(&mut stream, OVERLOAD_RESPONSE);
}

/// Token marking the shard's listener in epoll reports.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Token marking the shard's shutdown eventfd.
const TOKEN_WAKE: u64 = u64::MAX - 1;
/// Readiness reports drained per `epoll_wait` call.
const EVENTS_PER_WAIT: usize = 256;

/// Where a connection is in its serve cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for (or mid-way through) a request head.
    Reading,
    /// The head parsed with a `Content-Length`; the body is being read
    /// into the connection's body scratch before the request is answered.
    ReadingBody,
    /// An ingest body is being published off the shard; the answer
    /// arrives through the shard's [`Mailbox`].
    Ingesting,
    /// A response is assembled; head + body are draining to the socket.
    Responding,
    /// A parse error's response is draining; linger when it completes.
    Draining,
    /// The last response is out with input possibly unread; discard
    /// input until the peer closes.
    Lingering,
}

/// What shape of response is draining to the socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sending {
    /// One head + one contiguous body ([`http::write_resumable`]).
    Whole,
    /// A framed multi-response ([`http::write_batch`]).
    Batch,
    /// A chunked export pulled on demand from the connection's stream
    /// cursor; `head_done`/`terminal` carry the framing position across
    /// writable events.
    Stream { head_done: bool, terminal: bool },
}

/// One connection's state between events.
struct Conn {
    stream: TcpStream,
    /// Request bytes + in-place parser ([`http::RequestBuf::lazy`]: the
    /// 32 KiB buffer materializes on the first readable byte, so idle
    /// connections stay small).
    request: http::RequestBuf,
    /// Reusable response-head scratch.
    response: http::ResponseBuf,
    /// The in-flight response body (an `Arc` bump out of a cache tier in
    /// the common case); dropped as soon as the response completes.
    body: Option<Arc<[u8]>>,
    /// How many body bytes belong on the wire (0 for `HEAD`/304).
    body_emit: usize,
    /// Partial-write cursor into head-then-body, carried across events.
    cursor: usize,
    /// Request-body scratch ([`Phase::ReadingBody`]); holds exactly the
    /// declared `Content-Length` once the read completes, and keeps its
    /// capacity across requests.
    body_buf: Vec<u8>,
    /// Body bytes received so far (≤ `body_len`).
    body_read: usize,
    /// The declared `Content-Length` being read.
    body_len: usize,
    /// `head_len` of the request whose body is being read (the head was
    /// already consumed; kept for request-bytes telemetry).
    pending_head_len: usize,
    /// Request facts copied out of the head before the buffer is recycled
    /// for the body read (the parsed [`http::Request`] borrows the
    /// buffer the body bytes land in).
    method: String,
    target: String,
    inm: String,
    has_inm: bool,
    /// Reusable framed-batch response scratch.
    batch: http::BatchBody,
    /// Reusable batch service-path scratch (response slots, miss queue).
    batch_scratch: service::BatchScratch,
    /// The in-flight chunked export, if any (`None` for `HEAD`: the
    /// chunked header goes out with no chunks).
    export: Option<service::StreamBody>,
    /// Chunk payload scratch (payload + trailing CRLF).
    chunk: Vec<u8>,
    /// Chunk frame-prefix scratch (`{len:x}\r\n`, or the terminal
    /// `0\r\n\r\n`); empty means "needs refill".
    chunk_head: Vec<u8>,
    /// Which write path drains the in-flight response.
    sending: Sending,
    /// Wire bytes completed so far for a streamed response (whole-body
    /// and batch responses compute theirs from lengths at completion).
    wire: usize,
    phase: Phase,
    /// Whether the connection survives the in-flight response.
    keep_alive: bool,
    /// Requests served (bounded by [`MAX_REQUESTS_PER_CONNECTION`]).
    served: usize,
    /// Wheel tick at which this connection counts as idle-expired;
    /// rewritten on every byte of progress (the lazy-wheel "touch").
    expiry_tick: u64,
    /// Earliest tick at which the wheel will next visit this connection.
    /// A deadline that moves *later* needs no new wheel entry (the visit
    /// reschedules lazily); only a deadline moving *earlier* — entering a
    /// write with a shorter stall allowance — schedules one, keeping the
    /// steady state free of wheel-entry growth (and of its allocations).
    scheduled_tick: u64,
    // -- telemetry capture for the in-flight response --
    started: Instant,
    route: Route,
    tier: ResponseTier,
    status: u16,
    not_modified: bool,
    stages: (u64, u64, u64),
}

/// Publishes finished by the ingest thread, waiting for their shard:
/// [`Mailbox::post`] queues one and wakes the shard's eventfd, and the
/// shard delivers them on its next pass.
pub(crate) struct Mailbox {
    done: Mutex<Vec<(u64, ServiceResponse, Vec<u8>)>>,
    wake: Arc<EventFd>,
}

impl Mailbox {
    /// Queues the answer for the connection behind `token`, handing back
    /// its body buffer for reuse, and wakes the shard.
    pub(crate) fn post(&self, token: u64, response: ServiceResponse, body: Vec<u8>) {
        self.done
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push((token, response, body));
        self.wake.notify();
    }
}

impl Conn {
    /// Ends the connection after its last response: returns `false` to
    /// close it at once, or shuts down our side and moves to
    /// [`Phase::Lingering`] when input may be unread — a refused body
    /// (`413`), a malformed request (`unread`), or pipelined bytes already
    /// buffered. A graceful drain never lingers.
    fn finish(&mut self, unread: bool, draining: bool) -> bool {
        let unread = unread || self.status == 413 || self.request.filled() > 0;
        if !unread || draining {
            return false;
        }
        self.phase = Phase::Lingering;
        self.stream.shutdown(std::net::Shutdown::Write).is_ok()
    }
}

/// A slab slot: the connection (if live) plus the generation that must
/// match for epoll tokens and wheel entries to act on it.
struct Entry {
    conn: Option<Conn>,
    generation: u32,
}

/// Verdict of driving a connection's state machine.
enum Drive {
    /// Parked on `EAGAIN`; epoll will report the next edge.
    Keep,
    /// Done or broken; release the slot.
    Close,
}

/// What one head parse produced: a finished answer (no body, or refused
/// before reading one), or a `Content-Length` body still to be read.
enum Parsed {
    Answered { outcome: RequestOutcome, head_len: usize, keep_alive: bool, started: Instant },
    Body { head_len: usize, len: usize, keep_alive: bool, started: Instant },
}

/// Stages an answered request on the connection: assembles the response
/// head for the outcome's payload shape, captures telemetry, and moves
/// the connection to [`Phase::Responding`]. Timer-wheel bookkeeping
/// stays with the caller.
fn stage_outcome(conn: &mut Conn, outcome: RequestOutcome, keep_alive: bool, started: Instant) {
    let RequestOutcome { response, status, mode, not_modified, route, allow, payload } = outcome;
    match payload {
        Payload::Single => {
            conn.body_emit = conn.response.assemble(
                &http::ResponseHead {
                    status,
                    content_type: response.content_type,
                    keep_alive,
                    etag: response.etag,
                    allow,
                    mode,
                },
                response.body.len(),
            );
            conn.body = Some(response.body);
            conn.sending = Sending::Whole;
        }
        Payload::Batch => {
            // The framed parts are already in `conn.batch` (the answer
            // wrote them); only the head needs assembling.
            conn.response.assemble(
                &http::ResponseHead {
                    status,
                    content_type: response.content_type,
                    keep_alive,
                    etag: None,
                    allow: None,
                    mode,
                },
                conn.batch.wire_len(),
            );
            conn.body = None;
            conn.body_emit = 0;
            conn.sending = Sending::Batch;
        }
        Payload::Stream(stream) => {
            let emit = conn.response.assemble_chunked(&http::ResponseHead {
                status,
                content_type: response.content_type,
                keep_alive,
                etag: None,
                allow: None,
                mode,
            });
            conn.body = None;
            conn.body_emit = 0;
            conn.export = emit.then_some(stream);
            conn.chunk.clear();
            conn.chunk_head.clear();
            conn.sending = Sending::Stream { head_done: false, terminal: false };
        }
        Payload::Ingest => unreachable!("ingests are handed off before staging"),
    }
    conn.wire = 0;
    conn.tier = response.tier;
    conn.cursor = 0;
    conn.keep_alive = keep_alive;
    conn.served += 1;
    conn.started = started;
    conn.route = route;
    conn.status = status;
    conn.not_modified = not_modified;
    // The stage scratch is thread-local and this thread interleaves
    // requests from many connections, so the timings are captured now,
    // not at write completion.
    conn.stages = metrics::stage_scratch::get();
    conn.phase = Phase::Responding;
}

/// One resumable write attempt of a whole-body response ([`Sending::Whole`]).
fn write_whole(conn: &mut Conn) -> io::Result<WriteProgress> {
    let Conn { stream, response, body, body_emit, cursor, .. } = conn;
    let body = body.as_deref().unwrap_or(&[]);
    http::write_resumable(
        &mut fault::FaultStream(stream),
        response.head_bytes(),
        &body[..*body_emit],
        cursor,
    )
}

/// Drives a chunked export to the socket: the head first, then chunk
/// frames pulled on demand from the export cursor. At most one chunk
/// (frame prefix + payload-with-CRLF) is materialized at a time — the
/// bounded-memory property. `EAGAIN` parks the framing position in
/// [`Sending::Stream`]'s flags and the byte position in `conn.cursor`;
/// the next writable event resumes mid-chunk.
fn drive_stream(conn: &mut Conn) -> io::Result<WriteProgress> {
    let Conn { stream, response, cursor, chunk, chunk_head, export, wire, sending, .. } = conn;
    let Sending::Stream { head_done, terminal } = sending else {
        unreachable!("drive_stream on a non-stream response");
    };
    let mut stream = fault::FaultStream(stream);
    if !*head_done {
        let head = response.head_bytes();
        match http::write_resumable(&mut stream, head, &[], cursor)? {
            WriteProgress::Pending => return Ok(WriteProgress::Pending),
            WriteProgress::Complete => {
                *head_done = true;
                *wire += head.len();
                *cursor = 0;
            }
        }
        if export.is_none() {
            // HEAD: the chunked header goes out with no chunks.
            return Ok(WriteProgress::Complete);
        }
    }
    loop {
        if chunk_head.is_empty() {
            // Refill: the next chunk frame, or the terminal frame once
            // the export runs dry.
            if *terminal {
                return Ok(WriteProgress::Complete);
            }
            let Some(body) = export.as_mut() else { return Ok(WriteProgress::Complete) };
            if body.next_chunk(chunk) && !chunk.is_empty() {
                let payload = chunk.len();
                chunk.extend_from_slice(b"\r\n");
                http::chunk_prefix(payload, chunk_head);
            } else {
                chunk.clear();
                http::chunk_prefix(0, chunk_head);
                *terminal = true;
            }
            *cursor = 0;
        }
        match http::write_resumable(&mut stream, chunk_head, chunk, cursor)? {
            WriteProgress::Pending => return Ok(WriteProgress::Pending),
            WriteProgress::Complete => {
                *wire += chunk_head.len() + chunk.len();
                chunk_head.clear();
                chunk.clear();
                *cursor = 0;
                if *terminal {
                    return Ok(WriteProgress::Complete);
                }
            }
        }
    }
}

/// One reactor shard. [`Shard::run`] consumes the shard on its own
/// thread; all shards of a server share the [`ConnState`] (service,
/// metrics, access log) and the shutdown signal, and own disjoint
/// connection populations.
pub(crate) struct Shard {
    epoll: Epoll,
    listener: TcpListener,
    wake: Arc<EventFd>,
    /// Where the ingest thread posts this shard's finished publishes.
    mailbox: Arc<Mailbox>,
    state: Arc<ConnState>,
    shutdown: Arc<ShutdownSignal>,
    entries: Vec<Entry>,
    free: Vec<u32>,
    wheel: TimerWheel,
    /// Wheel tick length in milliseconds (`min(keep-alive, write-stall)
    /// / 8`, 10–500 ms).
    tick_ms: u64,
    /// Idle allowance in ticks (≥ the keep-alive timeout); governs
    /// connections waiting for a request.
    timeout_ticks: u64,
    /// Write-stall allowance in ticks (≥ the write-stall timeout);
    /// governs connections with a response in flight — a peer that
    /// accepts no bytes for this long is evicted as a slow reader.
    stall_ticks: u64,
    /// This shard's share of `max_inflight` (0 = unlimited); beyond it,
    /// accepted connections get the static 503 and are closed.
    conn_cap: usize,
    /// This shard's slot in the per-shard metric arrays
    /// ([`ServerMetrics::shard_slot`]: shards past the array clamp to the
    /// last slot).
    slot: usize,
    /// Reserve fd for actively resetting connections under `EMFILE`.
    rescue: AcceptRescue,
    epoch: Instant,
    /// Tokens of connections that yielded after an uncached answer with
    /// another request buffered; they get their next turn on the next
    /// pass of the loop, after that pass's readiness reports.
    yielded: Vec<u64>,
    /// The previous pass's [`Shard::yielded`], being driven (kept to
    /// reuse its capacity).
    turn: Vec<u64>,
}

impl Shard {
    /// Wraps an already bound+listening non-blocking `listener` into a
    /// shard: creates the epoll instance and registers listener (level-
    /// triggered) and wake eventfd.
    pub(crate) fn new(
        listener: TcpListener,
        wake: Arc<EventFd>,
        state: Arc<ConnState>,
        shutdown: Arc<ShutdownSignal>,
        conn_cap: usize,
        index: usize,
    ) -> io::Result<Shard> {
        let epoll = Epoll::new()?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        epoll.add(wake.raw_fd(), EPOLLIN, TOKEN_WAKE)?;
        let keep_ms = u64::try_from(state.keep_alive_timeout.as_millis()).unwrap_or(5_000).max(1);
        let stall_ms = u64::try_from(state.write_stall_timeout.as_millis()).unwrap_or(5_000).max(1);
        let tick_ms = (keep_ms.min(stall_ms) / 8).clamp(10, 500);
        let timeout_ticks = keep_ms.div_ceil(tick_ms) + 1;
        let stall_ticks = stall_ms.div_ceil(tick_ms) + 1;
        let mailbox = Arc::new(Mailbox { done: Mutex::new(Vec::new()), wake: Arc::clone(&wake) });
        Ok(Shard {
            epoll,
            listener,
            wake,
            mailbox,
            state,
            shutdown,
            entries: Vec::new(),
            free: Vec::new(),
            wheel: TimerWheel::new(),
            tick_ms,
            timeout_ticks,
            stall_ticks,
            conn_cap,
            slot: ServerMetrics::shard_slot(index),
            rescue: AcceptRescue::new(),
            epoch: Instant::now(),
            yielded: Vec::new(),
            turn: Vec::new(),
        })
    }

    /// The event loop: wait, dispatch readiness, accept, expire idle
    /// connections; returns once the shutdown signal is raised (closing
    /// every connection this shard owns). Waits on `started` once its
    /// event buffer is allocated, so whoever else waits there knows the
    /// shard has done its start-up allocations.
    pub(crate) fn run(mut self, started: &Barrier) {
        let mut events = vec![EpollEvent { events: 0, data: 0 }; EVENTS_PER_WAIT];
        started.wait();
        let mut draining = false;
        loop {
            std::mem::swap(&mut self.yielded, &mut self.turn);
            // Yielded connections have buffered requests: poll, don't sleep.
            let timeout_ms = if self.turn.is_empty() { self.ms_to_next_tick() } else { 0 };
            let n = self.epoll.wait(&mut events, timeout_ms).unwrap_or(0);
            if self.shutdown.is_triggered() {
                if !self.shutdown.is_graceful() {
                    self.close_all();
                    return;
                }
                if !draining {
                    // Graceful drain: stop accepting, drop idle
                    // keep-alive connections, and finish the rest —
                    // in-flight requests and partial reads complete (or
                    // are evicted by the timer wheel if stalled).
                    draining = true;
                    self.begin_drain();
                }
                if self.live() == 0 {
                    return;
                }
            }
            let mut accept_ready = false;
            for event in &events[..n] {
                let token = event.data;
                if token == TOKEN_LISTENER {
                    accept_ready = true;
                } else if token == TOKEN_WAKE {
                    self.wake.drain();
                    self.deliver_ingests();
                } else {
                    self.drive_token(token);
                }
            }
            let mut turn = std::mem::take(&mut self.turn);
            for token in turn.drain(..) {
                self.drive_token(token);
            }
            self.turn = turn;
            if accept_ready && !draining {
                self.accept_ready();
            }
            let now_tick = self.now_tick();
            self.expire_idle(now_tick);
            if draining && self.live() == 0 {
                return;
            }
        }
    }

    /// Live connections on this shard (slab occupancy).
    fn live(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    /// Entering a graceful drain: idle keep-alive connections (Reading
    /// phase, nothing buffered) and lingering ones are closed outright;
    /// everything else is left to finish its in-flight work.
    fn begin_drain(&mut self) {
        for idx in 0..self.entries.len() {
            let idle = match &self.entries[idx].conn {
                Some(conn) => {
                    (conn.phase == Phase::Reading && conn.request.filled() == 0)
                        || conn.phase == Phase::Lingering
                }
                None => false,
            };
            if idle {
                self.release(idx);
            }
        }
    }

    fn now_tick(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX) / self.tick_ms
    }

    /// `epoll_wait` timeout: sleep exactly to the next tick boundary, so
    /// the wheel advances on schedule even with no socket activity.
    fn ms_to_next_tick(&self) -> i32 {
        let elapsed = u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX);
        let remaining = self.tick_ms - (elapsed % self.tick_ms);
        remaining.clamp(1, i32::MAX as u64) as i32
    }

    /// Accepts until the backlog runs dry. Transient `EINTR` retries
    /// immediately. `EMFILE`-class exhaustion spends the [`AcceptRescue`]
    /// reserve fd to actively reset the pending connection (falling back
    /// to a brief sleep only if that fails) — the level-triggered
    /// listener registration means epoll re-reports any remaining
    /// backlog on the next wait, nothing is lost. Past this shard's
    /// connection cap, accepted connections get the static 503 and are
    /// closed without ever entering the slab.
    fn accept_ready(&mut self) {
        loop {
            match fault::accept(&self.listener) {
                Ok((stream, _)) => {
                    if self.state.telemetry {
                        self.state.metrics.shard_accepted[self.slot].inc();
                    }
                    if self.conn_cap != 0 && self.live() >= self.conn_cap {
                        if self.state.telemetry {
                            self.state.metrics.overload_rejects.inc();
                        }
                        reject_overload_nonblocking(stream);
                        continue;
                    }
                    self.register(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    if self.state.telemetry {
                        self.state.metrics.accept_errors.inc();
                    }
                }
                Err(e) => {
                    if self.state.telemetry {
                        self.state.metrics.accept_errors.inc();
                    }
                    let fd_exhausted = matches!(e.raw_os_error(), Some(23 | 24));
                    if fd_exhausted && self.rescue.rescue(&self.listener) {
                        if self.state.telemetry {
                            self.state.metrics.accept_rescues.inc();
                        }
                    } else {
                        std::thread::sleep(Duration::from_millis(10));
                        return;
                    }
                }
            }
        }
    }

    /// Enters an accepted connection into the slab, registers it with
    /// epoll (once, edge-triggered) and the timer wheel, then drives it
    /// immediately — data may already be queued from before registration.
    fn register(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let now_tick = self.now_tick();
        let idx = match self.free.pop() {
            Some(idx) => idx as usize,
            None => {
                self.entries.push(Entry { conn: None, generation: 0 });
                self.entries.len() - 1
            }
        };
        let gen = self.entries[idx].generation;
        let token = (u64::from(gen) << 32) | idx as u64;
        if self
            .epoll
            .add(stream.as_raw_fd(), EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP, token)
            .is_err()
        {
            self.free.push(idx as u32);
            return;
        }
        if self.state.telemetry {
            self.state.metrics.connections_opened.inc();
            self.state.metrics.connections_active.inc();
            self.state.metrics.shard_connections[self.slot].inc();
        }
        let expiry_tick = now_tick + self.timeout_ticks;
        self.entries[idx].conn = Some(Conn {
            stream,
            request: http::RequestBuf::lazy(),
            response: http::ResponseBuf::default(),
            body: None,
            body_emit: 0,
            cursor: 0,
            body_buf: Vec::new(),
            body_read: 0,
            body_len: 0,
            pending_head_len: 0,
            method: String::new(),
            target: String::new(),
            inm: String::new(),
            has_inm: false,
            batch: http::BatchBody::default(),
            batch_scratch: service::BatchScratch::default(),
            export: None,
            chunk: Vec::new(),
            chunk_head: Vec::new(),
            sending: Sending::Whole,
            wire: 0,
            phase: Phase::Reading,
            keep_alive: true,
            served: 0,
            expiry_tick,
            scheduled_tick: expiry_tick,
            started: Instant::now(),
            route: Route::Other,
            tier: ResponseTier::Untiered,
            status: 0,
            not_modified: false,
            stages: (0, 0, 0),
        });
        self.wheel.schedule(expiry_tick, idx as u32, gen);
        if let Drive::Close = self.drive(idx, now_tick) {
            self.release(idx);
        }
    }

    /// Answers the connections whose publishes finished: each answer is
    /// staged like any other response and written at once. A connection
    /// closed meanwhile (its slot generation moved on) drops the answer;
    /// the publish itself stands.
    fn deliver_ingests(&mut self) {
        let done = std::mem::take(
            &mut *self.mailbox.done.lock().unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        let now_tick = self.now_tick();
        for (token, response, body) in done {
            let idx = (token & u64::from(u32::MAX)) as usize;
            let gen = (token >> 32) as u32;
            let Some(entry) = self.entries.get_mut(idx) else { continue };
            if entry.generation != gen {
                continue;
            }
            let Some(conn) = entry.conn.as_mut() else { continue };
            if conn.phase != Phase::Ingesting {
                continue;
            }
            conn.body_buf = body;
            // A drain that began during the publish closes the
            // connection after this answer.
            let keep_alive = conn.keep_alive && !self.shutdown.is_triggered();
            let outcome = RequestOutcome {
                status: response.status,
                response,
                mode: http::BodyMode::Full,
                not_modified: false,
                route: Route::Ingest,
                allow: None,
                payload: Payload::Single,
            };
            metrics::stage_scratch::reset();
            stage_outcome(conn, outcome, keep_alive, conn.started);
            conn.expiry_tick = now_tick + self.stall_ticks;
            if conn.expiry_tick < conn.scheduled_tick {
                self.wheel.schedule(conn.expiry_tick, idx as u32, gen);
                conn.scheduled_tick = conn.expiry_tick;
            }
            if let Drive::Close = self.drive(idx, now_tick) {
                self.release(idx);
            }
        }
    }

    /// Resolves an epoll token to a live slab entry (generation must
    /// match — a stale event for a recycled slot is dropped) and drives
    /// it.
    fn drive_token(&mut self, token: u64) {
        let idx = (token & u64::from(u32::MAX)) as usize;
        let gen = (token >> 32) as u32;
        match self.entries.get(idx) {
            Some(entry) if entry.generation == gen && entry.conn.is_some() => {}
            _ => return,
        }
        let now_tick = self.now_tick();
        if let Drive::Close = self.drive(idx, now_tick) {
            self.release(idx);
        }
    }

    /// Runs one connection's state machine until it parks on `EAGAIN` or
    /// closes. The readiness bits are deliberately ignored: the state
    /// decides which I/O to attempt, and a spurious wrong-direction event
    /// costs one `EAGAIN` syscall.
    fn drive(&mut self, idx: usize, now_tick: u64) -> Drive {
        let timeout_ticks = self.timeout_ticks;
        let stall_ticks = self.stall_ticks;
        let Shard { entries, state, shutdown, wheel, mailbox, yielded, .. } = self;
        let state: &ConnState = state;
        let gen = entries[idx].generation;
        let token = (u64::from(gen) << 32) | idx as u64;
        let Some(conn) = entries[idx].conn.as_mut() else { return Drive::Keep };
        loop {
            match conn.phase {
                Phase::Reading => {
                    let filled_before = conn.request.filled();
                    let parsed = match conn
                        .request
                        .read_request(&mut fault::FaultStream(&mut conn.stream))
                    {
                        Ok(request) => {
                            let started = Instant::now();
                            // A graceful drain closes the connection
                            // after this response goes out.
                            let keep_alive = request.keep_alive
                                && conn.served + 1 < MAX_REQUESTS_PER_CONNECTION
                                && !shutdown.is_triggered();
                            if request.content_length == 0 {
                                let outcome = answer(
                                    state,
                                    &request,
                                    &[],
                                    &mut conn.batch,
                                    &mut conn.batch_scratch,
                                );
                                Parsed::Answered {
                                    outcome,
                                    head_len: request.head_len,
                                    keep_alive,
                                    started,
                                }
                            } else if request.content_length > state.max_body {
                                // Refused without reading the body; the
                                // unread bytes would desynchronize
                                // keep-alive framing, so close after.
                                let outcome = RequestOutcome {
                                    response: ServiceResponse::error(
                                        413,
                                        "request body exceeds the configured limit",
                                    ),
                                    status: 413,
                                    mode: http::BodyMode::Full,
                                    not_modified: false,
                                    route: Route::of(request.path()),
                                    allow: None,
                                    payload: Payload::Single,
                                };
                                Parsed::Answered {
                                    outcome,
                                    head_len: request.head_len,
                                    keep_alive: false,
                                    started,
                                }
                            } else {
                                // A body follows. The parsed request
                                // borrows the buffer the body bytes land
                                // in, so its facts are copied into the
                                // connection scratch first.
                                conn.method.clear();
                                conn.method.push_str(request.method);
                                conn.target.clear();
                                conn.target.push_str(request.target);
                                conn.inm.clear();
                                conn.has_inm = match request.if_none_match {
                                    Some(header) => {
                                        conn.inm.push_str(header);
                                        true
                                    }
                                    None => false,
                                };
                                Parsed::Body {
                                    head_len: request.head_len,
                                    len: request.content_length,
                                    keep_alive,
                                    started,
                                }
                            }
                        }
                        Err(http::RequestError::ConnectionClosed) => return Drive::Close,
                        Err(http::RequestError::Io(e)) if e.kind() == io::ErrorKind::WouldBlock => {
                            // Out of bytes before a full head. Only actual
                            // progress touches the idle timer: a slow-loris
                            // trickle keeps the connection alive only as
                            // long as it keeps sending.
                            if conn.request.filled() > filled_before {
                                conn.expiry_tick = now_tick + timeout_ticks;
                            }
                            // Idle during a drain (a keep-alive response
                            // finished after it began): close.
                            if conn.request.filled() == 0 && shutdown.is_triggered() {
                                return Drive::Close;
                            }
                            return Drive::Keep;
                        }
                        Err(http::RequestError::Io(_)) => return Drive::Close,
                        Err(http::RequestError::Bad(status, message)) => {
                            record_parse_error(state, status);
                            let error = ServiceResponse::error(status, &message);
                            conn.body_emit = conn.response.assemble(
                                &http::ResponseHead {
                                    status,
                                    content_type: error.content_type,
                                    keep_alive: false,
                                    etag: None,
                                    allow: None,
                                    mode: http::BodyMode::Full,
                                },
                                error.body.len(),
                            );
                            conn.body = Some(error.body);
                            conn.cursor = 0;
                            conn.sending = Sending::Whole;
                            conn.phase = Phase::Draining;
                            // Writes get the (possibly shorter) stall
                            // allowance; schedule only if it lands
                            // before the wheel's next visit.
                            conn.expiry_tick = now_tick + stall_ticks;
                            if conn.expiry_tick < conn.scheduled_tick {
                                wheel.schedule(conn.expiry_tick, idx as u32, gen);
                                conn.scheduled_tick = conn.expiry_tick;
                            }
                            continue;
                        }
                    };
                    match parsed {
                        Parsed::Answered { outcome, head_len, keep_alive, started } => {
                            conn.request.consume(head_len);
                            stage_outcome(conn, outcome, keep_alive, started);
                            // Raw fast-lane short circuit: a verbatim
                            // cache hit is one preassembled head + one
                            // `Arc` body — try the write now, before any
                            // timer-wheel bookkeeping. In the common case
                            // it completes in one syscall and the
                            // connection goes straight back to Reading:
                            // one read, one write, zero wheel churn.
                            if conn.tier == ResponseTier::Raw && conn.sending == Sending::Whole {
                                match write_whole(conn) {
                                    Ok(WriteProgress::Complete) => {
                                        let wire =
                                            conn.response.head_bytes().len() + conn.body_emit;
                                        record_request(
                                            state,
                                            conn.route,
                                            conn.status,
                                            conn.tier,
                                            conn.not_modified,
                                            Some(wire),
                                            conn.started,
                                            conn.stages,
                                        );
                                        conn.body = None;
                                        if !conn.keep_alive {
                                            if !conn.finish(false, shutdown.is_triggered()) {
                                                return Drive::Close;
                                            }
                                            continue;
                                        }
                                        // The idle deadline moves later;
                                        // the wheel reschedules lazily.
                                        conn.expiry_tick = now_tick + timeout_ticks;
                                        conn.phase = Phase::Reading;
                                        continue;
                                    }
                                    Ok(WriteProgress::Pending) => {}
                                    Err(_) => return Drive::Close,
                                }
                            }
                            conn.expiry_tick = now_tick + stall_ticks;
                            if conn.expiry_tick < conn.scheduled_tick {
                                wheel.schedule(conn.expiry_tick, idx as u32, gen);
                                conn.scheduled_tick = conn.expiry_tick;
                            }
                        }
                        Parsed::Body { head_len, len, keep_alive, started } => {
                            conn.body_buf.clear();
                            conn.body_buf.reserve(len);
                            let moved = conn.request.take_body(head_len, len, &mut conn.body_buf);
                            conn.body_buf.resize(len, 0);
                            conn.body_read = moved;
                            conn.body_len = len;
                            conn.pending_head_len = head_len;
                            conn.keep_alive = keep_alive;
                            conn.started = started;
                            conn.phase = Phase::ReadingBody;
                            // The parsed head counts as read progress.
                            conn.expiry_tick = now_tick + timeout_ticks;
                        }
                    }
                }
                Phase::ReadingBody => {
                    while conn.body_read < conn.body_len {
                        match io::Read::read(
                            &mut fault::FaultStream(&mut conn.stream),
                            &mut conn.body_buf[conn.body_read..conn.body_len],
                        ) {
                            Ok(0) => return Drive::Close,
                            Ok(n) => {
                                conn.body_read += n;
                                // Body bytes are read progress.
                                conn.expiry_tick = now_tick + timeout_ticks;
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Drive::Keep,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                            Err(_) => return Drive::Close,
                        }
                    }
                    let keep_alive = conn.keep_alive;
                    let started = conn.started;
                    let request = http::Request {
                        method: conn.method.as_str(),
                        target: conn.target.as_str(),
                        keep_alive,
                        if_none_match: conn.has_inm.then_some(conn.inm.as_str()),
                        content_length: conn.body_len,
                        head_len: conn.pending_head_len,
                    };
                    let mut outcome = answer(
                        state,
                        &request,
                        &conn.body_buf,
                        &mut conn.batch,
                        &mut conn.batch_scratch,
                    );
                    if let (Payload::Ingest, Some(ingest)) = (&outcome.payload, &state.ingest) {
                        let job = IngestJob {
                            body: std::mem::take(&mut conn.body_buf),
                            token,
                            reply: Arc::clone(mailbox),
                        };
                        match ingest.try_send(job) {
                            Ok(()) => {
                                conn.phase = Phase::Ingesting;
                                return Drive::Keep;
                            }
                            // Shed, don't queue: the publish queue is full
                            // (or its thread is gone).
                            Err(TrySendError::Full(job) | TrySendError::Disconnected(job)) => {
                                conn.body_buf = job.body;
                                outcome.response = ServiceResponse::error(
                                    503,
                                    "ingest queue is full, retry shortly",
                                );
                                outcome.status = 503;
                                outcome.payload = Payload::Single;
                            }
                        }
                    }
                    stage_outcome(conn, outcome, keep_alive, started);
                    conn.expiry_tick = now_tick + stall_ticks;
                    if conn.expiry_tick < conn.scheduled_tick {
                        wheel.schedule(conn.expiry_tick, idx as u32, gen);
                        conn.scheduled_tick = conn.expiry_tick;
                    }
                }
                Phase::Ingesting => return Drive::Keep,
                Phase::Responding | Phase::Draining => {
                    let progress_before = (conn.cursor, conn.wire);
                    let result = match conn.sending {
                        Sending::Whole => write_whole(conn),
                        Sending::Batch => {
                            let Conn { stream, response, batch, cursor, .. } = conn;
                            http::write_batch(
                                &mut fault::FaultStream(stream),
                                response.head_bytes(),
                                batch,
                                cursor,
                            )
                        }
                        Sending::Stream { .. } => drive_stream(conn),
                    };
                    match result {
                        Ok(WriteProgress::Pending) => {
                            // Only actual progress extends the stall
                            // allowance: a peer accepting zero bytes
                            // runs out the clock and is evicted.
                            if (conn.cursor, conn.wire) != progress_before {
                                conn.expiry_tick = now_tick + stall_ticks;
                            }
                            return Drive::Keep;
                        }
                        Ok(WriteProgress::Complete) => {
                            let wire = match conn.sending {
                                Sending::Whole => conn.response.head_bytes().len() + conn.body_emit,
                                Sending::Batch => {
                                    conn.response.head_bytes().len() + conn.batch.wire_len()
                                }
                                Sending::Stream { .. } => conn.wire,
                            };
                            conn.body = None;
                            conn.export = None;
                            conn.sending = Sending::Whole;
                            conn.wire = 0;
                            if conn.phase == Phase::Draining {
                                // Parse errors were already counted when
                                // detected; only the wire bytes remain.
                                if state.telemetry {
                                    state.metrics.response_bytes.add(wire as u64);
                                }
                                if !conn.finish(true, shutdown.is_triggered()) {
                                    return Drive::Close;
                                }
                                continue;
                            }
                            record_request(
                                state,
                                conn.route,
                                conn.status,
                                conn.tier,
                                conn.not_modified,
                                Some(wire),
                                conn.started,
                                conn.stages,
                            );
                            if !conn.keep_alive {
                                if !conn.finish(false, shutdown.is_triggered()) {
                                    return Drive::Close;
                                }
                                continue;
                            }
                            conn.expiry_tick = now_tick + timeout_ticks;
                            if conn.expiry_tick < conn.scheduled_tick {
                                wheel.schedule(conn.expiry_tick, idx as u32, gen);
                                conn.scheduled_tick = conn.expiry_tick;
                            }
                            conn.phase = Phase::Reading;
                            if conn.tier == ResponseTier::Uncached && conn.request.filled() > 0 {
                                // Yield: the shard's other ready
                                // connections go before this one's next
                                // buffered request.
                                yielded.push(token);
                                return Drive::Keep;
                            }
                            // Loop: pipelined bytes may already be buffered.
                        }
                        Err(_) => return Drive::Close,
                    }
                }
                Phase::Lingering => {
                    let mut sink = [0u8; 4096];
                    loop {
                        match io::Read::read(&mut fault::FaultStream(&mut conn.stream), &mut sink) {
                            Ok(0) => return Drive::Close,
                            Ok(_) => {}
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Drive::Keep,
                            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                            Err(_) => return Drive::Close,
                        }
                    }
                }
            }
        }
    }

    /// Frees a slot: drops the connection (closing the socket and
    /// deregistering it from epoll implicitly), bumps the generation so
    /// stale tokens and wheel entries miss, and recycles the index.
    fn release(&mut self, idx: usize) {
        let entry = &mut self.entries[idx];
        if entry.conn.take().is_some() {
            entry.generation = entry.generation.wrapping_add(1);
            self.free.push(idx as u32);
            if self.state.telemetry {
                self.state.metrics.connections_closed.inc();
                self.state.metrics.connections_active.dec();
                self.state.metrics.shard_connections[self.slot].dec();
            }
        }
    }

    /// Advances the timer wheel, evicting connections idle past their
    /// expiry tick and lazily rescheduling the rest.
    fn expire_idle(&mut self, now_tick: u64) {
        let Shard { entries, wheel, state, free, slot, timeout_ticks, .. } = self;
        let (slot, timeout_ticks) = (*slot, *timeout_ticks);
        wheel.advance(now_tick, |idx, gen| {
            let entry = entries.get_mut(idx as usize)?;
            if entry.generation != gen {
                return None;
            }
            let conn = entry.conn.as_mut()?;
            if conn.phase == Phase::Ingesting {
                // Waiting on a publish is not idleness.
                conn.expiry_tick = now_tick + timeout_ticks;
            }
            if conn.expiry_tick > now_tick {
                conn.scheduled_tick = conn.expiry_tick;
                return Some(conn.expiry_tick);
            }
            // Idle past the deadline (between requests, stalled mid-head,
            // or stalled mid-response): evict.
            let stalled_write = matches!(conn.phase, Phase::Responding | Phase::Draining);
            entry.conn = None;
            entry.generation = entry.generation.wrapping_add(1);
            free.push(idx);
            if state.telemetry {
                state.metrics.connections_closed.inc();
                state.metrics.connections_active.dec();
                state.metrics.shard_connections[slot].dec();
                if stalled_write {
                    state.metrics.slow_reader_evictions.inc();
                }
            }
            None
        });
    }

    /// Drops every live connection (shutdown path).
    fn close_all(&mut self) {
        let Shard { entries, state, slot, .. } = self;
        for entry in entries.iter_mut() {
            if entry.conn.take().is_some() && state.telemetry {
                state.metrics.connections_closed.inc();
                state.metrics.connections_active.dec();
                state.metrics.shard_connections[*slot].dec();
            }
        }
    }
}
